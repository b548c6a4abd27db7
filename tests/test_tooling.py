"""Guards for the traced benchmark in perfbench/, which wraps package
functions by name from outside: a rename or move in the package must fail
here instead of breaking the traced runs."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from entryloci import suite
from entryloci.catalog import build_catalog_variety
from entryloci.entry_locus import classify_entry_locus
from entryloci.geometry import random_point
from entryloci.kernel import ideals
from entryloci.kernel.groebner import Budget
from entryloci.kernel.rng import seeded_rng
from entryloci.rank_secant import two_decompositions

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PACKAGE_SRC = SPANS.parent.parent / "src" / "entryloci"
SELFTEST = SPANS.parent / "selftest.py"
CHILD = SPANS.parent / "child.py"
WORKLOADS = SPANS.parent / "workloads.py"


def _load(monkeypatch, path):
    # read-only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(monkeypatch):
    spans = _load(monkeypatch, SPANS)
    missing = []
    for mod, fns in spans.TARGETS.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{mod}")
        missing += [f"{mod}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert missing == []
    assert callable(vars(Budget).get("fresh"))


def test_traced_classification_and_decomposition_reach_the_counts(monkeypatch):
    # the component count and the point counts run under the names that
    # spans.TARGETS wraps, so a traced run sees their calls
    spans = _load(monkeypatch, SPANS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        field = suite.resolve_field("fp:auto", 1)
        classify_entry_locus(build_catalog_variety("scroll12", 1, field), 1)
        q = random_point(field, seeded_rng("traced-decomp"), 4)
        two_decompositions(build_catalog_variety("rnc3", 1, field), q, seed=1)
    finally:
        tracer.restore()
    seen = {span[0] for span in tracer.spans}
    assert {
        "kernel.factor.absolute_factor_count",
        "kernel.zerodim.count_distinct_points",
        "kernel.zerodim.enumerate_points_prime_field",
        "kernel.zerodim.minimal_polynomial_of",
    } <= seen


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else []


def test_selftest_ideals_references_resolve():
    # parsed, not imported: the self-test's module-level imports stay unrun
    tree = ast.parse(SELFTEST.read_text())
    assert any(
        isinstance(n, ast.ImportFrom) and n.module == "entryloci.kernel"
        and [a.name for a in n.names] == ["ideals"]
        for n in ast.walk(tree)
    )
    refs = {tuple(p[1:]) for n in ast.walk(tree) if (p := _dotted(n))[:1] == ["ideals"] and len(p) > 1}
    assert ("_GB_CACHE", "clear") in refs
    missing = []
    for path in refs:
        obj = ideals
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(".".join(path))
    assert missing == []


def test_workload_checks_resolve_in_the_suite(monkeypatch):
    # the child looks each check id up in CHECKS and unpacks the entry as a triple
    for entry in suite.CHECKS:
        assert len(entry) == 3
        cid, claim, fn = entry
        assert isinstance(cid, str) and isinstance(claim, str) and callable(fn)
    workloads = _load(monkeypatch, WORKLOADS)
    tasks = [t for w in workloads.SEEDS_PER_CHILD for t in workloads.tasks(w, [1])]
    named = {t[1] for t in tasks if t[0] == "check"}
    assert "05s_degree_formula_k3" in named
    assert named <= {cid for cid, _, _ in suite.CHECKS}


def test_benchmark_child_runs_a_check_and_a_command(monkeypatch):
    # the child calls the suite's (id, claim, fn) triples, RunConfig, budget(),
    # resolve_field and cli.main directly
    child = _load(monkeypatch, CHILD)
    status, note, _ = child._run_check("08_secant_defectivity", "fp:auto", 1)
    assert (status, note) == ("pass", "")
    argv = ["decomp", "--variety", "rnc3", "--seed", "2"]
    status, note, _ = child._run_cli(argv, {"count": 1, "positive_dimensional": False})
    assert (status, note) == ("pass", "")


def _scoped(node, scope=""):
    """Every node under ``node``, with the dotted name of the innermost
    class or function around it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}".lstrip("."))
        else:
            yield from _scoped(child, scope)


def _package_nodes():
    for path in sorted(PACKAGE_SRC.rglob("*.py")):
        module = path.relative_to(PACKAGE_SRC).as_posix()
        for scope, node in _scoped(ast.parse(path.read_text())):
            yield module, scope, node


def test_only_the_benchmarked_entry_points_take_a_budget():
    # the Groebner limits are set where a command or a check starts and read
    # by the kernel; perfbench/child.py hands a budget to the CHECKS callables
    # and to build_catalog_variety, so only they take one
    takers = set()
    for module, scope, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]
            if "budget" in names:
                takers.add((module, f"{scope}.{getattr(node, 'name', '<lambda>')}".lstrip(".")))
    assert takers == {("catalog.py", "build_catalog_variety"), ("suite.py", "_limited.limited_check")}
    for _, _, fn in suite.CHECKS:
        assert list(inspect.signature(fn).parameters) == ["field", "seed", "budget"]


def test_meters_are_made_only_by_budget_fresh():
    # perfbench/spans.py wraps Budget.fresh to credit each meter's pairs and
    # reductions to the open span; a meter made anywhere else goes uncounted
    makers = [
        (module, scope) for module, scope, node in _package_nodes()
        if isinstance(node, ast.Call) and _dotted(node.func)[-1:] == ["_Meter"]
    ]
    assert makers == [("kernel/groebner.py", "Budget.fresh")]


README = PACKAGE_SRC.parent.parent / "README.md"


def _memoizes(decorator):
    return _dotted(decorator.func if isinstance(decorator, ast.Call) else decorator)[-1:] in (
        ["cache"], ["lru_cache"])


def _stores(body, prefix):
    """Empty ``{}`` and ``[]`` bound at module or class level, and functions
    memoized by ``functools.cache`` or ``lru_cache``: state that lives as
    long as the process."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _stores(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, ast.Dict) and not node.value.keys
            or isinstance(node.value, ast.List) and not node.value.elts
        ):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield prefix + target.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_memoizes, node.decorator_list)):
            yield prefix + node.name


def _readme_stores():
    """The first name in each item of the README's list of process-wide stores."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- Process-wide stores"))
    items = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        if line.startswith("  - "):
            items.append(line.split("`")[1].split("/")[-1])
    return items


def test_process_wide_stores_are_pinned_and_listed_in_the_readme():
    # a new global cache must be named here and in the README (each one is
    # state that outlives a run)
    found = set()
    for path in sorted(PACKAGE_SRC.rglob("*.py")):
        found |= {f"{path.stem}.{name}" for name in _stores(ast.parse(path.read_text()).body, "")}
    assert found == {
        "ideals._GB_CACHE",
        "catalog._VARIETY_CACHE",
        "groebner._CODE_TABLES",
        "factor._LARGE_PRIMES",
        "orders._grevlex_key",
        "cli.build_parser",
        "suite.resolve_field",
    }
    listed = _readme_stores()
    assert len(listed) == len(set(listed)) and set(listed) == found
