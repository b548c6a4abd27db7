"""Guards for the traced benchmark in perfbench/, which wraps package
functions by name from outside: a rename or move in the package must fail
here instead of breaking the traced runs."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from entryloci import suite
from entryloci.kernel import ideals
from entryloci.kernel.groebner import Budget

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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
