"""Self-test of the benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. Wrapping: in this process, every traced function is wrapped at each of
   its module bindings while installed, a small Groebner basis records
   spans with S-pair counts, and restore puts every original back.
2. Smoke runs: one master seed of the curves workload, untraced and traced,
   must emit exactly the metrics BENCHMARK.json names, with its units, and
   pass every output check.
3. No source: run.py in a directory holding only BENCHMARK.json and the
   benchmark's files must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_wrapping():
    sys.path.insert(0, str(ROOT / "src"))
    import entryloci.suite  # noqa: F401  (binds most traced functions by name)
    from entryloci.kernel import ideals
    from entryloci.kernel.poly import RingContext
    from entryloci.kernel.fields import PrimeField

    before = {(m.__name__, a): v for m in spans.package_modules() for a, v in vars(m).items()}
    tracer = spans.Tracer()
    tracer.install()
    expect(tracer.binding_problems(installed=True) == [], "every binding wrapped while installed")
    expect(len(tracer._saved) > len(spans.labels()) + 1,
           f"{len(tracer._saved)} bindings wrapped for {len(spans.labels())} functions")
    ring = RingContext(("x", "y", "z"), PrimeField(32003))
    ideals._GB_CACHE.clear()
    ideals.groebner_basis(ideals.Ideal.of(ring, [ring.from_string(t) for t in
                                                 ("x^2 - y*z", "x*y - z^2", "y^3 - x*z^2")]))
    tracer.restore()
    names = [s[0] for s in tracer.spans]
    pairs = sum(m.pairs for _, m in tracer._meters)
    expect(names[:2] == [spans.GROEBNER_BASIS, spans.BUCHBERGER] and pairs > 0,
           f"spans {names[:2]} with {pairs} S-pairs")
    expect(tracer.binding_problems(installed=False) == [], "no wrapper left after restore")
    after = {(m.__name__, a): v for m in spans.package_modules() for a, v in vars(m).items()}
    expect(all(after[k] is v for k, v in before.items()), "every original binding restored")


def check_smoke():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record = run.measure("curves", 1, [1], 0, trace)
        result = run.finish(record)
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"trace {trace}: emits the {len(want)} {key} metrics with their units")
        expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
               f"trace {trace}: every value is a number")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"trace {trace}: outputs correct, {result['attempted']} tasks, problems {record['problems']}")
        if trace == 0:
            expect(all(v["value"] > 0 for v in result["metrics"].values()),
                   "end-to-end metrics are never 0")
        plain = [c for c in record["children"] if not c["traced"]]
        expect(all("binding_problems" not in c and c["spans_file"] is None for c in plain),
               f"trace {trace}: untraced children ran unwrapped")


def check_no_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "curves", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without source: exit {proc.returncode}, no result printed")


def main() -> int:
    check_wrapping()
    check_smoke()
    check_no_source()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
