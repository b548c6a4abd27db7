"""entryloci benchmark: one workload, one seed, a closed loop of fresh children.

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0

One client: the parent starts one child process at a time, each running the
workload's whole task list for the master seeds derived from --seed (see
workloads.py), and starts the next only when the previous one has ended.
An untraced run first starts SETUP_REPEATS children that stop after set-up,
so setup_s is a median over several set-ups.  The run stops starting
children when the next one would end more than --seconds after the run
began (set-up children included), but always runs at least MIN_CHILDREN full children, so the
report digests of two children can be compared.  Caches start cold in every
child.

--trace 0 reports the end-to-end metrics (medians over children).  --trace 1
alternates traced and untraced children (traced first), reports the
per-layer metrics of the traced ones and checks that the counters of the
traced children agree.  Diagnostics that measure the host or the tracer
rather than the program (the calibration timings and the tracing overhead)
are printed and recorded, but are not metrics.

Every task's result is checked against exact expected values, and each
task's report digest must agree across children.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A full
record of the run, with provenance, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_CHILDREN = {0: 2, 1: 3}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 600
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Fastest of 5 timings of a fixed pure-Python loop (about 0.3 s in all).

    A host-drift diagnostic kept next to the results; nothing is normalised by it.
    """
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 1
        for i in range(300_000):
            x = (x * 48271 + i) % 2147483647
        times.append(time.perf_counter() - t)
    return min(times)


def run_child(workload, seeds, trace_path=None, *flags) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), *flags]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def host_provenance() -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "nproc": os.cpu_count(),
    }


def measure(workload: str, seed: int, seeds: list, seconds: float, trace: int) -> dict:
    """Run the closed loop over master seeds `seeds` and return the full record."""
    OUT.mkdir(exist_ok=True)
    calib_before = calibrate()
    start = time.monotonic()
    setups = [] if trace else [run_child(workload, seeds, None, "--setup-only")["setup_s"]
                               for _ in range(SETUP_REPEATS)]
    children = []
    longest = 0.0
    while len(children) < MIN_CHILDREN[trace] or time.monotonic() - start + longest <= seconds:
        traced = bool(trace) and len(children) % 2 == 0
        path = OUT / f"spans-{workload}-{seed}-{len(children)}.jsonl" if traced else None
        t = time.monotonic()
        child = run_child(workload, seeds, path)
        longest = max(longest, time.monotonic() - t)
        child["traced"] = traced
        child["spans_file"] = str(path.relative_to(ROOT)) if path else None
        children.append(child)
    calib_after = calibrate()
    aggregates = [spans.aggregate(spans.read_spans(ROOT / c["spans_file"]))
                  for c in children if c["traced"]]
    prov = {**host_provenance(), "workload": workload, "seed": seed,
            **workloads.describe(workload, seed)}
    return {"provenance": prov, "seconds": seconds, "trace": trace,
            "calibration_s": {"before": calib_before, "after": calib_after},
            "children": children, "setup_only_s": setups, "aggregates": aggregates}


def check(record: dict) -> list:
    """Problems that make the run incorrect: failed tasks, reports that differ
    from the first child's (such a task counts as failed), counters that
    differ between traced children, and wrapper bindings that were missed or
    left behind."""
    problems = []
    children = record["children"]
    for i, child in enumerate(children):
        problems += [f"child {i}: {p}" for p in child.get("binding_problems", [])]
        for task in child["tasks"]:
            if task["status"] != "pass":
                problems.append(f"child {i}: {task['task']}: {task['status']} {task['note']}")
    for j, task in enumerate(children[0]["tasks"]):
        for i, child in enumerate(children[1:], 1):
            if child["tasks"][j]["sha256"] != task["sha256"]:
                child["tasks"][j]["status"] = "digest-differs"
                problems.append(f"child {i}: {task['task']}: report differs from child 0")
    problems += [f"counter differs: {d}" for d in spans.counter_differences(record["aggregates"])]
    return problems


def metrics(record: dict) -> dict:
    children = record["children"]
    plain = [c for c in children if not c["traced"]]
    if not record["trace"]:
        values = {name: statistics.median(c[name] for c in plain) for name in E2E_UNITS}
        values["setup_s"] = statistics.median([c["setup_s"] for c in plain] + record["setup_only_s"])
        return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    values = spans.layer_metrics(record["aggregates"])
    units = spans.layer_metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def diagnostics(record: dict) -> dict:
    """Figures of the host and the tracer, kept next to the metrics but never
    compared as program metrics: the calibration timings and, in a traced
    run, the median wall time of the traced and the untraced children and
    their difference (the tracing overhead, with its base)."""
    out = {"calib_before_s": record["calibration_s"]["before"],
           "calib_after_s": record["calibration_s"]["after"]}
    if record["trace"]:
        walls = {t: statistics.median(c["wall_s"] for c in record["children"] if c["traced"] is t)
                 for t in (True, False)}
        out.update({"trace_wall_s": walls[True], "trace_base_wall_s": walls[False],
                    "trace_overhead_s": walls[True] - walls[False]})
    return out


def finish(record: dict) -> dict:
    """Check the run, add its problems and metrics to the record, and return
    the result line."""
    record["problems"] = check(record)
    record["metrics"] = metrics(record)
    record["diagnostics"] = diagnostics(record)
    tasks = [t for c in record["children"] for t in c["tasks"]]
    return {
        "correct": not record["problems"],
        "attempted": len(tasks),
        "failed": sum(t["status"] != "pass" for t in tasks),
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SEEDS_PER_CHILD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "entryloci" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seeds = workloads.master_seeds(args.workload, args.seed)
    try:
        record = measure(args.workload, args.seed, seeds, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    result = finish(record)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in record["problems"]:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(record['children'])} children")
    for name, value in record["diagnostics"].items():
        print(f"# diagnostic {name} {value:.6g} s")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
