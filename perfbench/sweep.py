"""Repeat run.py over many seeds and write one results file.

    python3 perfbench/sweep.py --parts e2e,traced,gaps,k3 --out FILE

For every workload in BENCHMARK.json it runs run.py untraced once for each of
the seeds SEEDS and reports each end-to-end metric's median, quartiles and
spread, the distance between the quartiles as a share of the median, against
the metric's bound.  Part "traced" makes two traced runs of TRACED_SEED per
workload, checks that their deterministic counters agree exactly and reports
the tracing overhead; "gaps" runs the rationals task list with the known --field Q gaps
and reports its failed fraction; "k3" makes one traced run of the k3
workload, which BENCHMARK.json leaves out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


SEEDS = range(1, 11)
TRACED_SEED = 1


def bench_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "master_seeds": record["provenance"]["master_seeds"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "problems": record["problems"],
            "diagnostics": record["diagnostics"], "children": len(record["children"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def e2e_sweep(bench, seeds) -> dict:
    out = {}
    for w in bench["workloads"]:
        runs = []
        for s in seeds:
            runs.append(bench_run(w["name"], s, bench["run_seconds"], 0))
            print(f"{w['name']} seed {s}: {runs[-1]['metrics']} correct={runs[-1]['correct']}",
                  flush=True)
        stats = {}
        for m in bench["end_to_end"]:
            st = spread([r["metrics"][m["name"]] for r in runs])
            st["bound"] = m["bound"]
            st["within_third_of_bound"] = st["spread"] < m["bound"] / 3
            stats[m["name"]] = st
            print(f"  {w['name']} {m['name']}: median {st['median']:.4f} spread {st['spread']:.4f}"
                  f" (bound {m['bound']})", flush=True)
        out[w["name"]] = {"runs": runs, "stats": stats}
    return out


def traced_pair(workload, seed, seconds) -> dict:
    """Two traced runs of one seed; their counters must agree exactly."""
    first = bench_run(workload, seed, seconds, 1)
    second = bench_run(workload, seed, seconds, 1)
    diffs = [name for name, v in first["metrics"].items()
             if name.rsplit(".", 1)[-1] in spans.COUNTERS and second["metrics"][name] != v]
    for d in diffs:
        print(f"counter differs between traced runs: {d}", flush=True)
    return {"runs": [first, second], "counter_differences": diffs}


def q_gaps(seed) -> dict:
    """The rationals task list with the known --field Q gaps appended."""
    child = run.run_child("rationals", workloads.master_seeds("rationals", seed), None,
                           "--with-gaps")
    failed = [t for t in child["tasks"] if t["status"] != "pass"]
    return {"seed": seed, "attempted": len(child["tasks"]), "failed": len(failed),
            "failed_frac": len(failed) / len(child["tasks"]),
            "failures": [{k: t[k] for k in ("task", "status", "note", "wall_s")} for t in failed]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parts", default="e2e,traced,gaps")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    results = {"provenance": run.host_provenance(), "benchmark": bench}
    results["provenance"]["workloads"] = {
        w: {"why": workloads.WHY[w], **workloads.describe(w, TRACED_SEED)}
        for w in workloads.SEEDS_PER_CHILD}
    parts = args.parts.split(",")
    if "e2e" in parts:
        results["end_to_end"] = e2e_sweep(bench, SEEDS)
    traced = {}
    if "traced" in parts:
        traced = {w["name"]: traced_pair(w["name"], TRACED_SEED, seconds)
                  for w in bench["workloads"]}
    if "k3" in parts:
        traced["k3"] = {"runs": [bench_run("k3", TRACED_SEED, 1, 1)]}
    for w, t in traced.items():
        d = t["runs"][0]["diagnostics"]
        base = results.get("end_to_end", {}).get(w, {}).get("stats", {}).get("wall_s", {})
        t["overhead"] = {"traced_wall_s": d["trace_wall_s"],
                         "untraced_wall_s_same_run": d["trace_base_wall_s"],
                         "overhead_s": d["trace_overhead_s"],
                         "untraced_wall_s_sweep_median": base.get("median")}
        print(f"{w}: traced {d['trace_wall_s']:.3f}s, untraced {d['trace_base_wall_s']:.3f}s "
              f"in the same run, overhead {d['trace_overhead_s']:+.3f}s", flush=True)
    results["traced"] = traced
    if "gaps" in parts:
        results["q_gaps"] = q_gaps(TRACED_SEED)
        print(f"rationals with Q gaps: failed_frac {results['q_gaps']['failed_frac']:.3f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
