"""One measured pass over a workload's task list, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seeds 4,5 --t0 T [--trace PATH] [--with-gaps] [--setup-only]

T is the parent's time.monotonic() just before it started this process
(the clock is system-wide), so set-up time includes interpreter start.  The
last line of standard output is one JSON object with the set-up, wall and
CPU time, the peak RSS and one record per task.  With --trace the wrapped
functions' spans are written to PATH.  With --setup-only it stops after
set-up and reports only setup_s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import every module of the package from this checkout's source tree."""
    sys.path.insert(0, str(SRC))
    import entryloci

    if Path(entryloci.__file__).resolve().parent != SRC / "entryloci":
        raise SystemExit(f"entryloci imported from {entryloci.__file__}, not {SRC}")
    for info in pkgutil.walk_packages(entryloci.__path__, "entryloci."):
        importlib.import_module(info.name)


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_check(check_id, field_desc, seed):
    from entryloci.kernel.errors import BudgetExceededError, KernelError
    from entryloci.suite import CHECKS, RunConfig, resolve_field

    tier, fn = next((t, f) for cid, t, f in CHECKS if cid == check_id)
    cfg = RunConfig(field_desc=field_desc, seed=seed)
    budget = cfg.stretch_budget() if tier == "stretch" else cfg.budget()
    field = resolve_field(field_desc, seed)
    note = ""
    try:
        expected, computed, ok = fn(field, seed, budget)
        status = "pass" if ok and computed == expected else "fail"
    except BudgetExceededError as err:
        expected, computed, status, note = None, None, "budget-exceeded", str(err)
    except KernelError as err:
        expected, computed, status, note = None, None, "error", str(err)
    record = {"check_id": check_id, "seed": seed, "field": field.describe(), "status": status,
              "expected": expected, "computed": computed, "note": note}
    return status, note, _digest(record)


def _lookup(report, key):
    for part in key.split("."):
        report = report.get(part) if isinstance(report, dict) else None
    return report


def _run_cli(argv, expected):
    from entryloci.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        status = "budget-exceeded" if rc == 3 else "error"
        return status, err.getvalue().strip(), _digest({"rc": rc, "stderr": err.getvalue()})
    report = json.loads(out.getvalue())
    report.pop("timings", None)
    wrong = {k: _lookup(report, k) for k, v in expected.items() if _lookup(report, k) != v}
    note = f"expected {expected}, got {wrong}" if wrong else ""
    return ("fail" if wrong else "pass"), note, _digest(report)


def _run_task(task):
    if task[0] == "check":
        return _run_check(*task[1:])
    return _run_cli(*task[1:])


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated master seeds")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans here")
    ap.add_argument("--with-gaps", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    seeds = [int(s) for s in args.seeds.split(",")]
    task_list = workloads.tasks(args.workload, seeds, with_gaps=args.with_gaps)

    _import_program()
    tracer = None
    result = {}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        result["binding_problems"] = tracer.binding_problems(installed=True)

    from entryloci.kernel.groebner import Budget
    from entryloci.catalog import build_catalog_variety
    from entryloci.suite import resolve_field

    for key, seed, field_desc in workloads.setup_inputs(args.workload, seeds):
        build_catalog_variety(key, seed, resolve_field(field_desc, seed), Budget())

    w0, c0 = time.monotonic(), _cpu()
    setup_s = w0 - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    records = []
    for task in task_list:
        t = time.monotonic()
        status, note, digest = _run_task(task)
        records.append({"task": workloads.task_name(task), "status": status, "note": note,
                        "sha256": digest, "wall_s": time.monotonic() - t})
    wall_s, cpu_s = time.monotonic() - w0, _cpu() - c0

    if tracer is not None:
        tracer.restore()
        result["binding_problems"] += tracer.binding_problems(installed=False)
        tracer.write(args.trace)
    result.update({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": records,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
