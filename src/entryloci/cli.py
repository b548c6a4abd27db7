"""Command line surface: catalog listing, Groebner bases, entry-locus reports,
secant profiles, decompositions, Segre counts and the verification suite.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 budget
exhausted.  Reports are deterministic for a fixed configuration once timing
fields are stripped.

A variety file's field is the run's field: an explicit --field must name the
same field, and its prime, like any --field prime, must be at least 2^16.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import build_catalog_variety, catalog_keys, catalog_metadata
from .entry_locus import classify_entry_locus
from .geometry import random_point
from .kernel.errors import BudgetExceededError, CoefficientError, KernelError, ParseError
from .kernel.groebner import Budget, limits
from .kernel.ideals import groebner_basis
from .kernel.orders import order_from_name
from .kernel.rng import seeded_rng
from .rank_secant import secant_dims, two_decompositions
from .segre import pair_segre_test, segre_count_elliptic_quartic
from .suite import RunConfig, resolve_field, run_suite
from .varfile import read_variety_file

USAGE_ERROR = 2
CHECK_FAILED = 1
BUDGET_EXHAUSTED = 3


def _is_file(target: str) -> bool:
    return os.path.exists(target) or target.endswith(".var") or "/" in target


def _run_field(args):
    """The run's field and the variety files the command names: the field
    named by every file and by an explicit --field, which must agree, else
    fp:auto.  Raises CoefficientError for a usage error."""
    targets = [getattr(args, k) for k in ("variety", "curve", "y", "t") if hasattr(args, k)]
    files = {t: read_variety_file(t) for t in targets if _is_file(t)}
    named = [v.field.describe() for v in files.values()] + ([args.field] if args.field else [])
    # resolving a file's descriptor applies the --field prime bound to it
    fields = {resolve_field(desc, args.seed) for desc in named or ["fp:auto"]}
    if len(fields) > 1:
        raise CoefficientError(f"fields {', '.join(named)} differ; a variety file fixes the run's field")
    return fields.pop(), files


def _emit(data, out_path):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument("--field", default=None,
                       help="Q, fp:<p>, or fp:auto (default: a variety file's field, else fp:auto)")
    parser.add_argument("--max-pairs", type=int, default=200_000, help="Groebner S-pair budget")
    parser.add_argument("--time-limit", type=float, default=None,
                       help="wall-clock seconds per Groebner run")
    parser.add_argument("--out", default=None, help="write the JSON report here as well")


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(prog="el", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list catalog varieties")

    gb = sub.add_parser("gb", help="reduced Groebner basis of a variety file's ideal")
    gb.add_argument("--input", required=True, help="variety file")
    gb.add_argument("--order", default="grevlex", help="grevlex | lex | block:k")
    gb.add_argument("--max-pairs", type=int, default=200_000)
    gb.add_argument("--out", default=None)

    el = sub.add_parser("entry-locus", help="classify the entry locus of a variety")
    el.add_argument("--variety", required=True, help="catalog key or variety file")
    _add_common(el)

    sd = sub.add_parser("secant-dims", help="secant dimension profile")
    sd.add_argument("--variety", required=True)
    sd.add_argument("--max-s", type=int, default=2)
    _add_common(sd)

    dc = sub.add_parser("decomp", help="length-2 decompositions of a seeded general point")
    dc.add_argument("--variety", required=True)
    _add_common(dc)

    sg = sub.add_parser("segre", help="quadric-cone count for a quartic curve in P^3")
    sg.add_argument("--curve", required=True)
    _add_common(sg)

    ps = sub.add_parser("pair-segre", help="shared-projection test for two curves")
    ps.add_argument("--y", required=True)
    ps.add_argument("--t", required=True)
    _add_common(ps)

    vf = sub.add_parser("verify", help="run the verification suite")
    _add_common(vf)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # the command's Groebner limits, set once for all of it
    budget = Budget(max_pairs=getattr(args, "max_pairs", Budget.max_pairs),
                    max_seconds=getattr(args, "time_limit", None))
    try:
        with limits(budget):
            return _dispatch(args)
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return BUDGET_EXHAUSTED
    except (ParseError, FileNotFoundError, KeyError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except KernelError as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return CHECK_FAILED


def _dispatch(args) -> int:
    if args.command == "catalog":
        rows = []
        for key in catalog_keys():
            meta = catalog_metadata(key)
            rows.append({"key": key, **meta})
        _emit(rows, None)
        return 0

    if args.command == "gb":
        var = read_variety_file(args.input)
        try:
            order = order_from_name(args.order, var.ring.nvars)
        except ValueError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return USAGE_ERROR
        gb = groebner_basis(var.ideal, order)
        data = {
            "order": args.order,
            "basis": [g.to_string() for g in gb.basis],
            "field": var.field.describe(),
        }
        _emit(data, args.out)
        return 0

    try:
        field, files = _run_field(args)
    except CoefficientError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR

    def _load_variety(target):
        return files[target] if target in files else build_catalog_variety(target, args.seed, field)

    if args.command == "entry-locus":
        var = _load_variety(args.variety)
        rep = classify_entry_locus(var, args.seed)
        _emit(rep.as_dict(), args.out)
        return 0

    if args.command == "secant-dims":
        var = _load_variety(args.variety)
        prof = secant_dims(var, args.max_s, seed=args.seed)
        data = {"variety": args.variety, "field": field.describe(), **prof.as_dict()}
        _emit(data, args.out)
        return 0

    if args.command == "decomp":
        var = _load_variety(args.variety)
        rng = seeded_rng(("cli-decomp", args.seed))
        q = random_point(field, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
        ds = two_decompositions(var, q, seed=args.seed)
        data = {
            "variety": args.variety,
            "field": field.describe(),
            "q": [str(c) for c in q.coords],
            **ds.as_dict(),
        }
        _emit(data, args.out)
        return 0

    if args.command == "segre":
        var = _load_variety(args.curve)
        count, vertices = segre_count_elliptic_quartic(var, args.seed)
        data = {
            "curve": args.curve,
            "field": field.describe(),
            "count": count,
            "vertices": None
            if vertices is None
            else [[str(c) for c in v.coords] for v in vertices],
        }
        _emit(data, args.out)
        return 0

    if args.command == "pair-segre":
        y = _load_variety(args.y)
        t = _load_variety(args.t)
        rng = seeded_rng(("cli-pair", args.seed))
        o = random_point(field, rng, y.ambient + 1)
        verdict = pair_segre_test(y, t, o)
        _emit(
            {
                "y": args.y,
                "t": args.t,
                "o": [str(c) for c in o.coords],
                "verdict": verdict,
                "field": field.describe(),
            },
            args.out,
        )
        return 0

    if args.command == "verify":
        cfg = RunConfig(
            field_desc=args.field or "fp:auto",
            seed=args.seed,
            max_pairs=args.max_pairs,
            max_seconds=args.time_limit,
        )
        report = run_suite(cfg)
        _emit(report.as_dict(), args.out)
        summary = report.summary
        for cid, status in sorted(summary["checks"].items()):
            print(f"{cid}: {status}", file=sys.stderr)
        if summary["failed"]:
            return BUDGET_EXHAUSTED if summary.get("budget_exceeded") else CHECK_FAILED
        return 0

    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
