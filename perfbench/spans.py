"""Spans recorded from outside the program.

`Tracer.install` replaces each function in TARGETS at every module binding
that holds it (modules import these functions by name) and wraps
`Budget.fresh`, so the S-pair and reduction counts of each `_Meter` can be
credited to the innermost open span.  `Tracer.restore` puts every original
back.  Field arithmetic is never wrapped.

A span is [name, parent index, start, end, pairs, reductions, cells], kept
in memory and written as one JSON list per line when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

TARGETS = {
    "kernel.groebner": ("buchberger", "normal_form"),
    "kernel.ideals": ("groebner_basis", "eliminate", "saturate_wrt_variable",
                      "in_irrelevant_saturation", "radical_membership"),
    "kernel.linalg": ("rref",),
    "kernel.factor": ("absolute_factor_count", "bivariate_gcd", "squarefree_part"),
    "kernel.zerodim": ("minimal_polynomial_of", "count_distinct_points",
                       "enumerate_points_prime_field"),
    "kernel.hilbert": ("hilbert_invariants",),
    "geometry": ("reduced_dim_degree", "span_form_rows", "witness_points", "project_image"),
    "rank_secant": ("secant_dims", "two_decompositions"),
    "entry_locus": ("classify_entry_locus", "entry_locus_ideal", "irrelevant_saturate",
                    "component_count", "plane_model", "type_ab_test"),
    "segre": ("is_segre_point", "segre_count_elliptic_quartic", "pair_segre_test"),
    "catalog": ("build_catalog_variety",),
}
PACKAGE = "entryloci"
BUCHBERGER = "kernel.groebner.buchberger"
GROEBNER_BASIS = "kernel.ideals.groebner_basis"
RREF = "kernel.linalg.rref"

# per-layer metrics: (function, field) pairs exported by the benchmark
_FIELDS = {
    BUCHBERGER: ("calls", "self_s", "pairs", "reductions"),
    "kernel.groebner.normal_form": ("calls", "self_s"),
    GROEBNER_BASIS: ("calls", "hit_ratio"),
    RREF: ("calls", "self_s", "cells", "max_cells"),
    "kernel.zerodim": ("calls", "self_s"),
    "kernel.hilbert": ("calls", "self_s"),
    "geometry": ("total_s",),
}
COUNTERS = ("calls", "pairs", "reductions", "cells", "max_cells", "hit_ratio")
UNITS = {"calls": "count", "pairs": "count", "reductions": "count", "cells": "count",
         "max_cells": "count", "hit_ratio": "ratio", "self_s": "s", "total_s": "s"}


def labels():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def exported_fields(label: str):
    """Fields the benchmark reports for one wrapped function."""
    mod = label.rsplit(".", 1)[0]
    return _FIELDS.get(label) or _FIELDS.get(mod) or ("calls", "total_s")


def layer_metric_units() -> dict:
    """Name -> unit of every per-layer metric a traced run reports."""
    out = {}
    for label in labels():
        for f in exported_fields(label):
            out[f"{label}.{f}"] = UNITS[f]
    for mod in TARGETS:
        out[f"layer.{mod}.self_s"] = "s"
    return out


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._meters = []  # (span index, _Meter)
        self._saved = []  # (owner, attribute, original)
        self._wrappers = {}  # id(wrapper) -> label
        self._originals = {}  # id(original) -> (label, original)

    def _find_originals(self):
        out = {}
        for mod, fns in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for fn in fns:
                out[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        return out

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_rref = label == RREF

        def wrapper(*args, **kwargs):
            cells = 0
            if is_rref:
                rows = args[0] if isinstance(args[0], list) else list(args[0])
                args = (rows,) + args[1:]
                cells = len(rows) * len(rows[0]) if rows else 0
            rec = [label, stack[-1] if stack else -1, 0.0, 0.0, 0, 0, cells]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        self._wrappers[id(wrapper)] = label
        return wrapper

    def install(self):
        self._originals = originals = self._find_originals()
        wrappers = {}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None:
                    continue
                label = hit[0]
                if label not in wrappers:
                    wrappers[label] = self._wrap(label, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[label])
        budget_cls = importlib.import_module(f"{PACKAGE}.kernel.groebner").Budget
        fresh = vars(budget_cls)["fresh"]
        meters, stack = self._meters, self._stack

        def fresh_wrapper(budget):
            meter = fresh(budget)
            meters.append((stack[-1] if stack else -1, meter))
            return meter

        self._saved.append((budget_cls, "fresh", fresh))
        budget_cls.fresh = fresh_wrapper
        self._wrappers[id(fresh_wrapper)] = "Budget.fresh"

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def binding_problems(self, installed: bool) -> list:
        """Bindings that are wrong for the current state: an original left in
        place while installed, or a wrapper left behind after restore."""
        problems, wrapped = [], set()
        for module in package_modules():
            for attr, value in vars(module).items():
                where = f"{module.__name__}.{attr}"
                if installed and id(value) in self._originals:
                    problems.append(f"unwrapped binding {where}")
                if id(value) in self._wrappers:
                    wrapped.add(self._wrappers[id(value)])
                    if not installed:
                        problems.append(f"wrapper left at {where}")
        budget_cls = importlib.import_module(f"{PACKAGE}.kernel.groebner").Budget
        fresh_wrapped = id(vars(budget_cls)["fresh"]) in self._wrappers
        if installed:
            problems += [f"no binding wrapped for {lb}" for lb in labels() if lb not in wrapped]
            if not fresh_wrapped:
                problems.append("Budget.fresh not wrapped")
        elif fresh_wrapped:
            problems.append("wrapper left at Budget.fresh")
        return problems

    def write(self, path):
        for idx, meter in self._meters:
            if idx >= 0:
                self.spans[idx][4] += meter.pairs
                self.spans[idx][5] += meter.reductions
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans) -> dict:
    """Per-function calls, total, self time and counters from one span list.

    total_s counts a span only when no ancestor has the same name, so
    recursion is not counted twice; self_s subtracts direct child spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    ran_buchberger = [False] * n
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == BUCHBERGER:
                ran_buchberger[parent] = True
    stats = {lb: dict.fromkeys(("calls", "total_s", "self_s", "pairs", "reductions",
                                "cells", "max_cells", "hits"), 0) for lb in labels()}
    for i, (name, parent, start, end, pairs, reductions, cells) in enumerate(spans):
        st = stats[name]
        dur = end - start
        st["calls"] += 1
        st["self_s"] += dur - child_time[i]
        st["pairs"] += pairs
        st["reductions"] += reductions
        st["cells"] += cells
        st["max_cells"] = max(st["max_cells"], cells)
        if name == GROEBNER_BASIS and not ran_buchberger[i]:
            st["hits"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            st["total_s"] += dur
    for st in stats.values():
        st["hit_ratio"] = st["hits"] / st["calls"] if st["calls"] else 0.0
    return stats


def layer_metrics(aggs: list) -> dict:
    """Per-layer metric values from the aggregates of a run's traced children.

    Times are medians over children; counters come from the first child
    (counter_differences checks that the others agree).
    """
    out = {}
    for label in labels():
        for f in exported_fields(label):
            vals = [a[label][f] for a in aggs]
            out[f"{label}.{f}"] = vals[0] if f in COUNTERS else statistics.median(vals)
    for mod in TARGETS:
        per_child = [sum(a[lb]["self_s"] for lb in a if lb.startswith(mod + ".")) for a in aggs]
        out[f"layer.{mod}.self_s"] = statistics.median(per_child)
    return out


def counter_differences(aggs: list) -> list:
    """Counters that differ between traced children of one seed, by metric name."""
    diffs = []
    for label in labels():
        for f in COUNTERS:
            vals = [a[label][f] for a in aggs]
            if any(v != vals[0] for v in vals):
                diffs.append(f"{label}.{f}: {vals}")
    return diffs
