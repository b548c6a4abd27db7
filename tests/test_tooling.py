"""Guards for the traced benchmark in perfbench/, which wraps package
functions by name from outside: a rename or move in the package must fail
here instead of breaking the traced runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

from entryloci.kernel.groebner import Budget

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    # read-only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = []
    for mod, fns in spans.TARGETS.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{mod}")
        missing += [f"{mod}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert missing == []
    assert callable(vars(Budget).get("fresh"))
