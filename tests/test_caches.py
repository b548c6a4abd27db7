"""The process-wide caches (Groebner bases, catalog varieties with the
reports kept on them, monomial code tables) change no answer: a warm process gives the
same exit code, stderr and timing-stripped report as a cold one, and a kept
variety keeps the limits it was built under and is never changed."""

import contextlib
import io
import json

import pytest

from entryloci import catalog, suite
from entryloci.catalog import build_catalog_variety, catalog_keys
from entryloci.cli import main
from entryloci.kernel import QQ, BudgetExceededError, PrimeField, RingContext, groebner, ideals

COMMANDS = ("entry-locus", "secant-dims", "decomp")
FIELDS = ("fp:auto", "Q")
MATRIX = [(key, cmd, field) for key in catalog_keys() for cmd in COMMANDS for field in FIELDS]

# the cases that exit 1 at seed 1: a generic rank other than 2, and witness
# sampling over Q
OUT_OF_SCOPE = {"rnc4", "rnc5", "rnc6", "veronese5"}
NO_Q_WITNESSES = {"elliptic4", "delpezzo4", "k3_23"}


def _expected_exit(key, cmd, field):
    if cmd == "entry-locus" and key in OUT_OF_SCOPE:
        return 1
    if field == "Q" and cmd != "decomp" and key in NO_Q_WITNESSES:
        return 1
    return 0


def _run(key, cmd, field):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([cmd, "--variety", key, "--seed", "1", "--field", field])
    report = None
    if out.getvalue():
        report = json.loads(out.getvalue())
        report.pop("timings", None)
    return rc, err.getvalue(), report


def _cold(monkeypatch):
    for module, name in ((ideals, "_GB_CACHE"), (catalog, "_VARIETY_CACHE"),
                         (groebner, "_CODE_TABLES")):
        monkeypatch.setattr(module, name, {})


def test_cli_matrix_is_cache_independent(monkeypatch):
    _cold(monkeypatch)
    cold = {case: _run(*case) for case in MATRIX}
    warm = {case: _run(*case) for case in reversed(MATRIX)}
    assert [case for case in MATRIX if warm[case] != cold[case]] == []
    codes = {case: cold[case][0] for case in MATRIX}
    assert codes == {case: _expected_exit(*case) for case in MATRIX}
    assert list(codes.values()).count(0) == 58


def test_kept_variety_keeps_its_limits(monkeypatch):
    _cold(monkeypatch)
    field = PrimeField(2147483659)
    with pytest.raises(BudgetExceededError):
        build_catalog_variety("veronese_proj4", 1, field, groebner.Budget(max_pairs=1))
    var = build_catalog_variety("veronese_proj4", 1, field)
    with pytest.raises(BudgetExceededError):
        build_catalog_variety("veronese_proj4", 1, field, groebner.Budget(max_pairs=1))
    assert build_catalog_variety("veronese_proj4", 1, field) is var


def _same_variety(a, b):
    return (
        a.ambient == b.ambient
        and a.ideal == b.ideal
        and a.meta == b.meta
        and (a.param is None) == (b.param is None)
        and (a.param is None or (a.param.ring == b.param.ring and a.param.forms == b.param.forms))
    )


def test_suite_leaves_kept_varieties_unchanged(monkeypatch):
    _cold(monkeypatch)
    suite.run_suite(suite.RunConfig(seed=1))
    kept = dict(catalog._VARIETY_CACHE)
    assert len(kept) >= 8
    monkeypatch.setattr(catalog, "_VARIETY_CACHE", {})
    for (key, seed, field, limits), var in kept.items():
        fresh = build_catalog_variety(key, seed, field, groebner.Budget(*limits))
        assert fresh is not var and _same_variety(var, fresh), key


def test_bases_share_prepared_divisors_and_code_tables(monkeypatch):
    _cold(monkeypatch)
    var = build_catalog_variety("scroll12", 1, QQ)
    gb = ideals.groebner_basis(var.ideal)
    again = ideals.groebner_basis(var.ideal)
    assert again.divisors is gb.divisors and again.ring is gb.ring
    assert gb.divisors.basis == groebner.Divisors(gb.basis, gb.ring).basis
    assert gb.divisors.codes is groebner._code_table(gb.ring.order, gb.ring.nvars)
    assert var.ring.with_order(var.ring.order) is var.ring


def test_classified_keeps_one_report_on_the_kept_variety(monkeypatch):
    _cold(monkeypatch)
    field = suite.resolve_field("fp:auto", 1)
    var, rep = suite.classified("scroll12", 1, field)
    again, rep_again = suite.classified("scroll12", 1, field)
    assert again is var and rep_again is rep
    assert var.reports == {3: rep}


def test_classification_that_raises_keeps_nothing(monkeypatch):
    # three S-pairs per Groebner run build scroll12 but do not classify it
    _cold(monkeypatch)
    field = suite.resolve_field("fp:auto", 1)
    tight = groebner.Budget(max_pairs=3)
    var = build_catalog_variety("scroll12", 1, field, tight)
    with pytest.raises(BudgetExceededError), groebner.limits(tight):
        suite.classified("scroll12", 1, field)
    assert var.reports == {}
    kept, rep = suite.classified("scroll12", 1, field)
    assert kept is not var and kept.reports == {3: rep} and var.reports == {}


def _twisted_cubic(field):
    ring = RingContext(("x0", "x1", "x2", "x3"), field)
    gens = ("x1^2 - x0*x2", "x1*x2 - x0*x3", "x2^2 - x1*x3")
    return ideals.Ideal.of(ring, [ring.from_string(g) for g in gens])


def test_a_kept_basis_is_one_object_per_limits(monkeypatch):
    _cold(monkeypatch)
    ideal = _twisted_cubic(QQ)
    point = ideals.Ideal.of(ideal.ring, list(ideal.gens) + [ideal.ring.from_string(g) for g in ("x0 - x3", "x3")])
    gb = ideals.groebner_basis(point)
    assert ideals.groebner_basis(point) is gb and gb.staircase
    with groebner.limits(groebner.Budget(max_pairs=10**6)):
        other = ideals.groebner_basis(point)
    assert other is not gb and other == gb
    # the staircase is walked once per kept basis
    assert ideals.groebner_basis(point).staircase is gb.staircase
    assert other.staircase is not gb.staircase and other.staircase == gb.staircase


def _counting_buchberger(monkeypatch):
    calls = []
    real = ideals.buchberger

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ideals, "buchberger", counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda ideal: ideals.saturate_wrt_variable(ideal, 0),
    lambda ideal: ideals.radical_membership(ideal.ring.from_string("x1*x3 - x2^2"), ideal),
], ids=["saturate_wrt_variable", "radical_membership"])
def test_saturation_and_radical_membership_keep_their_bases(monkeypatch, run):
    _cold(monkeypatch)
    ideal = _twisted_cubic(PrimeField(32003))
    calls = _counting_buchberger(monkeypatch)
    with pytest.raises(BudgetExceededError), groebner.limits(groebner.Budget(max_pairs=1)):
        run(ideal)
    assert ideals._GB_CACHE == {}
    first = run(ideal)
    ran = len(calls)
    assert ran >= 1 and run(ideal) == first and len(calls) == ran
