"""Checks 02 and 04 decide their claims on the saturated entry locus.  The
sampled routes they replaced (rational points of a random slice, and point
counts plus radical membership on a common slice) are kept here as oracles
on the seeds where they run.  The split quartic of check 04 and the secant
pair of check 07 are constructed, and tested here against the catalog's
quartic checks and the decompositions found.  The runner and `el verify`
are tested on stub checks."""

import json

import pytest

from entryloci import cli, suite
from entryloci.catalog import _sanity_check, build_catalog_variety
from entryloci.geometry import ProjectivePoint, ambient_ring, count_on_slice, zero_dim_slice
from entryloci.kernel import (
    QQ,
    Budget,
    BudgetExceededError,
    CoefficientError,
    Ideal,
    KernelError,
    PrimeField,
    RingContext,
    groebner_basis,
    ideal_contains,
    limits,
    radical_membership,
)
from entryloci.kernel.linalg import mat_inverse, rank
from entryloci.kernel.rng import random_coords, seeded_rng
from entryloci.kernel.zerodim import enumerate_points_prime_field, random_linear_combination
from entryloci.rank_secant import two_decompositions
from entryloci.segre import pencil_vertices, quadric_pencil

FP = PrimeField(2147483659)
def classified(key, seed):
    return suite.classified(key, seed, suite.resolve_field("fp:auto", seed))


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "Q"])
@pytest.mark.parametrize(
    "gens,cone",
    [
        (("x0", "x1", "x2*x3"), True),  # two lines through e_4
        (("x0", "x1", "x2*x4"), False),  # the line x4 = 0 misses e_4
        (("x0", "x1", "x2*x4^2"), False),  # the same lines: only the 2nd derivative tells
        (("x0", "x1", "x2^2", "x2*x4"), True),  # one line through e_4, with an embedded point
    ],
)
def test_is_cone_with_vertex(field, gens, cone):
    ring = ambient_ring(4, field)
    ideal = Ideal.of(ring, [ring.from_string(g) for g in gens])
    assert suite.is_cone_with_vertex(ideal, 4) is cone


def test_set_level_cone_despite_x4_in_the_ideal():
    # the d/dx4 of x2*x4 is x2: in the radical, not in the ideal
    ring = ambient_ring(4, FP)
    ideal = Ideal.of(ring, [ring.from_string(g) for g in ("x0", "x1", "x2^2", "x2*x4")])
    x2 = Ideal.of(ring, [ring.from_string("x2")])
    assert not ideal_contains(groebner_basis(ideal), x2)
    assert suite.is_cone_with_vertex(ideal, 4)


def _lines_to_vertex_on_slice(locus, seed):
    """The former check-02 route: the rational points of one random slice
    number 2 and each spans a line with e_4 inside V(locus); None when the
    slice points are not all rational."""
    field = locus.ring.field
    rng = seeded_rng(("cone-slice", seed, 0))
    cut = zero_dim_slice(locus, 1, rng)
    raw = cut and enumerate_points_prime_field(cut[0], rng, require_all=True)
    if not raw:
        return None
    pts = [ProjectivePoint.make(field, cut[1](v)) for v in raw]
    lring = RingContext(("l0", "l1"), field)
    l0, l1 = lring.gens()
    vertex = (field.zero,) * 4 + (field.one,)

    def line_inside(b):
        images = [l0.scale(a) + l1.scale(c) for a, c in zip(vertex, b)]
        return all(g.substitute(images, lring).is_zero() for g in locus.gens)

    return len(pts) == 2 and all(line_inside(p.coords) for p in pts)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cone_test_matches_slice_lines(seed):
    _, rep = classified("cone_twisted_cubic", seed)
    assert _lines_to_vertex_on_slice(rep.locus, seed) is True
    assert suite.is_cone_with_vertex(rep.locus, 4) is True


def _matches_on_common_slice(var, locus, row, seed):
    """The former check-04 route: locus and X + (h) have 4 points each on a
    common random hyperplane, and each set of generators lies in the
    radical of the other's slice."""
    section = Ideal.of(var.ring, list(var.ideal.gens) + [var.ring.linear_form(row)])
    rng = seeded_rng(("dp-slice", seed))
    extra = random_linear_combination(var.ring, rng)
    a_sl = Ideal.of(var.ring, list(locus.gens) + [extra])
    b_sl = Ideal.of(var.ring, list(section.gens) + [extra])
    counts = (count_on_slice(a_sl, 0, rng), count_on_slice(b_sl, 0, rng))
    mutual = all(radical_membership(g, b_sl) for g in locus.gens) and all(
        radical_membership(g, a_sl) for g in section.gens
    )
    return counts == (4, 4) and mutual


@pytest.mark.parametrize("seed", [1, 2])
def test_hyperplane_section_matches_common_slice(seed):
    var, rep = classified("delpezzo4", seed)
    (row,) = rep.span_rows
    other = [var.field.coerce(c) for c in (1, 2, 3, 4, 5)]
    for h, expected in ((row, True), (other, False)):
        assert _matches_on_common_slice(var, rep.locus, h, seed) is expected
        assert suite.is_hyperplane_section(var, rep.locus, h) is expected


@pytest.mark.parametrize("seed", [1, 2])
def test_check_cone_decides_over_q(seed):
    expected, computed, ok = suite.check_cone(QQ, seed)
    assert ok and computed == expected


@pytest.mark.parametrize(
    "tight", [Budget(max_reductions=1), Budget(max_seconds=0.0)], ids=["reductions", "seconds"]
)
def test_classify_cache_keys_on_every_budget_limit(tight):
    field = suite.resolve_field("fp:auto", 1)
    with limits(Budget()):
        suite.classified("scroll12", 1, field)
    with pytest.raises(BudgetExceededError), limits(tight):
        suite.classified("scroll12", 1, field)


def test_check_03_over_q_is_a_kernel_error():
    # the runner records a KernelError as "error"; a ValueError ended `el verify --field Q`
    fn = {cid: fn for cid, _, fn in suite.CHECKS}["03_veronese_projection_three_conics"]
    with pytest.raises(KernelError, match="prime field"):
        fn(QQ, 1, suite.RunConfig().budget())


def test_resolve_field_is_memoized_per_descriptor_and_seed():
    assert suite.resolve_field("fp:auto", 1) is suite.resolve_field("fp:auto", 1)
    assert suite.resolve_field("fp:auto", 1) != suite.resolve_field("fp:auto", 2)
    for _ in range(2):
        with pytest.raises(CoefficientError):
            suite.resolve_field("fp:3", 1)


def test_checks_entry_applies_the_budget_it_is_given():
    # perfbench/child.py calls each CHECKS entry as fn(field, seed, budget)
    field = suite.resolve_field("fp:auto", 1)
    fn = {cid: fn for cid, _, fn in suite.CHECKS}["01_scroll_minimal_degree"]
    assert fn(field, 1, suite.RunConfig().budget())[2]
    with pytest.raises(BudgetExceededError):
        fn(field, 1, Budget(max_pairs=1))


def test_catalog_build_applies_the_budget_it_is_given():
    field = suite.resolve_field("fp:auto", 1)
    build_catalog_variety("veronese_proj4", 1, field)
    with pytest.raises(BudgetExceededError):
        build_catalog_variety("veronese_proj4", 1, field, Budget(max_pairs=5))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_split_quartic_is_a_catalog_quartic_with_vertices_on_the_frame(seed):
    field = suite.resolve_field("fp:auto", seed)
    curve, move = suite.split_elliptic_quartic(field, seed)
    _sanity_check(curve, "elliptic4", seeded_rng(("split-sanity", seed)))
    vertices = pencil_vertices(quadric_pencil(curve), seeded_rng(("vertices", seed)))
    frame = mat_inverse(move, field)
    columns = {ProjectivePoint.make(field, col).coords for col in zip(*frame)}
    assert vertices is not None and {v.coords for v in vertices} == columns


@pytest.mark.parametrize("field_desc", ["fp:auto", "Q"])
@pytest.mark.parametrize("seed", [1, 2])
def test_rnc3_check_decomposes_its_constructed_pair(monkeypatch, field_desc, seed):
    calls = []

    def recording(var, q, seed):
        ds = two_decompositions(var, q, seed=seed)
        calls.append((var, q, ds))
        return ds

    monkeypatch.setattr(suite, "two_decompositions", recording)
    _, _, ok = suite.check_rnc3_identifiability(suite.resolve_field(field_desc, seed), seed)
    assert ok
    var, q, ds = calls[0]
    field = var.field
    assert field.describe() == suite.resolve_field("fp:auto", seed).describe()
    # the pair the check draws: two points of the parametrization
    rng = seeded_rng(("rnc3-pair", seed))
    a, b = (ProjectivePoint.make(field, var.param.evaluate(random_coords(field, rng, 2))) for _ in range(2))
    assert rank([a.coords, b.coords, q.coords], field) == 2 and not var.contains_point(q)
    assert ds.count == 1 and {p.coords for p in ds.pairs[0]} == {a.coords, b.coords}


def _passes_except_seed_3(field, seed, budget):
    return {"v": 1}, {"v": 1 if seed != 3 else 0}, seed != 3


def _fails(field, seed, budget):
    return {"v": 1}, {"v": 0}, False


def _blows_budget(field, seed, budget):
    raise BudgetExceededError("stub", "over budget")


STUBS = {
    "a_four_of_five": ("stub claim a", _passes_except_seed_3),
    "b_fails": ("stub claim b", _fails),
    "c_budget": ("stub claim c", _blows_budget),
}


def _stub_checks(*ids):
    return [(cid, *STUBS[cid]) for cid in ids]


def test_run_suite_aggregates_four_of_five(monkeypatch):
    monkeypatch.setattr(suite, "CHECKS", _stub_checks(*STUBS))
    report = suite.run_suite(suite.RunConfig(seed=1))
    statuses = {(r.check_id, r.seed): r.status for r in report.records}
    assert statuses[("a_four_of_five", 3)] == "fail"
    assert [statuses[("a_four_of_five", s)] for s in (1, 2, 4, 5)] == ["pass"] * 4
    assert {statuses[("c_budget", s)] for s in range(1, 6)} == {"budget-exceeded"}
    assert "skipped" not in statuses.values()
    assert report.records[0].claim == "stub claim a"
    summary = report.summary
    assert summary["checks"] == {"a_four_of_five": "pass", "b_fails": "fail", "c_budget": "fail"}
    assert (summary["passed"], summary["failed"], summary["budget_exceeded"]) == (1, 2, True)
    assert set(summary) == {"checks", "passed", "failed", "budget_exceeded", "total_time_s"}
    assert report.config == {"field": "fp:auto", "seed": 1, "max_pairs": 200_000}


@pytest.mark.parametrize(
    "ids,code",
    [(("a_four_of_five",), 0), (("a_four_of_five", "b_fails"), 1), (("a_four_of_five", "c_budget"), 3)],
)
def test_verify_exit_codes(monkeypatch, capsys, ids, code):
    monkeypatch.setattr(suite, "CHECKS", _stub_checks(*ids))
    assert cli.main(["verify"]) == code
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["summary"]["checks"]) == sorted(ids)
