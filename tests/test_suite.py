"""Checks 02 and 04 decide their claims on the saturated entry locus.  The
sampled routes they replaced (rational points of a random slice, and point
counts plus radical membership on a common slice) are kept here as oracles
on the seeds where they run.  So is the former candidate search of check
04's vertex round trip, which ran the full Segre count on every candidate
before it learnt whether the pencil splits."""

import pytest

from entryloci import suite
from entryloci.catalog import build_catalog_variety
from entryloci.geometry import ProjectivePoint, ambient_ring, count_on_slice, zero_dim_slice
from entryloci.kernel import (
    QQ,
    Budget,
    BudgetExceededError,
    DegenerateInputError,
    Ideal,
    PrimeField,
    RingContext,
    groebner_basis,
    ideal_contains,
    radical_membership,
)
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.zerodim import enumerate_points_prime_field, random_linear_combination
from entryloci.segre import segre_count_elliptic_quartic

FP = PrimeField(2147483659)
BUDGET = suite.RunConfig().budget()


def classified(key, seed):
    return suite.classified(key, seed, suite.resolve_field("fp:auto", seed), BUDGET)


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
    cut = zero_dim_slice(locus, 1, rng, None)
    raw = cut and enumerate_points_prime_field(cut[0], rng, None, require_all=True)
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
    assert suite.is_cone_with_vertex(rep.locus, 4, BUDGET) is True


def _matches_on_common_slice(var, locus, row, seed):
    """The former check-04 route: locus and X + (h) have 4 points each on a
    common random hyperplane, and each set of generators lies in the
    radical of the other's slice."""
    section = Ideal.of(var.ring, list(var.ideal.gens) + [var.ring.linear_form(row)])
    rng = seeded_rng(("dp-slice", seed))
    extra = random_linear_combination(var.ring, rng)
    a_sl = Ideal.of(var.ring, list(locus.gens) + [extra])
    b_sl = Ideal.of(var.ring, list(section.gens) + [extra])
    counts = (count_on_slice(a_sl, 0, rng, None), count_on_slice(b_sl, 0, rng, None))
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
        assert suite.is_hyperplane_section(var, rep.locus, h, BUDGET) is expected


@pytest.mark.parametrize("seed", [1, 2])
def test_check_cone_decides_over_q(seed):
    expected, computed, ok = suite.check_cone(QQ, seed, BUDGET)
    assert ok and computed == expected


@pytest.mark.parametrize(
    "tight", [Budget(max_reductions=1), Budget(max_seconds=0.0)], ids=["reductions", "seconds"]
)
def test_classify_cache_keys_on_every_budget_limit(tight):
    field = suite.resolve_field("fp:auto", 1)
    suite.classified("scroll12", 1, field, Budget())
    with pytest.raises(BudgetExceededError):
        suite.classified("scroll12", 1, field, tight)


def _ref_split_candidate(seed):
    """The former search: the first (prime, sub-seed) whose full Segre count
    finds 4 cones with vertices over the prime field."""
    for _, p in zip(range(150), suite.prime_stream(suite.derive_seed("vertices", seed))):
        field = PrimeField(p)
        for sub_seed in (seed, seed + 101):
            try:
                curve = build_catalog_variety("elliptic4", sub_seed, field, BUDGET)
                count, vertices = segre_count_elliptic_quartic(curve, sub_seed, BUDGET)
            except (DegenerateInputError, BudgetExceededError):
                continue
            if count == 4 and vertices is not None:
                return p, sub_seed
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_vertex_roundtrip_counts_only_the_split_candidate(monkeypatch, seed):
    calls = []

    def counting(curve, sub_seed, budget):
        calls.append((curve.field.p, sub_seed))
        return segre_count_elliptic_quartic(curve, sub_seed, budget)

    monkeypatch.setattr(suite, "segre_count_elliptic_quartic", counting)
    assert suite._vertices_roundtrip(seed, BUDGET)
    assert calls == [_ref_split_candidate(seed)]
