"""The early stops of the decomposition count, the distinct-point count and
the secant profile against reference copies of the routes that ran every
round and every trial (``helpers._ref_*``), and the certificate forced to
refuse."""

import pytest

from entryloci import geometry, rank_secant
from entryloci.catalog import build_catalog_variety, catalog_keys
from entryloci.geometry import ProjectivePoint, random_point, zero_dim_slice
from entryloci.kernel import GREVLEX, QQ, Ideal, KernelError, PrimeField, RingContext, groebner_basis
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.linalg import rank
from entryloci.kernel.rng import random_coords, random_scalar, seeded_rng
from entryloci.kernel import zerodim
from entryloci.kernel.zerodim import count_distinct_points, is_zero_dimensional
from entryloci.rank_secant import secant_dims, two_decompositions
from entryloci.suite import resolve_field
import helpers
from helpers import _ref_count_distinct_points, _ref_secant_dims, _ref_two_decompositions

CASES = [(k, f) for k in catalog_keys() for f in ("fp:auto", "Q")]


def _outcome(fn):
    """The value of fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except KernelError as err:
        return type(err), str(err)


def _dot(field, c, x):
    total = field.zero
    for a, b in zip(c, x):
        total = field.add(total, field.mul(a, b))
    return total


@pytest.mark.parametrize("key,field_desc", CASES)
def test_decompositions_and_secant_profiles_match_every_round(key, field_desc):
    for seed in (1, 2, 3):
        field = resolve_field(field_desc, seed)
        var = build_catalog_variety(key, seed, field)
        # the general point of `el decomp`
        q = random_point(field, seeded_rng(("cli-decomp", seed)), var.ambient + 1,
                         off_coordinate_hyperplanes=True)
        assert _outcome(lambda: two_decompositions(var, q, seed=seed)) == _outcome(
            lambda: _ref_two_decompositions(var, q, seed=seed))
        assert _outcome(lambda: secant_dims(var, 2, seed=seed)) == _outcome(
            lambda: _ref_secant_dims(var, 2, seed=seed))


def _cli_decomp_point(var, seed):
    return random_point(var.field, seeded_rng(("cli-decomp", seed)), var.ambient + 1,
                        off_coordinate_hyperplanes=True)


@pytest.mark.parametrize("field_desc", ["fp:auto", "Q"])
def test_linear_incidence_rows_are_solved_by_the_chart(field_desc):
    field = resolve_field(field_desc, 1)
    for key, rows in (("rational_quartic3", 0), ("elliptic4", 1), ("rnc3", 2), ("rnc5", 9)):
        var = build_catalog_variety(key, 1, field)
        q = _cli_decomp_point(var, 1)
        linear = rank_secant._linear_incidence_rows(var, q)
        assert len(linear) == rows  # rational_quartic3 has a single quadric: no rows
        assert all(_dot(field, row, q.coords) == field.zero for row in linear)
        system = rank_secant._incidence_affine_system(var, q, seeded_rng(("decomp", key, 1, 0)))[0]
        ref = helpers._ref_incidence_affine_system(var, q, seeded_rng(("decomp", key, 1, 0)))[0]
        assert system.ring.nvars == ref.ring.nvars - rank(linear, field)
        ds = two_decompositions(var, q, seed=1)
        for pair in ds.pairs or ():
            # every decomposition's points satisfy the rows
            assert all(_dot(field, row, p.coords) == field.zero for row in linear for p in pair)


def test_count_in_shape_keeps_the_form_only_at_full_count():
    ring = RingContext(("x", "lam"), PrimeField(65537))
    radical = groebner_basis(Ideal.of(ring, [ring.from_string("x^2 - 1"), ring.from_string("lam - 5")]))
    double = groebner_basis(Ideal.of(ring, [ring.from_string("x^2"), ring.from_string("lam - 5")]))
    count, shape = count_distinct_points(radical, seeded_rng("shape"))
    assert count == 2 and shape is not None
    points = zerodim.enumerate_points_prime_field(radical, seeded_rng("roots"), shape=shape)
    assert sorted(points) == [(1, 5), (65536, 5)]
    assert count_distinct_points(double, seeded_rng("shape")) == (1, None)


# seeds whose `el decomp` pairs are all F_p-rational, and one whose are not
@pytest.mark.parametrize("key,seed,rational", [
    ("rnc3", 1, True), ("rnc3", 5, True), ("elliptic4", 18, True), ("elliptic4", 22, True),
    ("rational_quartic3", 1, False),
])
def test_pairs_without_a_counting_form_are_enumerated(key, seed, rational, monkeypatch):
    # drop the counting form, as when no trial reaches D: the former
    # enumeration with a fresh separating form finds the same pairs
    var = build_catalog_variety(key, seed, resolve_field("fp:auto", seed))
    q = _cli_decomp_point(var, seed)
    fast = two_decompositions(var, q, seed=seed)
    assert fast.count and (fast.pairs is not None) == rational
    enumerated = []
    real_count, real_enumerate = rank_secant.count_distinct_points, rank_secant.enumerate_points_prime_field

    def no_shape(gb, rng):
        return real_count(gb, rng)[0], None

    def spy(gb, rng, shape=None):
        enumerated.append(gb)
        return real_enumerate(gb, rng, shape=shape)

    monkeypatch.setattr(rank_secant, "count_distinct_points", no_shape)
    monkeypatch.setattr(rank_secant, "enumerate_points_prime_field", spy)
    assert two_decompositions(var, q, seed=seed) == fast == _ref_two_decompositions(var, q, seed=seed)
    assert len(enumerated) == 1


def _zero_dim_bases(var, seed):
    """Round 0's decomposition system and a dimension-many slice of var."""
    field = var.field
    q = random_point(field, seeded_rng(("cert-q", seed)), var.ambient + 1)
    if not var.contains_point(q):
        rng = seeded_rng(("decomp", var.meta.get("key"), seed, 0))
        system = rank_secant._incidence_affine_system(var, q, rng)[0]
        yield groebner_basis(system, GREVLEX)
    dim = hilbert_invariants(var.ideal).dimension
    cut = zero_dim_slice(var.ideal, dim, seeded_rng(("cert-slice", seed)))
    if cut is not None:
        yield cut[0]


@pytest.mark.parametrize("key,field_desc", CASES)
def test_point_counts_match_every_trial_and_leave_the_stream_alike(key, field_desc, monkeypatch):
    for seed in (1, 2, 3):
        var = build_catalog_variety(key, seed, resolve_field(field_desc, seed))
        for gb in _zero_dim_bases(var, seed):
            if not is_zero_dimensional(gb):
                continue
            for trials in (1, 2, 3):
                ours, ref = seeded_rng("cert-count", seed), seeded_rng("cert-count", seed)
                monkeypatch.setattr(zerodim, "COUNT_TRIALS", trials)
                assert count_distinct_points(gb, ours)[0] == _ref_count_distinct_points(
                    gb, ref, trials)
                assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("field", [PrimeField(65537), QQ], ids=str)
def test_certificate_conditions_on_small_systems(field):
    # lam is the last variable, as on a decomposition chart
    ring = RingContext(("x", "lam"), field)

    def gb(*gens):
        return groebner_basis(Ideal.of(ring, [ring.from_string(g) for g in gens]), GREVLEX)

    radical = gb("x^2 - 1", "lam - 5")  # two points, both at lam = 5
    assert rank_secant._misses_nothing(radical, 2, field.coerce(3))
    assert not rank_secant._misses_nothing(radical, 2, field.zero)  # (i)
    assert not rank_secant._misses_nothing(radical, 1, field.coerce(3))  # (ii): 1 < D = 2
    assert not rank_secant._misses_nothing(radical, 2, field.coerce(-5))  # (iii): m(5) = 0
    double = gb("x^2", "lam - 5")  # one point of multiplicity 2
    assert count_distinct_points(double, seeded_rng("double"))[0] == 1
    assert not rank_secant._misses_nothing(double, 1, field.coerce(3))


@pytest.fixture
def certificates(monkeypatch):
    """Every (count, c . q, verdict) of round 0's certificate."""
    seen = []
    real = rank_secant._misses_nothing

    def spy(gb, count, cq):
        verdict = real(gb, count, cq)
        seen.append((count, cq, verdict))
        return verdict

    monkeypatch.setattr(rank_secant, "_misses_nothing", spy)
    return seen


def _check07_pair(seed=1):
    """The pair {a, b} and the point q = a + l*b of check 07 on rnc3."""
    field = resolve_field("fp:auto", seed)
    var = build_catalog_variety("rnc3", seed, field)
    rng = seeded_rng(("rnc3-pair", seed))
    a, b = (ProjectivePoint.make(field, var.param.evaluate(random_coords(field, rng, 2)))
            for _ in range(2))
    lam = field.coerce(random_scalar(field, rng)) or field.one
    q = ProjectivePoint.make(field, [field.add(x, field.mul(lam, y))
                                     for x, y in zip(a.coords, b.coords)])
    return field, var, a, b, q


def test_a_chart_through_one_point_of_the_pair_is_refused(monkeypatch, certificates):
    field, var, a, b, q = _check07_pair()
    real = geometry.random_coords
    calls = []

    def through_a(fld, rng, n):
        # round 0's chart form, moved so that c . a = 0
        c = real(fld, rng, n)
        if not calls:
            c[0] = field.neg(_dot(field, c[1:], a.coords[1:]))  # a.coords[0] == 1
            assert _dot(field, c, a.coords) == field.zero
        calls.append(c)
        return c

    monkeypatch.setattr(geometry, "random_coords", through_a)
    ds = two_decompositions(var, q, seed=1)
    # round 0 sees only the ordered pair (b, a), at lam = -c . q
    assert certificates == [(1, _dot(field, calls[0], q.coords), False)]
    assert len(calls) == 3  # so rounds 1 and 2 ran, and they find both orders
    assert ds.count == 1 and not ds.positive_dimensional
    assert {p.coords for p in ds.pairs[0]} == {a.coords, b.coords}


def test_a_point_on_the_charts_polar_hyperplane_is_refused(certificates):
    field, var, _, _, _ = _check07_pair()
    c = random_coords(field, seeded_rng(("decomp", "rnc3", 1, 0)), 4)  # round 0's chart form
    general = random_point(field, seeded_rng("cert-general"), 4)
    system_rng = seeded_rng(("decomp", "rnc3", 1, 0))
    assert rank_secant._incidence_affine_system(var, general, system_rng)[2] == _dot(
        field, c, general.coords)
    rng = seeded_rng("cert-polar")
    k = max(i for i, x in enumerate(c) if x != field.zero)
    while True:
        v = random_coords(field, rng, 4)
        v[k] = field.div(field.neg(_dot(field, c[:k] + c[k + 1:], v[:k] + v[k + 1:])), c[k])
        q = ProjectivePoint.make(field, v)
        if not var.contains_point(q):
            break
    assert _dot(field, c, q.coords) == field.zero
    ds = two_decompositions(var, q, seed=1)
    assert [verdict for _, cq, verdict in certificates] == [False]
    assert certificates[0][1] == field.zero
    assert ds == _ref_two_decompositions(var, q, seed=1)
    assert ds.count == 1 and ds.pairs is not None
