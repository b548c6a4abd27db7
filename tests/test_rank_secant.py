import pytest

from entryloci.catalog import build_catalog_variety, catalog_keys
from entryloci.geometry import affine_chart, random_point
from entryloci.kernel import (
    GREVLEX,
    QQ,
    Block,
    DegenerateInputError,
    Ideal,
    PrimeField,
    RingContext,
    groebner_basis,
)
from entryloci.kernel.linalg import rank
from entryloci.kernel import zerodim
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.zerodim import count_distinct_points, is_zero_dimensional
from entryloci.rank_secant import incidence_generators, secant_dims, two_decompositions
from entryloci.suite import resolve_field
from helpers import prime_stream, sample_point

FP = PrimeField(2147483659)


def test_rnc4_secant_line_dimension():
    var = build_catalog_variety("rnc4", 1, FP)
    prof = secant_dims(var, 2, seed=3)
    assert prof.dim(2) == 3
    assert not prof.steps[1].defective


def test_veronese_defect():
    var = build_catalog_variety("veronese5", 1, FP)
    prof = secant_dims(var, 2, seed=3)
    assert prof.dim(2) == 4
    assert prof.steps[1].expected == 5
    assert prof.steps[1].defective
    assert prof.r_gen is None


def test_scroll_generic_rank_two():
    var = build_catalog_variety("scroll12", 1, FP)
    prof = secant_dims(var, 2, seed=3)
    assert prof.dim(2) == 4
    assert prof.r_gen == 2


@pytest.mark.parametrize("key", ["rnc3", "rnc5", "scroll12", "veronese5", "delpezzo4"])
def test_profile_monotone_and_bounded(key):
    var = build_catalog_variety(key, 1, FP)
    for seed in range(5):
        prof = secant_dims(var, 3, seed=seed)
        dims = [st.dim for st in prof.steps]
        assert dims == sorted(dims)
        assert all(st.dim <= st.expected for st in prof.steps)
        assert prof.dim(1) == var.meta["n"]


def test_rnc3_unique_decomposition_counts():
    var = build_catalog_variety("rnc3", 1, FP)
    for seed in range(5):
        q = random_point(FP, seeded_rng("q", seed), 4, off_coordinate_hyperplanes=True)
        ds = two_decompositions(var, q, seed=seed)
        assert not ds.positive_dimensional
        assert ds.count == 1


def test_rational_quartic_three_decompositions():
    # node-count oracle: (d-1)(d-2)/2 - g = 3*2/2 - 0 = 3
    var = build_catalog_variety("rational_quartic3", 1, FP)
    q = random_point(FP, seeded_rng("q4"), 4, off_coordinate_hyperplanes=True)
    ds = two_decompositions(var, q, seed=1)
    assert ds.count == 3


def test_pairs_satisfy_exact_incidence():
    # find a splitting instance, then verify the rank conditions exactly
    found = None
    for p in prime_stream(11):
        F2 = PrimeField(p)
        var = build_catalog_variety("rnc3", 1, F2)
        q = random_point(F2, seeded_rng("qs", p), 4, off_coordinate_hyperplanes=True)
        ds = two_decompositions(var, q, seed=2)
        if ds.pairs:
            found = (F2, var, q, ds.pairs)
            break
    F2, var, q, pairs = found
    for a, b in pairs:
        assert var.contains_point(a) and var.contains_point(b)
        assert a.coords != b.coords
        stacked = [list(a.coords), list(b.coords), list(q.coords)]
        assert rank(stacked, F2) == 2  # q on the line spanned by the pair


def test_node_count_matches_plane_projection_oracle(monkeypatch):
    # independent oracle: nodes of a generic plane projection of the twisted
    # cubic, counted by solving f = f_x = f_y = 0 on the plane model
    from entryloci.entry_locus import plane_model

    var = build_catalog_variety("rnc3", 1, FP)
    rng = seeded_rng("nodes")
    f = plane_model(var.ideal, rng, expected_degree=3)
    ring = f.ring
    system = Ideal.of(ring, [f, f.derivative(0), f.derivative(1)])
    gb = groebner_basis(system)
    assert is_zero_dimensional(gb)
    with monkeypatch.context() as m:
        m.setattr(zerodim, "COUNT_TRIALS", 3)
        nodes = count_distinct_points(gb, rng)[0]
    q = random_point(FP, seeded_rng("qn"), 4, off_coordinate_hyperplanes=True)
    ds = two_decompositions(var, q, seed=9)
    assert nodes == ds.count == 1


def test_decomposition_rejects_point_on_variety():
    from entryloci.kernel import DegenerateInputError

    var = build_catalog_variety("rnc3", 1, FP)
    pt = sample_point(var, seeded_rng("onx"))
    with pytest.raises(DegenerateInputError):
        two_decompositions(var, pt, seed=1)


# -- the incidence generators against the raw system --------------------------


def _raw_incidence(var, q, ring, a_imgs, lam):
    b_imgs = [lam * a + ring.constant(c) for a, c in zip(a_imgs, q.coords)]
    gens = [g.substitute(a_imgs, ring) for g in var.ideal.gens]
    return gens + [g.substitute(b_imgs, ring) for g in var.ideal.gens]


def _incidence_systems(var, ring, a_imgs, lam, q):
    raw = Ideal.of(ring, _raw_incidence(var, q, ring, a_imgs, lam))
    new = Ideal.of(ring, incidence_generators(var, q, ring, a_imgs, lam))
    return raw, new


# K3 over Q takes about 5 s for the two bases, so only its F_p case runs
@pytest.mark.parametrize(
    "field_desc,key",
    [("fp:auto", k) for k in catalog_keys()]
    + [("Q", k) for k in catalog_keys() if k != "k3_23"],
)
def test_incidence_generators_give_the_raw_reduced_bases(field_desc, key):
    # the same ideal, so the same reduced basis under the Block(1)
    # elimination of the entry locus and under GREVLEX on a decomposition chart
    field = resolve_field(field_desc, 1)
    var = build_catalog_variety(key, 1, field)
    rng = seeded_rng("incidence-q", key)
    q = random_point(field, rng, var.ambient + 1)
    while var.contains_point(q):
        q = random_point(field, rng, var.ambient + 1)
    big = RingContext(("lam_",) + var.ring.names, field, Block(1))
    a_vars = [big.variable(1 + i) for i in range(var.ring.nvars)]
    raw, new = _incidence_systems(var, big, a_vars, big.variable(0), q)
    assert len(new.gens) <= len(raw.gens)
    assert groebner_basis(new).basis == groebner_basis(raw).basis
    aff, a_imgs, _, _ = affine_chart(var.ring, rng, ("lam",))
    raw, new = _incidence_systems(var, aff, a_imgs, aff.variable(aff.nvars - 1), q)
    assert groebner_basis(new, GREVLEX).basis == groebner_basis(raw, GREVLEX).basis


@pytest.mark.parametrize("field", [FP, QQ], ids=str)
def test_incidence_generators_for_quadrics_are_linear_in_a(field):
    # delpezzo4 is cut by two quadrics: g(a), g'(a), one h = lam * B(a, q) + c
    # and one linear form in a
    var = build_catalog_variety("delpezzo4", 1, field)
    q = random_point(field, seeded_rng("lin-q"), var.ambient + 1)
    big = RingContext(("lam_",) + var.ring.names, field, Block(1))
    a_vars = [big.variable(1 + i) for i in range(var.ring.nvars)]
    gens = incidence_generators(var, q, big, a_vars, big.variable(0))
    assert [g.total_degree() for g in gens] == [2, 2, 2, 1]
    assert gens[2].degree_in(0) == 1 and gens[3].degree_in(0) == 0


def test_incidence_generators_reject_a_point_on_the_variety():
    var = build_catalog_variety("scroll12", 1, FP)
    pt = sample_point(var, seeded_rng("onx"))
    big = RingContext(("lam_",) + var.ring.names, FP, Block(1))
    a_vars = [big.variable(1 + i) for i in range(var.ring.nvars)]
    with pytest.raises(DegenerateInputError):
        incidence_generators(var, pt, big, a_vars, big.variable(0))
