import random

import pytest

from entryloci import entry_locus
from entryloci.catalog import build_catalog_variety, catalog_keys
from entryloci.entry_locus import (
    _implicit_entry_locus,
    classify_entry_locus,
    component_count,
    entry_locus_ideal,
    irrelevant_saturate,
    plane_model,
)
from entryloci.geometry import (
    ProjectivePoint,
    graded_piece_rows,
    random_point,
    reduced_dim_degree,
    span_form_rows,
    zero_dim_slice,
)
from entryloci.kernel import (
    QQ,
    Block,
    DegenerateInputError,
    Ideal,
    PrimeField,
    RingContext,
    eliminate,
    groebner_basis,
    normal_form,
    saturate_wrt_variable,
)
from entryloci.kernel import factor
from entryloci.kernel.factor import absolute_factor_count
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.linalg import identity, rref
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_degree, u_gcd, u_trim
from entryloci.kernel.zerodim import enumerate_points_prime_field
from entryloci.suite import resolve_field
from helpers import _parametrized_entry_locus, prime_stream, row_space_intersection, same_saturation

FP = PrimeField(2147483659)


def general_q(var, tag, seed):
    rng = seeded_rng(tag, seed)
    while True:
        q = random_point(var.field, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
        if not var.contains_point(q):
            return q


def test_scroll_locus_is_a_plane_conic():
    var = build_catalog_variety("scroll12", 1, FP)
    q = general_q(var, "scroll-q", 1)
    locus = entry_locus_ideal(var, q)
    inv = hilbert_invariants(locus)
    assert (inv.dimension, inv.degree) == (1, 2)
    degs = sorted(g.total_degree() for g in locus.gens)
    assert degs == [1, 1, 2]  # two hyperplanes and a quadric: a plane conic


def test_locus_contained_in_variety():
    var = build_catalog_variety("delpezzo4", 1, FP)
    q = general_q(var, "dp-q", 1)
    locus = entry_locus_ideal(var, q)
    gb = groebner_basis(locus)
    for g in var.ideal.gens:
        assert normal_form(g, gb).is_zero()


def test_witness_closure_on_slice_points():
    # for points a on a slice of the locus, the line through a and q must meet
    # the variety again away from a: the substituted binary forms share a root
    # besides the diagonal one
    found = None
    for attempt, p in zip(range(12), prime_stream(31)):
        F2 = PrimeField(p)
        var = build_catalog_variety("scroll12", 1, F2)
        q = general_q(var, "scroll-qw", 3)
        locus = entry_locus_ideal(var, q)
        rng = seeded_rng("wslice", attempt)
        cut = zero_dim_slice(locus, 1, rng)
        raw = cut and enumerate_points_prime_field(cut[0], rng, require_all=True)
        if raw:
            found = (F2, var, q, [ProjectivePoint.make(F2, cut[1](v)) for v in raw])
            break
    assert found, "no splitting prime for the slice in the probe window"
    F2, var, q, pts = found
    lring = RingContext(("t",), F2)
    for a in pts:
        assert var.contains_point(a)
        # b = t*a + q on X: generators become univariate in t; the partner
        # point is a finite common root
        coeff_lists = []
        for g in var.ideal.gens:
            images = [
                lring.variable(0).scale(ac) + lring.constant(qc)
                for ac, qc in zip(a.coords, q.coords)
            ]
            f = g.substitute(images, lring)
            cs = [F2.zero] * (f.total_degree() + 1)
            for m, c in f.terms:
                cs[m[0]] = c
            coeff_lists.append(u_trim(cs, F2))
        g = coeff_lists[0]
        for nxt in coeff_lists[1:]:
            g = u_gcd(g, nxt, F2)
        assert u_degree(g) >= 1  # a partner point exists on the punctured line


def test_strategy_agreement_for_scroll():
    var = build_catalog_variety("scroll12", 1, FP)
    q = general_q(var, "scroll-q2", 2)
    implicit = _implicit_entry_locus(var, q)
    parametrized = _parametrized_entry_locus(var, q)
    assert same_saturation(implicit, parametrized)
    assert hilbert_invariants(irrelevant_saturate(implicit)).degree == 2


def _mu_saturation_reference(var, q):
    """The incidence system with b = lam * a + mu * q, saturated by mu through
    the added generator w * mu - 1, then projected to the a-block."""
    ring = var.ring
    big = RingContext(("w_", "lam_", "mu_") + ring.names, var.field, Block(3))
    w, lam, mu = big.variable(0), big.variable(1), big.variable(2)
    a_vars = [big.variable(3 + i) for i in range(ring.nvars)]
    b_imgs = [lam * a + mu.scale(c) for a, c in zip(a_vars, q.coords)]
    gens = [w * mu - big.one()]
    gens += [g.substitute(a_vars, big) for g in var.ideal.gens]
    gens += [g.substitute(b_imgs, big) for g in var.ideal.gens]
    return eliminate(Ideal.of(big, gens), 3).map_ring(ring)


@pytest.mark.parametrize("key", ["scroll12", "cone_twisted_cubic", "delpezzo4"])
def test_mu_one_equals_mu_saturation(key):
    # setting mu = 1 gives the same reduced eliminated basis as saturating by mu
    var = build_catalog_variety(key, 1, FP)
    q = general_q(var, "mu-oracle", 1)
    expected = _mu_saturation_reference(var, q)
    got = _implicit_entry_locus(var, q)
    assert [g.terms for g in got.gens] == [g.terms for g in expected.gens]


@pytest.mark.parametrize("key,verdict,recomputations", [("delpezzo4", "B", 1), ("scroll12", "A", 3)])
def test_type_ab_stops_at_first_b(monkeypatch, key, verdict, recomputations):
    var = build_catalog_variety(key, 1, FP)
    q = general_q(var, "ab-stop", 1)
    locus = entry_locus_ideal(var, q)
    calls = []

    def counting(X, o):
        calls.append(o)
        return entry_locus_ideal(X, o)

    monkeypatch.setattr(entry_locus, "entry_locus_ideal", counting)
    assert entry_locus.type_ab_test(var, q, locus, span_form_rows(locus), seed=1) == verdict
    assert len(calls) == recomputations


def test_classify_scroll_full_report():
    var = build_catalog_variety("scroll12", 1, FP)
    rep = classify_entry_locus(var, seed=1)
    assert (rep.gamma, rep.ell, rep.reduced_degree, rep.component_count) == (1, 2, 2, 1)
    assert rep.type_irreducibility == "I"
    assert rep.type_ab == "A"
    assert rep.degree_formula["pass"] and rep.dimension_formula["pass"]
    # the minimal-degree relation: span dimension exceeds locus dimension by one
    assert rep.ell == rep.gamma + 1
    assert rep.span_rows == span_form_rows(rep.locus)


def test_classify_cone_two_components():
    var = build_catalog_variety("cone_twisted_cubic", 1, FP)
    rep = classify_entry_locus(var, seed=1)
    assert (rep.reduced_degree, rep.component_count) == (2, 2)
    assert rep.type_irreducibility == "II"


def test_classify_delpezzo_type_b():
    var = build_catalog_variety("delpezzo4", 1, FP)
    rep = classify_entry_locus(var, seed=1)
    assert (rep.gamma, rep.ell, rep.reduced_degree, rep.component_count) == (1, 3, 4, 1)
    assert rep.type_irreducibility == "I"
    assert rep.type_ab == "B"
    assert rep.span_rows == span_form_rows(rep.locus)


def test_seed_stability_of_invariants():
    var = build_catalog_variety("scroll12", 1, FP)
    seen = set()
    for seed in range(5):
        rep = classify_entry_locus(var, seed=seed, ab_trials=1)
        seen.add(
            (rep.gamma, rep.ell, rep.reduced_degree, rep.component_count, rep.type_irreducibility)
        )
    assert len(seen) == 1


def test_type_ab_self_comparison():
    var = build_catalog_variety("scroll12", 1, FP)
    q = general_q(var, "scroll-q3", 4)
    locus = entry_locus_ideal(var, q)
    again = entry_locus_ideal(var, q)
    assert same_saturation(locus, again)


def test_component_count_two_skew_lines():
    ring = RingContext(("x0", "x1", "x2", "x3"), FP)
    x0, x1, x2, x3 = ring.gens()
    # (x2, x3) . (x0, x1): union of two skew lines
    union = Ideal.of(
        ring, [x0 * x2, x0 * x3, x1 * x2, x1 * x3]
    )
    count, model = component_count(union, seed=1, expected_degree=2)
    assert (count, model.total_degree()) == (2, 2)


def test_component_count_twisted_cubic_irreducible():
    var = build_catalog_variety("rnc3", 1, FP)
    count, model = component_count(var.ideal, seed=1, expected_degree=3)
    assert (count, model.total_degree()) == (1, 3)


class _ScriptedRandom(random.Random):
    """A seeded stream whose first randrange values are scripted."""

    def __init__(self, script, seed):
        super().__init__(seed)
        self.script = list(script)

    def randrange(self, *args, **kwargs):
        if self.script:
            return self.script.pop(0)
        return super().randrange(*args, **kwargs)


@pytest.mark.parametrize("expected_degree, factors", [(1, 1), (2, 2)])
def test_plane_model_rejects_merging_projection(expected_degree, factors):
    # two lines in the plane x3 = 0 meeting at [1:0:0:0]; the first projection
    # matrix has kernel [0:1:1:0], a point of that plane, so both lines map
    # onto one line of P^2
    ring = RingContext(("x0", "x1", "x2", "x3"), FP)
    curve = Ideal.of(ring, [ring.from_string("x3"), ring.from_string("x1*x2")])
    rows = [1, 0, 0, 0, 0, 1, FP.p - 1, 0, 0, 0, 0, 1]
    rng = _ScriptedRandom(rows, 7)
    model = plane_model(curve, rng, expected_degree)
    assert model.total_degree() == expected_degree
    assert absolute_factor_count(model, rng) == factors


def _max_of_three_count(curve, seed, expected_degree):
    """The former count: the largest absolute factor count over the plane
    models of three seeded projections."""
    best = 0
    for trial in range(3):
        rng = seeded_rng(("components", seed, trial))
        try:
            f = plane_model(curve, rng, expected_degree)
            best = max(best, absolute_factor_count(f, rng))
        except DegenerateInputError:
            continue
    return best


@pytest.mark.parametrize(
    "key, components",
    [("scroll12", 1), ("cone_twisted_cubic", 2), ("veronese_proj4", 3), ("delpezzo4", 1)],
)
def test_component_count_matches_max_of_three(key, components):
    locus, degree = _seed1_locus(key)
    count, model = component_count(locus, 1, degree)
    assert model.total_degree() == degree
    assert count == _max_of_three_count(locus, 1, degree) == components


def _seed1_locus(key):
    """The entry locus and reduced degree that classify_entry_locus computes
    at seed 1."""
    var = build_catalog_variety(key, 1, FP)
    rng = seeded_rng(("entrylocus-q", key, 1, 0))
    q = random_point(FP, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
    locus = entry_locus_ideal(var, q)
    return locus, reduced_dim_degree(locus, 1)[1]


@pytest.mark.parametrize("key", ["scroll12", "cone_twisted_cubic", "veronese_proj4"])
def test_component_count_runs_one_gcd_chain_per_model(key, monkeypatch):
    # plane_model returns a squarefree part, so counting its factors needs
    # no second repeated-part chain; a model the line certificate accepts
    # needs none at all
    locus, degree = _seed1_locus(key)
    chains, models = [], []
    real_chain, real_sf = factor._repeated_part, entry_locus.squarefree_part
    monkeypatch.setattr(factor, "_repeated_part", lambda f: chains.append(f) or real_chain(f))
    monkeypatch.setattr(entry_locus, "squarefree_part", lambda f: models.append(f) or real_sf(f))
    component_count(locus, 1, degree)
    assert len(models) >= 1 and len(chains) <= len(models)


def test_equidimensional_invariants_of_locus():
    var = build_catalog_variety("veronese_proj4", 1, FP)
    rep = classify_entry_locus(var, seed=1)
    assert rep.gamma == 1
    assert rep.reduced_degree >= rep.component_count
    assert rep.component_count == 3
    assert rep.reduced_degree == 6


def test_irrelevant_saturate_fast_path():
    ring = RingContext(("x0", "x1", "x2"), FP)
    clean = Ideal.of(ring, [ring.from_string("x0*x2 - x1^2")])
    assert same_saturation(irrelevant_saturate(clean), clean)


def test_irrelevant_saturate_intersection_fallback():
    # (x^2, xy, xz) = (x) with an embedded origin component: no single-variable
    # saturation sits inside the ideal, so the fold-intersect branch runs
    ring = RingContext(("x", "y", "z"), FP)
    junky = Ideal.of(
        ring,
        [ring.from_string("x^2"), ring.from_string("x*y"), ring.from_string("x*z")],
    )
    sat = irrelevant_saturate(junky)
    gb = groebner_basis(sat)
    assert [g.to_string() for g in gb.basis] == ["x"]


def _ref_linear_part_rows(ideal):
    """The former span reader: coefficient rows of the degree-1 generators,
    or every linear form when a generator is a constant."""
    ring = ideal.ring
    if any(g.total_degree() == 0 for g in ideal.gens):
        return identity(ring.nvars, ring.field)
    rows = []
    for g in ideal.gens:
        if g.is_zero() or g.total_degree() != 1:
            continue
        row = [ring.field.zero] * ring.nvars
        for m, c in g.terms:
            idx = next(i for i, e in enumerate(m) if e)
            row[idx] = c
        rows.append(row)
    red, piv = rref(rows, ring.field)
    return [red[i] for i in range(len(piv))]


@pytest.mark.parametrize("field", [resolve_field("fp:auto", 1), QQ], ids=["fp:auto", "Q"])
def test_degree_one_piece_matches_linear_generators(field):
    # the degree-1 monomials sort x0 first, the column order linear_form reads
    seen_identity = seen_proper = False
    for key in catalog_keys():
        var = build_catalog_variety(key, 1, field)
        rng = seeded_rng(("entrylocus-q", key, 1, 0))
        q = random_point(field, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
        locus = entry_locus_ideal(var, q)
        for ideal in (locus, irrelevant_saturate(locus)):
            rows = graded_piece_rows(ideal, 1)[0]
            assert rows == _ref_linear_part_rows(ideal)
            seen_identity |= rows == identity(var.ambient + 1, field)
            seen_proper |= 0 < len(rows) < var.ambient + 1
    assert seen_identity and seen_proper


def _per_variable_span_rows(ideal):
    """Span rows by the per-variable route: the intersection over variables of
    the degree-1 parts of (I : x_i^inf), unit saturations skipped, and every
    form when all of them are the unit ideal."""
    field = ideal.ring.field
    current = None
    for var in range(ideal.ring.nvars):
        sat = saturate_wrt_variable(ideal, var)
        if any(g.total_degree() == 0 for g in sat.gens):
            continue
        rows = _ref_linear_part_rows(sat)
        current = rows if current is None else row_space_intersection(current, rows, field)
    return identity(ideal.ring.nvars, field) if current is None else current


@pytest.mark.parametrize(
    "case, expected",
    [
        ("scroll12", None),
        ("cone_twisted_cubic", None),
        ("delpezzo4", None),
        # (x) with an embedded point at the origin: only the saturation has x
        ("x^2 x*y x*z", [[1, 0, 0]]),
        # m-primary: the scheme is empty, so every linear form vanishes on it
        ("x^2 y^2 z^2", identity(3, FP)),
    ],
)
def test_span_rows_match_per_variable_route(case, expected):
    if case in catalog_keys():
        var = build_catalog_variety(case, 1, FP)
        ideal = entry_locus_ideal(var, general_q(var, "span-oracle", 1))
    else:
        ring = RingContext(("x", "y", "z"), FP)
        ideal = Ideal.of(ring, [ring.from_string(g) for g in case.split()])
    rows = span_form_rows(ideal)
    assert rows == _per_variable_span_rows(ideal)
    if expected is not None:
        assert rows == expected
