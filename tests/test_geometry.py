import random

import pytest
import sympy

from entryloci import geometry, suite
from entryloci.catalog import build_catalog_variety, catalog_keys, catalog_metadata
from entryloci.geometry import (
    Parametrization,
    ProjectivePoint,
    ProjectiveVariety,
    affine_chart,
    ambient_ring,
    cone_over,
    dehomogenize,
    implicitize,
    project_image,
    random_point,
    reduced_dim_degree,
    span_form_rows,
    witness_points,
    zero_dim_slice,
)
from entryloci.kernel import (
    QQ,
    Block,
    DegenerateInputError,
    GREVLEX,
    HomogeneityError,
    Ideal,
    PrimeField,
    RingContext,
    eliminate,
    groebner_basis,
    homogeneous_generators,
    saturate_single,
)
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.linalg import rank
from entryloci.kernel.rng import random_coords, random_scalar, seeded_rng
from entryloci.kernel.zerodim import (
    count_distinct_points,
    enumerate_points_prime_field,
    is_zero_dimensional,
    random_linear_combination,
)
from entryloci.suite import resolve_field
import helpers
from helpers import proportional_to, sample_point

FP = PrimeField(2147483659)


def test_catalog_keys_and_metadata():
    keys = catalog_keys()
    assert "scroll12" in keys and "rnc3" in keys
    assert catalog_metadata("delpezzo4") == {"n": 2, "d": 4, "g": 1}


# (n, d, g) of every catalog entry, in catalog order
CATALOG_NDG = {
    "rnc3": (1, 3, 0),
    "rnc4": (1, 4, 0),
    "rnc5": (1, 5, 0),
    "rnc6": (1, 6, 0),
    "rational_quartic3": (1, 4, 0),
    "elliptic4": (1, 4, 1),
    "scroll12": (2, 3, 0),
    "cone_twisted_cubic": (2, 3, 0),
    "veronese5": (2, 4, 0),
    "veronese_proj4": (2, 4, 0),
    "delpezzo4": (2, 4, 1),
    "k3_23": (2, 6, 4),
}


def test_catalog_meta_items_in_order():
    field = suite.resolve_field("fp:auto", 1)
    assert field.describe() == "Fp:2148651079"
    assert catalog_keys() == list(CATALOG_NDG)
    for key, (n, d, g) in CATALOG_NDG.items():
        meta = build_catalog_variety(key, 1, field).meta
        assert list(meta.items()) == [
            ("name", key), ("key", key), ("n", n), ("d", d), ("g", g),
            ("seed", 1), ("field", "Fp:2148651079"),
        ], key


@pytest.mark.parametrize("key", catalog_keys())
def test_catalog_entry_consistency(key):
    var = build_catalog_variety(key, 2, FP)
    meta = catalog_metadata(key)
    inv = hilbert_invariants(var.ideal)
    assert (inv.dimension, inv.degree) == (meta["n"], meta["d"])
    if var.param is not None:
        # parametrization kills every generator, and 20 sampled points lie on X
        images = list(var.param.forms)
        assert all(g.substitute(images, var.param.ring).is_zero() for g in var.ideal.gens)
        rng = seeded_rng("sample", key)
        for _ in range(20):
            pt = sample_point(var, rng)
            assert var.contains_point(pt)


def test_implicitize_conic():
    pring = RingContext(("s0", "s1"), QQ)
    s, t = pring.gens()
    ideal = implicitize(Parametrization(pring, (s * s, s * t, t * t)))
    assert len(ideal.gens) == 1
    g = ideal.gens[0]
    target = ideal.ring
    assert proportional_to(g, target.from_string("x1^2 - x0*x2"))


def test_implicitize_twisted_cubic():
    pring = RingContext(("s0", "s1"), QQ)
    s, t = pring.gens()
    ideal = implicitize(Parametrization(pring, (s**3, s**2 * t, s * t**2, t**3)))
    assert len(ideal.gens) == 3
    assert all(g.total_degree() == 2 for g in ideal.gens)
    # substitution oracle on every returned generator
    for g in ideal.gens:
        assert g.substitute([s**3, s**2 * t, s * t**2, t**3], pring).is_zero()


def test_implicitize_veronese_quadrics():
    pring = RingContext(("s0", "s1", "s2"), QQ)
    z0, z1, z2 = pring.gens()
    forms = (z0 * z0, z0 * z1, z0 * z2, z1 * z1, z1 * z2, z2 * z2)
    ideal = implicitize(Parametrization(pring, forms))
    assert len([g for g in ideal.gens if g.total_degree() == 2]) == 6
    for g in ideal.gens:
        assert g.substitute(list(forms), pring).is_zero()


def test_project_twisted_cubic_to_plane_cubic():
    var = build_catalog_variety("rnc3", 1, FP)
    rng = seeded_rng("proj-test")
    image = project_image(var, [random_point(FP, rng, 4).coords])
    dim, deg = reduced_dim_degree(image.ideal, 5)
    assert (dim, deg) == (1, 3)


@pytest.mark.parametrize("key", ["rnc3", "elliptic4"])
def test_project_rejects_center_on_the_variety(key):
    # points drawn from streams of their own: on the parametrized rnc3 by
    # its parametrization, on the implicit elliptic4 by slicing
    var = build_catalog_variety(key, 1, FP)
    rng = seeded_rng("on-variety", key)
    if var.param is not None:
        points = [sample_point(var, rng) for _ in range(3)]
    else:
        points = witness_points(var, rng, want=3)
    assert len(points) == 3
    for pt in points:
        assert var.contains_point(pt)
        with pytest.raises(DegenerateInputError, match="center meets the variety"):
            project_image(var, [pt.coords])
        # a second center row off the variety does not hide the first
        off = random_point(FP, rng, var.ambient + 1)
        assert not var.contains_point(off)
        with pytest.raises(DegenerateInputError, match="center meets the variety"):
            project_image(var, [off.coords, pt.coords])


@pytest.mark.parametrize("parametrized", [True, False])
def test_project_rejects_dependent_center_rows(parametrized):
    var = build_catalog_variety("rnc3", 1, FP)
    if not parametrized:
        var = ProjectiveVariety(var.ambient, var.ideal, None, var.meta)
    row = random_point(FP, seeded_rng("dependent"), 4).coords
    twice = [FP.mul(2, c) for c in row]
    with pytest.raises(DegenerateInputError, match="could not complete basis"):
        project_image(var, [row, twice])


def _greedy_frame(field, rows, n):
    """The former completion of independent rows: e_0, e_1, ... appended in
    turn whenever the rank grows."""
    base = [list(r) for r in rows]
    for i in range(n):
        trial = base + [[field.one if j == i else field.zero for j in range(n)]]
        if rank(trial, field) == len(trial):
            base.append(trial[-1])
    return [[base[j][i] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field_desc", ["fp:auto", "Q"])
def test_projection_frame_is_the_greedy_completion(field_desc):
    rng = seeded_rng("frame", field_desc)
    for trial in range(60):
        field = resolve_field(field_desc, 1 + trial % 3)
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        rows = [random_coords(field, rng, n) for _ in range(k)]
        # sparse rows and repeated columns put the last nonzero entries
        # anywhere, and a few rows dependent
        for row in rows:
            for j in range(n):
                if rng.random() < 0.4:
                    row[j] = field.zero
        if rows and rng.random() < 0.2:
            rows.append([field.mul(field.coerce(2), c) for c in rows[0]])
        if rank(rows, field) < len(rows):
            with pytest.raises(DegenerateInputError):
                geometry.projection_frame(field, rows, n)
        else:
            assert geometry.projection_frame(field, rows, n) == _greedy_frame(field, rows, n)


@pytest.mark.parametrize("field", [FP, QQ], ids=str)
def test_projection_frame_rejects_n_dependent_rows(field):
    # n rows spanning only n - 1 dimensions: the former loop returned them
    # as a singular frame, since its basis was already n long
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    rows = [[field.coerce(c) for c in row] for row in rows]
    with pytest.raises(DegenerateInputError):
        geometry.projection_frame(field, rows, 3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_slice_by_span_matches_the_change_of_coordinates(seed):
    # check 04's loci: delpezzo4's entry-locus curve in its hyperplane
    _, rep = suite.classified("delpezzo4", seed, resolve_field("fp:auto", seed))
    assert len(rep.span_rows) == 1
    ours = geometry.slice_by_span(rep.locus, rep.span_rows)
    assert ours.gens == helpers._ref_slice_by_span(rep.locus, rep.span_rows).gens
    assert ours.ring.nvars == rep.locus.ring.nvars - 1


def test_cone_over_conic_is_rank3_quadric():
    ring = ambient_ring(2, QQ)
    conic = Ideal.of(ring, [ring.from_string("x0*x2 - x1^2")])
    base = ProjectiveVariety(2, conic, None, {"name": "conic", "d": 2, "n": 1})
    cone = cone_over(base)
    assert cone.ambient == 3
    inv = hilbert_invariants(cone.ideal)
    assert (inv.dimension, inv.degree) == (2, 2)
    # vertex e_3 lies on the cone: generators omit the new variable
    vertex = ProjectivePoint.make(QQ, [0, 0, 0, 1])
    assert cone.contains_point(vertex)


def test_cone_preserves_degree_and_raises_dimension():
    base = build_catalog_variety("rnc3", 1, FP)
    cone = cone_over(base)
    inv = hilbert_invariants(cone.ideal)
    assert (inv.dimension, inv.degree) == (2, 3)
    if cone.param is not None:
        images = list(cone.param.forms)
        assert all(g.substitute(images, cone.param.ring).is_zero() for g in cone.ideal.gens)


def test_reduced_degree_of_double_line():
    ring = ambient_ring(2, FP)
    ideal = Ideal.of(ring, [ring.from_string("x0^2")])
    inv = hilbert_invariants(ideal)
    assert inv.degree == 2  # scheme degree
    dim, deg = reduced_dim_degree(ideal, 3)
    assert (dim, deg) == (1, 1)  # set-theoretic degree


def test_reduced_degree_of_delpezzo():
    var = build_catalog_variety("delpezzo4", 1, FP)
    assert reduced_dim_degree(var.ideal, 2) == (2, 4)


def span_dim(ideal):
    """Projective dimension of the linear span of the scheme."""
    return ideal.ring.nvars - 1 - len(span_form_rows(ideal))


def test_span_dims():
    var = build_catalog_variety("rnc3", 1, FP)
    assert span_dim(var.ideal) == 3  # non-degenerate
    ring = ambient_ring(3, FP)
    two_points = Ideal.of(
        ring,
        [ring.from_string("x2"), ring.from_string("x3"), ring.from_string("x0*x1")],
    )
    assert span_dim(two_points) == 1
    ring5 = ambient_ring(4, FP)
    conic = Ideal.of(
        ring5,
        [ring5.from_string("x3"), ring5.from_string("x4"), ring5.from_string("x0*x2 - x1^2")],
    )
    assert span_dim(conic) == 2
    with pytest.raises(HomogeneityError):
        span_dim(Ideal.of(ring, [ring.from_string("x0 - x1^2")]))


@pytest.mark.parametrize("key", ["rnc3", "scroll12", "veronese5", "delpezzo4"])
def test_span_of_nondegenerate_catalog_entries(key):
    var = build_catalog_variety(key, 1, FP)
    assert span_dim(var.ideal) == var.ambient


def test_sample_point_direct_evaluation():
    var = build_catalog_variety("rnc3", 1, QQ)
    assert var.param.evaluate((1, 2)) == [1, 2, 4, 8]
    a = sample_point(var, seeded_rng("pt", 1))
    b = sample_point(var, seeded_rng("pt", 2))
    assert a.coords != b.coords  # distinct seeds, distinct points
    assert var.contains_point(a) and var.contains_point(b)


def test_witness_points_on_implicit_variety():
    var = build_catalog_variety("delpezzo4", 1, FP)
    pts = witness_points(var, seeded_rng("witness"), want=2)
    assert len(pts) == 2
    assert all(var.contains_point(p) for p in pts)


def test_dehomogenize_chart_roundtrip():
    ring = ambient_ring(3, FP)
    ideal = Ideal.of(ring, [ring.from_string("x0*x3 - x1*x2")])
    aring, agens, chart = dehomogenize(ideal, seeded_rng("chart"))
    assert aring.nvars == 3
    full = chart((FP.one, FP.one, FP.one))
    assert len(full) == 4


# -- oracles for the graph-ideal implicitization and the substituted slice -----


def _ref_implicitize(param, rng, locus=()):
    """The former route: the 2x2 minors of [x; P(s)], saturated by a seeded
    random combination of the forms, then the parameters eliminated."""
    pring = param.ring
    field = pring.field
    m = pring.nvars
    r = len(param.forms) - 1
    big = RingContext(tuple(pring.names) + tuple(f"x{i}" for i in range(r + 1)), field, Block(m))

    def lift(f):
        return big.from_dict({mm + (0,) * (r + 1): c for mm, c in f.terms})

    forms = [lift(f) for f in param.forms]
    xs = [big.variable(m + i) for i in range(r + 1)]
    gens = [lift(g) for g in locus]
    gens += [xs[i] * forms[j] - xs[j] * forms[i] for i in range(r + 1) for j in range(i + 1, r + 1)]
    combo = big.zero()
    for f in forms:
        combo = combo + f.scale(field.coerce(random_scalar(field, rng)))
    if combo.is_zero():
        combo = forms[0]
    out = eliminate(saturate_single(Ideal.of(big, gens), combo).map_ring(big), m)
    return homogeneous_generators(out.map_ring(ambient_ring(r, field)))


def _ref_affine_chart(ring, rng, extra=()):
    """The former chart: {c . x = 1} solved for the last variable with a
    nonzero coefficient, one pivot at a time."""
    field = ring.field
    n = ring.nvars
    coeffs = random_coords(field, rng, n)
    pivot = max(i for i, c in enumerate(coeffs) if c != field.zero)
    names = tuple(nm for i, nm in enumerate(ring.names) if i != pivot) + tuple(extra)
    aring = RingContext(names, field)
    images = []
    remaining = []
    for i in range(n):
        if i == pivot:
            images.append(None)
            continue
        remaining.append((i, len(remaining)))
        images.append(aring.variable(len(remaining) - 1))
    expr = aring.constant(field.one)
    for i, s in remaining:
        expr = expr - aring.variable(s).scale(coeffs[i])
    images[pivot] = expr.scale(field.inv(coeffs[pivot]))
    return aring, images


def _ref_zero_dim_slice(ideal, cuts, rng):
    """The former slice: the cut forms appended as generators, then the
    chart substituted, so the sliced ring keeps a variable per cut."""
    gens = list(ideal.gens) + [random_linear_combination(ideal.ring, rng) for _ in range(cuts)]
    aring, images = _ref_affine_chart(ideal.ring, rng)
    gb = groebner_basis(Ideal.of(aring, [g.substitute(images, aring) for g in gens]), GREVLEX)
    if gb.is_unit() or not is_zero_dimensional(gb):
        return None
    return gb, images


ORACLE_FIELDS = [resolve_field("fp:auto", 1), QQ]
# the catalog entries that carry a parametrization
PARAMETRIZED = [
    "rnc3", "rnc4", "rnc5", "rnc6", "rational_quartic3", "scroll12", "cone_twisted_cubic",
    "veronese5", "veronese_proj4",
]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["fp:auto", "Q"])
@pytest.mark.parametrize("key", PARAMETRIZED)
def test_implicitize_matches_the_minors_route(key, field):
    param = build_catalog_variety(key, 1, field).param
    assert implicitize(param).gens == _ref_implicitize(param, random.Random(17)).gens


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["fp:auto", "Q"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("key", ["rnc3", "rational_quartic3", "scroll12", "cone_twisted_cubic", "veronese5"])
def test_implicitize_of_a_parameter_locus_matches_the_minors_route(monkeypatch, key, seed, field):
    # the parametrized entry-locus route implicitizes a parameter locus
    calls = []
    real = helpers._implicitize_locus
    monkeypatch.setattr(
        helpers, "_implicitize_locus", lambda param, locus: calls.append(locus) or real(param, locus)
    )
    var = build_catalog_variety(key, seed, field)
    rng = seeded_rng("locus-oracle", key, seed)
    q = random_point(field, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
    ours = helpers._parametrized_entry_locus(var, q)
    assert len(calls) == 1 and calls[0]
    assert ours.gens == _ref_implicitize(var.param, rng, locus=calls[0]).gens


def _to_sympy(g, symbols):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[v**e for v, e in zip(symbols, m)])
        for m, c in g.terms
    )


@pytest.mark.parametrize("key", ["rnc3", "rational_quartic3"])
def test_implicitize_matches_sympy_elimination_of_the_graph_ideal(key):
    # independent oracle: sympy's lex basis of (x_i - P_i(s)) over QQ, its
    # s-free part, and the reduced grevlex basis of that
    param = build_catalog_variety(key, 1, QQ).param
    ss = sympy.symbols(" ".join(param.ring.names))
    xs = sympy.symbols(" ".join(f"x{i}" for i in range(len(param.forms))))
    graph = [x - _to_sympy(f, ss) for x, f in zip(xs, param.forms)]
    lex = sympy.groebner(graph, *ss, *xs, order="lex")
    free = [e for e in lex.exprs if not e.free_symbols & set(ss)]
    theirs = sympy.groebner(free, *xs, order="grevlex")
    ours = implicitize(param)
    assert {sympy.Poly(_to_sympy(g, xs), *xs).monic() for g in ours.gens} == {
        sympy.Poly(e, *xs).monic() for e in theirs.exprs
    }


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["fp:auto", "Q"])
@pytest.mark.parametrize("nvars", [2, 4, 6])
def test_affine_chart_without_cuts_matches_the_former_chart(field, nvars):
    ring = ambient_ring(nvars - 1, field)
    for seed in range(8):
        for extra in ((), ("lam",)):
            aring, images, chart, _ = affine_chart(ring, seeded_rng("chart-pin", seed), extra)
            ref_ring, ref_images = _ref_affine_chart(ring, seeded_rng("chart-pin", seed), extra)
            assert aring == ref_ring
            assert [img.terms for img in images] == [img.terms for img in ref_images]
            values = random_coords(field, seeded_rng("chart-values", seed), aring.nvars)
            assert chart(values) == tuple(img.evaluate(values) for img in ref_images)


@pytest.mark.parametrize("key", catalog_keys())
def test_zero_dim_slice_matches_the_appended_cuts(key):
    # same distinct-point count and same F_p points as the former slice
    for seed in (1, 2, 3):
        var = build_catalog_variety(key, seed, FP)
        dim = hilbert_invariants(var.ideal).dimension
        ours = zero_dim_slice(var.ideal, dim, seeded_rng("slice-oracle", key, seed))
        ref = _ref_zero_dim_slice(var.ideal, dim, seeded_rng("slice-oracle", key, seed))
        assert (ours is None) == (ref is None)
        if ours is None:
            continue
        counts = [count_distinct_points(gb, seeded_rng("count", seed))[0] for gb in (ours[0], ref[0])]
        assert counts[0] == counts[1] >= 1
        ours_pts = {
            ProjectivePoint.make(FP, ours[1](v)).coords
            for v in enumerate_points_prime_field(ours[0], seeded_rng("pts", seed), require_all=False)
        }
        ref_pts = {
            ProjectivePoint.make(FP, [img.evaluate(v) for img in ref[1]]).coords
            for v in enumerate_points_prime_field(ref[0], seeded_rng("pts", seed), require_all=False)
        }
        assert ours_pts == ref_pts


def test_affine_chart_with_dependent_draws_is_none(monkeypatch):
    # two equal cut forms leave the section underdetermined
    ring = ambient_ring(3, FP)
    monkeypatch.setattr(geometry, "random_coords", lambda field, rng, n: [1, 2, 3, 4])
    assert affine_chart(ring, seeded_rng("dep"), cuts=1) is None
    assert zero_dim_slice(Ideal.of(ring, ring.gens()[:1]), 1, seeded_rng("dep")) is None
