import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci import catalog, geometry, segre
from entryloci.catalog import build_catalog_variety
from entryloci.geometry import (
    ProjectivePoint,
    ProjectiveVariety,
    ambient_ring,
    apply_linear_substitution,
    project_image,
    random_invertible_matrix,
    random_point,
    span_form_rows,
)
from entryloci.kernel import QQ, DegenerateInputError, Ideal, PrimeField
from entryloci.kernel.ideals import radical_membership
from entryloci.kernel.linalg import det
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_det_pencil, u_interpolate
from entryloci.rank_secant import two_decompositions
from entryloci.segre import (
    is_segre_point,
    pair_segre_test,
    pencil_det_distinct_roots,
    quadric_pencil,
    segre_count_elliptic_quartic,
    union_span_is_ambient,
)
from entryloci.suite import resolve_field
from helpers import _ref_pair_segre_test, prime_stream, row_space_intersection

FP = PrimeField(2147483659)


def test_elliptic_quartic_cone_count_is_four():
    for seed in (1, 2, 3):
        curve = build_catalog_variety("elliptic4", seed, FP)
        count, _ = segre_count_elliptic_quartic(curve, seed, want_vertices=False)
        assert count == 4


def test_count_invariant_under_coordinate_change():
    curve = build_catalog_variety("elliptic4", 1, FP)
    rng = seeded_rng("segre-change")
    base = pencil_det_distinct_roots(quadric_pencil(curve))
    for _ in range(3):
        m = random_invertible_matrix(FP, rng, 4)
        moved = Ideal.of(curve.ring, apply_linear_substitution(curve.ideal, m).gens)
        assert pencil_det_distinct_roots(quadric_pencil(moved)) == base


# -- the pencil quartic against the former sampling loop ---------------------


def _ref_pencil_det_form(a, b, field):
    """The former route: det(t*A + B) at t = 0..4, interpolated and padded to
    the five coefficients of the binary quartic."""
    xs, ys = [], []
    for t in range(5):
        tv = field.coerce(t)
        m = [[field.add(field.mul(tv, a[i][j]), b[i][j]) for j in range(4)] for i in range(4)]
        xs.append(tv)
        ys.append(det(m, field))
    coeffs = u_interpolate(xs, ys, field)
    return list(coeffs) + [field.zero] * (5 - len(coeffs))


PENCIL_FIELDS = [QQ, PrimeField(32003), resolve_field("fp:auto", 1)]


def _pencil_det_form(a, b, field):
    form = u_det_pencil(b, a, field)
    return form + [field.zero] * (5 - len(form))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(PENCIL_FIELDS), st.data())
def test_pencil_det_form_matches_sampling_reference(field, data):
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9)).map(field.coerce)
    square = st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4)
    a, b = data.draw(square), data.draw(square)
    # zero rows of A lower the degree bound and the number of samples
    for i in data.draw(st.lists(st.integers(0, 3), max_size=4)):
        a[i] = [field.zero] * 4
    if data.draw(st.booleans()):  # symmetric, as quadric_pencil builds them
        a = [[a[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)]
        b = [[b[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)]
    assert _pencil_det_form(a, b, field) == _ref_pencil_det_form(a, b, field)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 35])
def test_elliptic_pencils_match_sampling_reference(seed):
    field = resolve_field("fp:auto", seed)
    pencil = quadric_pencil(build_catalog_variety("elliptic4", seed, field))
    assert list(pencil.det_form) == _ref_pencil_det_form(pencil.a, pencil.b, field)


def test_degenerate_pencil_flagged():
    ring = ambient_ring(3, FP)
    x0, x1, x2, x3 = ring.gens()
    degenerate = Ideal.of(ring, [x0 * x1, x2 * x3])
    count = pencil_det_distinct_roots(quadric_pencil(degenerate))
    assert count < 4  # repeated roots: non-generic configuration


def test_vertices_verify_and_have_infinite_fibers():
    found = None
    for attempt, p in zip(range(60), prime_stream(5)):
        F2 = PrimeField(p)
        curve = build_catalog_variety("elliptic4", 1, F2)
        count, vertices = segre_count_elliptic_quartic(curve, 1)
        assert count == 4
        if vertices:
            found = (F2, curve, vertices)
            break
    if found is None:
        pytest.skip("no splitting prime in the probe window")
    F2, curve, vertices = found
    assert len(vertices) == 4
    assert len({v.coords for v in vertices}) == 4  # pairwise distinct
    ds = two_decompositions(curve, vertices[0], seed=1)
    assert ds.positive_dimensional


def test_general_point_of_twisted_cubic_not_segre():
    curve = build_catalog_variety("rnc3", 1, FP)
    rng = seeded_rng("not-segre")
    o = random_point(FP, rng, 4)
    verdict = is_segre_point(curve, o, seed=1)
    assert not verdict.verdict
    assert verdict.image_degree == verdict.source_degree == 3
    # finite-projection multiplicativity: the image degree divides the source
    assert verdict.source_degree % verdict.image_degree == 0


def test_image_degree_divides_for_vertex_projection():
    found = None
    for attempt, p in zip(range(60), prime_stream(8)):
        F2 = PrimeField(p)
        curve = build_catalog_variety("elliptic4", 2, F2)
        count, vertices = segre_count_elliptic_quartic(curve, 2)
        if vertices:
            found = (curve, vertices[0])
            break
    if found is None:
        pytest.skip("no splitting prime in the probe window")
    curve, vertex = found
    verdict = is_segre_point(curve, vertex, seed=2)
    assert verdict.verdict
    assert verdict.image_degree == 2 and verdict.source_degree == 4
    assert verdict.source_degree % verdict.image_degree == 0


def test_pair_segre_skew_lines_always_false():
    ring = ambient_ring(3, FP)
    x0, x1, x2, x3 = ring.gens()
    l1 = ProjectiveVariety(3, Ideal.of(ring, [x2, x3]), None, {"name": "l1", "key": "l1", "d": 1})
    l2 = ProjectiveVariety(3, Ideal.of(ring, [x0, x1]), None, {"name": "l2", "key": "l2", "d": 1})
    rng = seeded_rng("skew")
    checked = 0
    while checked < 5:
        o = random_point(FP, rng, 4)
        if l1.contains_point(o) or l2.contains_point(o):
            continue
        checked += 1
        assert not pair_segre_test(l1, l2, o)


def test_pair_segre_constructed_positive_case():
    ring = ambient_ring(3, FP)
    x0, x1, x2, x3 = ring.gens()
    conic_y = ProjectiveVariety(
        3, Ideal.of(ring, [x3 - x0, x0 * x2 - x1 * x1]), None, {"name": "y", "key": "y", "d": 2}
    )
    conic_t = ProjectiveVariety(
        3, Ideal.of(ring, [x3 - x0 - x1, x0 * x2 - x1 * x1]), None, {"name": "t", "key": "t", "d": 2}
    )
    vertex = ProjectivePoint.make(FP, [0, 0, 0, 1])
    assert pair_segre_test(conic_y, conic_t, vertex)


def test_pair_segre_span_deficient_case_false():
    ring = ambient_ring(4, FP)
    y0, y1, y2, y3, y4 = ring.gens()
    conic = ProjectiveVariety(
        4,
        Ideal.of(ring, [y3, y4, y0 * y2 - y1 * y1]),
        None,
        {"name": "plane_conic", "key": "plane_conic", "d": 2},
    )
    quartic = build_catalog_variety("rnc4", 1, FP)
    rng = seeded_rng("y9")
    checked = 0
    while checked < 3:
        o = random_point(FP, rng, 5)
        if conic.contains_point(o) or quartic.contains_point(o):
            continue
        checked += 1
        assert not pair_segre_test(conic, quartic, o)


def test_pair_segre_unequal_degrees_false():
    # both curves span P^3 but have different degrees: no shared projections
    y = build_catalog_variety("rnc3", 1, FP)
    t = build_catalog_variety("rational_quartic3", 1, FP)
    rng = seeded_rng("y5")
    checked = 0
    while checked < 3:
        o = random_point(FP, rng, 4)
        if y.contains_point(o) or t.contains_point(o):
            continue
        checked += 1
        assert not pair_segre_test(y, t, o)


def test_pair_segre_rejects_missing_span():
    ring = ambient_ring(3, FP)
    x0, x1, x2, x3 = ring.gens()
    c1 = ProjectiveVariety(
        3, Ideal.of(ring, [x3, x0 * x2 - x1 * x1]), None, {"name": "c1", "key": "c1", "d": 2}
    )
    c2 = ProjectiveVariety(
        3, Ideal.of(ring, [x3, x0 * x2 - 2 * x1 * x1]), None, {"name": "c2", "key": "c2", "d": 2}
    )
    o = ProjectivePoint.make(FP, [1, 1, 1, 1])
    with pytest.raises(DegenerateInputError):
        pair_segre_test(c1, c2, o)


# -- the two-image route as the oracle for pair_segre_test ----------------------


def _two_image_pair_test(Y, T, o):
    """The former route: project both curves from o, then compare the images
    by reduced containment both ways."""
    img_y = project_image(Y, [o.coords])
    img_t = project_image(T, [o.coords])
    if not all(radical_membership(g, img_t.ideal) for g in img_y.ideal.gens):
        return False
    return all(radical_membership(g, img_y.ideal) for g in img_t.ideal.gens)


PAIR_FIELDS = [resolve_field("fp:auto", 1), QQ]


def _curve(ring, gens, name):
    return ProjectiveVariety(ring.nvars - 1, Ideal.of(ring, gens), None, {"name": name, "key": name})


def _points_off(field, rng, curves, count):
    n = curves[0].ambient + 1
    points = []
    while len(points) < count:
        o = random_point(field, rng, n)
        if not any(c.contains_point(o) for c in curves):
            points.append(o)
    return points


def _check10_pairs(field, seed=None):
    """The pairs of suite check 10: skew lines, the conic and its cone
    section (from the vertex), and a plane conic against rnc4 in P^4."""
    rng = seeded_rng(("pair-oracle", field.describe()) + (() if seed is None else (seed,)))
    r3 = ambient_ring(3, field)
    x0, x1, x2, x3 = r3.gens()
    l1 = _curve(r3, [x2, x3], "l1")
    l2 = _curve(r3, [x0, x1], "l2")
    pairs = [(l1, l2, o) for o in _points_off(field, rng, [l1, l2], 3)]
    conic_y = _curve(r3, [x3 - x0, x0 * x2 - x1 * x1], "conic_y")
    conic_t = _curve(r3, [x3 - x0 - x1, x0 * x2 - x1 * x1], "conic_t")
    pairs.append((conic_y, conic_t, ProjectivePoint.make(field, [0, 0, 0, 1])))
    r4 = ambient_ring(4, field)
    y0, y1, y2, y3, y4 = r4.gens()
    conic5 = _curve(r4, [y3, y4, y0 * y2 - y1 * y1], "plane_conic")
    rnc4 = build_catalog_variety("rnc4", seed or 1, field)
    pairs += [(conic5, rnc4, o) for o in _points_off(field, rng, [conic5, rnc4], 3)]
    return pairs


@pytest.mark.parametrize("field", PAIR_FIELDS, ids=["fp:auto", "Q"])
def test_union_span_is_ambient_matches_the_span_row_intersection(field):
    # reference: the two span form spaces meet only in 0
    pairs = [(Y, T) for Y, T, _ in _check10_pairs(field)]
    ring = ambient_ring(3, field)
    x0, x1, x2, x3 = ring.gens()
    # two conics in the plane x3 = 0 span only that plane
    c1 = _curve(ring, [x3, x0 * x2 - x1 * x1], "c1")
    c2 = _curve(ring, [x3, x0 * x2 - 2 * x1 * x1], "c2")
    pairs.append((c1, c2))
    verdicts = []
    for Y, T in pairs:
        verdicts.append(union_span_is_ambient(Y, T))
        assert verdicts[-1] == (not row_space_intersection(Y.span_rows, T.span_rows, field))
    assert verdicts == [True] * 7 + [False]


def _catalog_pairs(field, seed):
    """Every ordered pair of distinct catalog curves of P^3 (two of them
    parametrized, elliptic4 not), from one centre off both."""
    curves = [build_catalog_variety(k, seed, field) for k in ("rnc3", "rational_quartic3", "elliptic4")]
    rng = seeded_rng(("pair-catalog", seed))
    return [
        (Y, T, o) for Y in curves for T in curves if Y is not T
        for o in _points_off(field, rng, [Y, T], 1)
    ]


@pytest.mark.parametrize("field_desc", ["fp:auto", "Q"])
@pytest.mark.parametrize("refute", [True, False], ids=["points", "membership"])
def test_pair_segre_matches_the_membership_route(field_desc, refute, monkeypatch):
    if not refute:
        # no fixed point, so the Groebner route decides every pair
        monkeypatch.setattr(ProjectiveVariety, "fixed_points", property(lambda T: []))
    for seed in (1, 2, 3):
        field = resolve_field(field_desc, seed)
        for Y, T, o in _check10_pairs(field, seed) + _catalog_pairs(field, seed):
            assert pair_segre_test(Y, T, o) == _ref_pair_segre_test(Y, T, o)


@pytest.mark.parametrize("field", PAIR_FIELDS, ids=["fp:auto", "Q"])
def test_pair_segre_refutes_the_false_check10_pairs_at_points(field, monkeypatch):
    calls = []
    real = segre.radical_membership

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(segre, "radical_membership", counted)
    for Y, T, o in _check10_pairs(field):
        calls.clear()
        verdict = pair_segre_test(Y, T, o)
        # only the true pair, the conic and its cone section, reaches the
        # membership route: its fixed points are off the conic
        assert bool(calls) == verdict
        points = T.fixed_points
        assert all(T.contains_point(ProjectivePoint.make(field, x)) for x in points)
        assert len(points) == (0 if T.meta["name"] == "conic_t" else 3)


@pytest.mark.parametrize("field", PAIR_FIELDS, ids=["fp:auto", "Q"])
def test_pair_segre_matches_two_image_reference(field):
    verdicts = []
    for Y, T, o in _check10_pairs(field):
        verdict = pair_segre_test(Y, T, o)
        assert verdict == _two_image_pair_test(Y, T, o)
        verdicts.append(verdict)
    assert verdicts == [False] * 3 + [True] + [False] * 3


def _lines_and_a_line_in_their_cone(field):
    """Y = two skew lines, o off Y, and T a line of the plane spanned by o
    and the first line: T projects onto the image of that line, so only
    V(J_T) subset V(J_Y) holds."""
    r3 = ambient_ring(3, field)
    x0, x1, x2, x3 = r3.gens()
    lines = _curve(r3, [x0 * x2, x0 * x3, x1 * x2, x1 * x3], "two_lines")
    o = ProjectivePoint.make(field, [1, 0, 1, 0])
    t = _curve(r3, [x3, x1 - x2], "line_in_plane")  # in span(o, V(x2, x3)) = V(x3)
    assert not lines.contains_point(o) and not t.contains_point(o)
    return lines, t, o


def _counting_projections(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].meta.get("name"))
        return project_image(*args, **kwargs)

    monkeypatch.setattr(segre, "project_image", counted)
    return calls


@pytest.mark.parametrize("field", PAIR_FIELDS, ids=["fp:auto", "Q"])
def test_pair_segre_one_inclusion_in_both_orders(field, monkeypatch):
    lines, t, o = _lines_and_a_line_in_their_cone(field)
    calls = _counting_projections(monkeypatch)
    # forward holds (T's image lies in the two image lines), backward fails
    assert not pair_segre_test(lines, t, o)
    assert calls == ["two_lines", "line_in_plane"]
    assert not _two_image_pair_test(lines, t, o)
    calls.clear()
    # forward fails at once: the second curve is never projected
    assert not pair_segre_test(t, lines, o)
    assert calls == ["line_in_plane"]
    assert not _two_image_pair_test(t, lines, o)


def test_pair_segre_projects_once_when_forward_fails(monkeypatch):
    field = PAIR_FIELDS[0]
    calls = _counting_projections(monkeypatch)
    for Y, T, o in _check10_pairs(field):
        calls.clear()
        verdict = pair_segre_test(Y, T, o)
        assert len(calls) == (2 if verdict else 1)


def test_pair_segre_reads_each_curves_span_once(monkeypatch):
    # a cold variety memo: a catalog curve built by an earlier test already
    # holds its span rows
    monkeypatch.setattr(catalog, "_VARIETY_CACHE", {})
    calls = []

    def counted(ideal):
        calls.append(ideal)
        return span_form_rows(ideal)

    monkeypatch.setattr(geometry, "span_form_rows", counted)
    pairs = _check10_pairs(PAIR_FIELDS[0])
    verdicts = [pair_segre_test(Y, T, o) for Y, T, o in pairs]
    assert verdicts == [False] * 3 + [True] + [False] * 3
    # six distinct curves over seven centres
    curves = {id(c): c for Y, T, _ in pairs for c in (Y, T)}
    assert len(calls) == len(curves) == 6
    assert all(c.span_rows == span_form_rows(c.ideal) for c in curves.values())
    # the spanning guard still runs on every call, from the kept rows
    ring = ambient_ring(3, FP)
    x0, x1, x2, x3 = ring.gens()
    c1 = _curve(ring, [x3, x0 * x2 - x1 * x1], "c1")
    c2 = _curve(ring, [x3, x0 * x2 - 2 * x1 * x1], "c2")
    calls.clear()
    for o in ([1, 1, 1, 1], [1, 2, 3, 4]):
        with pytest.raises(DegenerateInputError):
            pair_segre_test(c1, c2, ProjectivePoint.make(FP, o))
    assert len(calls) == 2
