import pytest

from entryloci.catalog import build_catalog_variety
from entryloci.geometry import (
    ProjectivePoint,
    ProjectiveVariety,
    ambient_ring,
    apply_linear_substitution,
    random_invertible_matrix,
    random_point,
)
from entryloci.kernel import DegenerateInputError, Ideal, PrimeField
from entryloci.kernel.rng import seeded_rng
from entryloci.rank_secant import two_decompositions
from entryloci.segre import (
    is_segre_point,
    pair_segre_test,
    pencil_det_distinct_roots,
    quadric_pencil,
    segre_count_elliptic_quartic,
)
from entryloci.suite import prime_stream

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
        assert not pair_segre_test(l1, l2, o, seed=1)


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
    assert pair_segre_test(conic_y, conic_t, vertex, seed=1)


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
        assert not pair_segre_test(conic, quartic, o, seed=1)


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
        assert not pair_segre_test(y, t, o, seed=1)


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
        pair_segre_test(c1, c2, o, seed=1)
