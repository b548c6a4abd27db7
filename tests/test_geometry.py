import pytest

from entryloci.catalog import build_catalog_variety, catalog_keys, catalog_metadata
from entryloci.geometry import (
    Parametrization,
    ProjectivePoint,
    ProjectiveVariety,
    ambient_ring,
    cone_over,
    dehomogenize,
    implicitize,
    project_image,
    random_point,
    reduced_dim_degree,
    span_form_rows,
    witness_points,
)
from entryloci.kernel import (
    QQ,
    DegenerateInputError,
    HomogeneityError,
    Ideal,
    PrimeField,
    RingContext,
)
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.rng import seeded_rng
from helpers import sample_point

FP = PrimeField(2147483659)


def test_catalog_keys_and_metadata():
    keys = catalog_keys()
    assert "scroll12" in keys and "rnc3" in keys
    assert catalog_metadata("delpezzo4") == {"n": 2, "d": 4, "g": 1}


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
    assert g.proportional_to(target.from_string("x1^2 - x0*x2"))


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
