from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci.kernel import factor
from entryloci.kernel import (
    QQ,
    BudgetExceededError,
    CharacteristicError,
    NotSquarefreeError,
    PrimeField,
    RingContext,
)
from entryloci.kernel.factor import (
    absolute_factor_count,
    absolute_factor_degrees,
    bivariate_gcd,
    is_squarefree,
    poly_exact_div,
    squarefree_part,
)
from entryloci.kernel.groebner import Budget, limits
from entryloci.kernel.linalg import det
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_degree, u_gcd, u_interpolate, u_scale, u_sub, u_trim
from entryloci.suite import classified, resolve_field
from helpers import proportional_to


@pytest.fixture
def plane():
    return RingContext(("x", "y"), QQ)


def test_squarefree_strips_repeated_factor(plane):
    f = plane.from_string("x - y") ** 2 * plane.from_string("x + y")
    sf = squarefree_part(f)
    assert proportional_to(sf, plane.from_string("x^2 - y^2"))


def test_squarefree_idempotent_on_squarefree_input(plane):
    f = plane.from_string("x^2 + y^2 - 1")
    assert proportional_to(squarefree_part(f), f)


def test_squarefree_perfect_square(plane):
    f = plane.from_string("x^4 - 2*x^2*y^2 + y^4")
    assert proportional_to(squarefree_part(f), plane.from_string("x^2 - y^2"))


def test_squarefree_characteristic_guard():
    ring = RingContext(("x", "y"), PrimeField(3))
    with pytest.raises(CharacteristicError):
        squarefree_part(ring.from_string("x^4 + y"))


def test_bivariate_gcd(plane):
    a = plane.from_string("x - y") * plane.from_string("x + y + 1")
    b = plane.from_string("x - y") * plane.from_string("x^2 + y")
    g = bivariate_gcd(a, b)
    assert proportional_to(g, plane.from_string("x - y"))
    assert proportional_to(poly_exact_div(a, g), plane.from_string("x + y + 1"))


def test_factor_count_fixed_triple(plane):
    assert absolute_factor_count(plane.from_string("x^2 - y^2")) == 2
    # splits over the closure as (x + iy)(x - iy): the rational count would be 1
    assert absolute_factor_count(plane.from_string("x^2 + y^2")) == 2
    assert absolute_factor_count(plane.from_string("y^2 - x^3 + x")) == 1


def test_irreducibility_oracle_for_elliptic_example():
    # independent oracle: y^2 - g(x) factors over the closure iff g is a
    # perfect square; x^3 - x is squarefree of odd degree, hence not a square
    g = [0, -1, 0, 1]  # x^3 - x
    dg = [-1, 0, 3]

    gq = [Fraction(c) for c in g]
    dgq = [Fraction(c) for c in dg]
    assert len(u_gcd(gq, dgq, QQ)) == 1  # constant gcd: squarefree


def test_factor_count_rejects_non_squarefree(plane):
    with pytest.raises(NotSquarefreeError):
        absolute_factor_count(plane.from_string("x^2 - 2*x*y + y^2"))


def test_factor_degrees_reject_non_squarefree_before_any_affine_image(monkeypatch):
    ring = RingContext(("x", "y"), PrimeField(2147483659))
    f = ring.from_string("x^2 - y") ** 2 * ring.from_string("x + y")

    def unreachable(*args):
        raise AssertionError("affine image drawn for a non-squarefree input")

    monkeypatch.setattr(factor, "_random_affine_image", unreachable)
    with pytest.raises(NotSquarefreeError):
        absolute_factor_degrees(f, seeded_rng("not-squarefree"))


def test_factor_count_affine_invariance(plane):
    rng = seeded_rng("factor-invariance")
    f = plane.from_string("x^2 + y^2") * plane.from_string("x - y + 2")
    base = absolute_factor_count(f, rng)
    assert base == 3
    x_img = plane.from_string("2*x + y + 1")
    y_img = plane.from_string("x - y + 3")
    moved = f.substitute([x_img, y_img], plane)
    assert absolute_factor_count(moved, rng) == base
    assert absolute_factor_count(moved.scale(7), rng) == base


def test_factor_degrees_over_prime_field():
    F = PrimeField(2147483659)
    ring = RingContext(("x", "y"), F)
    rng = seeded_rng("factor-degrees")
    f = ring.from_string("x^2 + y^2") * ring.from_string("x^2 - 2*y^2 + 1")
    assert absolute_factor_degrees(f, rng) == [1, 1, 2]
    g = (
        ring.from_string("x^2 + y^2 - 1")
        * ring.from_string("x^2 + 2*y^2 - 3")
        * ring.from_string("2*x^2 + y^2 + x*y - 5")
    )
    assert absolute_factor_degrees(g, rng) == [2, 2, 2]
    assert absolute_factor_degrees(ring.from_string("y^2 - x^3 + x"), rng) == [3]


def test_factor_count_small_characteristic_guard():
    ring = RingContext(("x", "y"), PrimeField(5))
    with pytest.raises(CharacteristicError):
        absolute_factor_count(ring.from_string("x^3 - y^3 + x*y"))


# A factor free of one variable vanishes under that partial derivative, so
# gcd(f, df/dy) alone takes it for a repeated factor.
SQF_FIELDS = [resolve_field("fp:auto", 1), QQ]


@pytest.mark.parametrize("field", SQF_FIELDS, ids=["fp:auto", "Q"])
def test_squarefree_part_keeps_factors_free_of_a_variable(field):
    ring = RingContext(("x", "y"), field)
    x, y = ring.gens()
    assert squarefree_part(x * y) == x * y
    assert squarefree_part(x * y * y) == x * y
    assert squarefree_part(x * x * y) == x * y
    assert is_squarefree(x * y)
    assert not is_squarefree(x * y * y)
    assert absolute_factor_count(x * y) == 2
    with pytest.raises(NotSquarefreeError):
        absolute_factor_count(x * x * y)


@pytest.mark.parametrize("field", SQF_FIELDS, ids=["fp:auto", "Q"])
def test_factor_tools_reject_a_ring_that_is_not_a_plane(field):
    # every caller hands over a polynomial of a two-variable ring; a third
    # variable is an error even where the polynomial uses only two
    ring = RingContext(("x", "y", "z"), field)
    x, y, z = ring.gens()
    for call in (squarefree_part, is_squarefree, absolute_factor_count):
        with pytest.raises(ValueError, match="plane polynomial"):
            call(y * z * z)
    if isinstance(field, PrimeField):
        with pytest.raises(ValueError, match="plane polynomial"):
            absolute_factor_degrees(x * z)


_PLANE_MONOMIALS = [(a, b) for a in range(3) for b in range(3 - a)]
_small_factor = st.dictionaries(
    st.sampled_from(_PLANE_MONOMIALS), st.integers(-3, 3).filter(bool), min_size=1, max_size=4
).filter(lambda d: any(sum(m) for m in d))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_small_factor, st.integers(1, 3)), min_size=1, max_size=3))
def test_squarefree_part_matches_sympy(factors):
    # independent oracle: sympy's sqf_part over Q, equal up to a scalar
    ring = RingContext(("x", "y"), QQ)
    sx, sy = sympy.symbols("x y")
    f = ring.one()
    expr = sympy.Integer(1)
    for terms, e in factors:
        f = f * ring.from_dict(terms) ** e
        expr *= sum(c * sx**a * sy**b for (a, b), c in terms.items()) ** e
    theirs = sympy.Poly(sympy.sqf_part(sympy.expand(expr)), sx, sy)
    expected = ring.from_dict({m: int(c) for m, c in theirs.terms()})
    ours = squarefree_part(f)
    assert proportional_to(ours, expected)
    assert is_squarefree(ours)


# -- the gcd against sympy's --------------------------------------------------


GCD_FIELDS = [PrimeField(32003), QQ]
_SX, _SY = sympy.symbols("x y")


def _to_sympy(f):
    """f as a sympy Poly over its own field."""
    p = f.ring.field.char
    terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in f.terms} or {(0, 0): 0}
    return sympy.Poly.from_dict(terms, _SX, _SY, **({"modulus": p} if p else {"domain": "QQ"}))


def _from_sympy(ring, poly):
    field = ring.field
    return ring.from_dict({m: field.coerce(Fraction(int(c.p), int(c.q))) for m, c in poly.terms() if c})


def _sympy_gcd(f, g):
    return _from_sympy(f.ring, sympy.gcd(_to_sympy(f), _to_sympy(g))).monic()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(GCD_FIELDS), _small_factor, _small_factor, _small_factor, st.integers(1, 5))
def test_bivariate_gcd_matches_sympy(field, a, b, c, k):
    # independent oracle: sympy's gcd, made monic in our term order
    ring = RingContext(("x", "y"), field)
    a, b, c = (ring.from_dict({m: field.coerce(x) for m, x in d.items()}) for d in (a, b, c))
    ab = a * b
    for f, g in [(ab, a * c), (b, c), (ab, ring.zero()), (ring.zero(), ab), (ab, ring.constant(k))]:
        assert bivariate_gcd(f, g) == _sympy_gcd(f, g)
    assert bivariate_gcd(ring.zero(), ring.zero()).is_zero()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(GCD_FIELDS), _small_factor, _small_factor)
def test_squarefree_part_of_a_square_matches_sympy(field, a, b):
    # a^2 * b has a square factor, so the line certificate refuses and the
    # gcd chain decides.  Over Q the oracle is sympy's sqf_part; sympy has no
    # multivariate sqf_part over F_p, so there it is f / gcd(f, f_y, f_x)
    # with sympy's gcd
    ring = RingContext(("x", "y"), field)
    a, b = (ring.from_dict({m: field.coerce(x) for m, x in d.items()}) for d in (a, b))
    f = a * a * b
    assert not factor._line_certifies(f)
    if field.char:
        theirs = _to_sympy(f)
        repeated = sympy.gcd(sympy.gcd(theirs, theirs.diff(_SY)), theirs.diff(_SX))
        expected = _from_sympy(ring, sympy.div(theirs, repeated)[0])
    else:
        expected = _from_sympy(ring, sympy.sqf_part(_to_sympy(f)))
    assert squarefree_part(f) == expected.monic()


def test_bivariate_gcd_runs_under_the_groebner_limits():
    ring = RingContext(("x", "y"), QQ)
    common = ring.from_string("x + y + 1")
    f = common * ring.from_string("x - y")
    g = common * ring.from_string("x + 2*y")
    with pytest.raises(BudgetExceededError), limits(Budget(max_pairs=1)):
        bivariate_gcd(f, g)
    assert bivariate_gcd(f, g) == common


# -- the weight resultant against the former per-sample Sylvester matrix -------


def _ref_resultant_linear_z(fa, ga, fxa, field):
    """The former route: the whole Sylvester matrix of fa and ga - z*fxa
    rebuilt at each of m + d + 2 samples of z, then interpolated."""
    m = u_degree(fa)
    d = max(u_degree(ga), u_degree(fxa))
    samples, values = [], []
    size = m + d
    for t in range(m + d + 2):
        zt = field.coerce(t)
        bt = u_sub(ga, u_scale(fxa, zt, field), field)
        bt = bt + [field.zero] * (d + 1 - len(bt))
        rows = []
        for i in range(d):
            row = [field.zero] * size
            for jj, c in enumerate(reversed(fa)):
                row[i + jj] = c
            rows.append(row)
        for i in range(m):
            row = [field.zero] * size
            for jj, c in enumerate(reversed(bt)):
                row[i + jj] = c
            rows.append(row)
        samples.append(zt)
        values.append(det(rows, field))
    return u_interpolate(samples, values, field)


RESULTANT_FIELDS = [QQ, PrimeField(32003), resolve_field("fp:auto", 1)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(RESULTANT_FIELDS), st.data())
def test_weight_resultant_matches_sylvester_reference(field, data):
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9)).map(field.coerce)

    def univariate(min_degree, max_degree):
        return st.lists(entry, min_size=min_degree + 1, max_size=max_degree + 1).map(
            lambda c: u_trim(c, field)
        )

    fa = data.draw(univariate(1, 5).filter(lambda c: u_degree(c) >= 1))
    ga = data.draw(univariate(-1, 4))
    fxa = data.draw(univariate(-1, 4).filter(lambda c: c or ga))
    got = factor._resultant_linear_z(fa, ga, fxa, field)
    assert got == _ref_resultant_linear_z(fa, ga, fxa, field)


def test_check03_plane_model_resultants_match_sylvester_reference(monkeypatch):
    # the plane model and rng stream that check 03 reads its component degrees from
    field = resolve_field("fp:auto", 1)
    _, rep = classified("veronese_proj4", 1, field)
    seen = []
    real = factor._resultant_linear_z

    def recording(fa, ga, fxa, field):
        seen.append((fa, ga, fxa))
        return real(fa, ga, fxa, field)

    monkeypatch.setattr(factor, "_resultant_linear_z", recording)
    assert absolute_factor_degrees(rep.plane_model, seeded_rng(("veronese-degrees", 1))) == [2, 2, 2]
    assert seen
    for fa, ga, fxa in seen:
        assert real(fa, ga, fxa, field) == _ref_resultant_linear_z(fa, ga, fxa, field)
