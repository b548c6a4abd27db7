import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci.kernel import (
    QQ,
    CoefficientError,
    ParseError,
    PrimeField,
    RingContext,
    RingMismatchError,
)


@pytest.fixture
def ring():
    return RingContext(("x0", "x1", "x2"), QQ)


def test_parse_quadratic(ring):
    f = ring.from_string("x0^2 - 2*x0*x1 + x1^2")
    assert f.num_terms() == 3
    assert f.total_degree() == 2


def test_parse_cancellation(ring):
    assert ring.from_string("x0 - x0").is_zero()


def test_parse_rational_coefficients(ring):
    f = ring.from_string("3/2*x2 + 1/3")
    from fractions import Fraction

    assert f.evaluate((0, 0, 2)) == Fraction(3) + Fraction(1, 3)


def test_parse_rational_rejected_mod_p():
    ring = RingContext(("x0", "x1", "x2"), PrimeField(7))
    with pytest.raises(ParseError):
        ring.from_string("3/2*x2")


def test_parse_unknown_variable(ring):
    with pytest.raises(ParseError):
        ring.from_string("x0 + z")


def test_parse_syntax_error_position(ring):
    with pytest.raises(ParseError) as err:
        ring.from_string("x0 + + x1 @")
    assert err.value.position >= 0


def test_terms_sorted_descending_grevlex(ring):
    f = ring.from_string("x2 + x0^2 + x1*x2")
    degrees = [sum(m) for m, _ in f.terms]
    assert degrees == sorted(degrees, reverse=True)
    assert f.leading_monomial() == (2, 0, 0)


def test_arithmetic_ring_mismatch(ring):
    other = RingContext(("y0", "y1"), QQ)
    with pytest.raises(RingMismatchError):
        ring.from_string("x0") + other.from_string("y0")


def test_product_and_power(ring):
    x0, x1, _ = ring.gens()
    assert (x0 + x1) ** 2 == x0 * x0 + x0 * x1 * 2 + x1 * x1


def test_substitute_composition(ring):
    f = ring.from_string("x0*x2 - x1^2")
    pring = RingContext(("s", "t"), QQ)
    s, t = pring.gens()
    img = f.substitute([s * s, s * t, t * t], pring)
    assert img.is_zero()


def _ref_substitute(f, images, target):
    """The former loop: one sorted partial result per source term."""
    result = target.zero()
    for m, c in f.terms:
        part = target.constant(c)
        for i, e in enumerate(m):
            if e:
                part = part * images[i] ** e
        result = result + part
    return result


def _sub_polys(ring, max_exp):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeff = st.fractions(-4, 4, max_denominator=3) if ring.field.char == 0 else st.integers(-3, 3)
    coeff = st.one_of(coeff, st.integers(-(10**12), 10**12))
    return st.dictionaries(monos, coeff, max_size=6).map(ring.from_dict)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from([QQ, PrimeField(32003), PrimeField(2147483659)]), st.data())
def test_substitute_matches_former_loop(field, data):
    source = RingContext(("x0", "x1", "x2"), field)
    target = RingContext(("s", "t"), field)
    f = data.draw(_sub_polys(source, 3))
    images = data.draw(st.lists(_sub_polys(target, 2), min_size=3, max_size=3))
    assert f.substitute(images, target).terms == _ref_substitute(f, images, target).terms


def test_homogeneous_components(ring):
    f = ring.from_string("x0^2 + x1 + 3")
    comps = f.homogeneous_components()
    assert [c.total_degree() for c in comps] == [2, 1, 0]
    assert not f.is_homogeneous()
    assert ring.from_string("x0^2 - x1*x2").is_homogeneous()


def test_prime_field_coercion():
    F = PrimeField(10007)
    ring = RingContext(("x",), F)
    f = ring.from_string("10008*x")
    assert f == ring.from_string("x")
    assert F.from_rational(1, 2) == pow(2, -1, 10007)


def test_prime_field_validation():
    with pytest.raises(CoefficientError):
        PrimeField(2)
    with pytest.raises(CoefficientError):
        PrimeField(15)


def test_proportionality(ring):
    f = ring.from_string("2*x0 - 4*x1")
    g = ring.from_string("x0 - 2*x1")
    assert f.proportional_to(g)
    assert not f.proportional_to(ring.from_string("x0 + x1"))
