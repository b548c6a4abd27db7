from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci.kernel import (
    GREVLEX,
    LEX,
    QQ,
    Block,
    CoefficientError,
    ParseError,
    PrimeField,
    RingContext,
    RingMismatchError,
)
from helpers import num_terms, proportional_to


@pytest.fixture
def ring():
    return RingContext(("x0", "x1", "x2"), QQ)


def test_parse_quadratic(ring):
    f = ring.from_string("x0^2 - 2*x0*x1 + x1^2")
    assert num_terms(f) == 3
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


# -- oracle: products, powers and substitution through the field's methods ---

ARITH_FIELDS = [QQ, PrimeField(2147483659), PrimeField(2**61 - 1)]


def _ref_mul(f, g):
    field = f.ring.field
    acc = {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            m = tuple(a + b for a, b in zip(m1, m2))
            acc[m] = field.add(acc.get(m, field.zero), field.mul(c1, c2))
    return f.ring.from_dict(acc)


def _ref_pow(f, n):
    result = f.ring.one()
    for _ in range(n):
        result = _ref_mul(result, f)
    return result


def _ref_substitute(f, images, target):
    """One product of image powers per source term, summed term by term."""
    field = target.field
    acc = {}
    for m, c in f.terms:
        part = target.constant(c)
        for i, e in enumerate(m):
            if e:
                part = _ref_mul(part, _ref_pow(images[i], e))
        for mono, d in part.terms:
            acc[mono] = field.add(acc.get(mono, field.zero), d)
    return target.from_dict(acc)


def _coeffs(field):
    if field.char == 0:
        # small values force cancellations; large numerators and denominators
        return st.one_of(
            st.fractions(-4, 4, max_denominator=3),
            st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
        )
    p = field.char
    return st.one_of(st.integers(-3, 3), st.integers(-(p - 1), p - 1))


def _sub_polys(ring, max_exp):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    return st.dictionaries(monos, _coeffs(ring.field), max_size=6).map(ring.from_dict)


def _assert_canonical(g):
    field = g.ring.field
    key = g.ring.order.key
    for _, c in g.terms:
        if field.char:
            assert type(c) is int and 0 < c < field.char
        else:
            assert type(c) is Fraction and c != 0
    assert list(g.terms) == sorted(g.terms, key=lambda t: key(t[0]), reverse=True)
    assert len({m for m, _ in g.terms}) == len(g.terms)


def _images(kind, field, data):
    """(target ring, one image per x0..x2) of one kind: any polynomials of
    degree up to 2, linear forms, an affine chart (x0 -> 1), or
    lam * a_i + q_i under Block(1), the shape of the rank-2 incidence
    system."""
    if kind == "general":
        target = RingContext(("s", "t"), field)
        return target, data.draw(st.lists(_sub_polys(target, 2), min_size=3, max_size=3))
    if kind == "lambda":
        target = RingContext(("lam", "a0", "a1", "a2"), field, Block(1))
        lam = target.variable(0)
        q = data.draw(st.lists(_coeffs(field), min_size=3, max_size=3))
        return target, [lam * target.variable(1 + i) + target.constant(c) for i, c in enumerate(q)]
    target = RingContext(("s", "t", "u"), field)
    linear = st.dictionaries(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), _coeffs(field), max_size=3
    ).map(target.from_dict)
    images = data.draw(st.lists(linear, min_size=3, max_size=3))
    if kind == "chart":
        images[0] = target.one()
    return target, images


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(ARITH_FIELDS), st.sampled_from([GREVLEX, LEX, Block(1)]), st.data())
def test_products_and_powers_match_field_method_reference(field, order, data):
    ring = RingContext(("x0", "x1", "x2"), field, order)
    f = data.draw(_sub_polys(ring, 3))
    g = data.draw(_sub_polys(ring, 3))
    n = data.draw(st.integers(0, 5))
    for got, want in ((f * g, _ref_mul(f, g)), (f**n, _ref_pow(f, n))):
        assert got.ring == ring and got.terms == want.terms
        _assert_canonical(got)
    # a zero factor cancels every term
    assert (f * ring.zero()).terms == ring.zero().terms == (ring.zero() ** (n + 1)).terms


def _ref_add(f, g, sign=1):
    """f + sign * g through the field's methods, term by term."""
    field = f.ring.field
    acc = dict(f.terms)
    for m, c in g.terms:
        s = field.add(acc.get(m, field.zero), c if sign == 1 else field.neg(c))
        if s == field.zero:
            acc.pop(m, None)
        else:
            acc[m] = s
    return f.ring.from_dict(acc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(ARITH_FIELDS), st.sampled_from([GREVLEX, LEX, Block(1)]), st.data())
def test_sums_and_differences_match_field_method_reference(field, order, data):
    ring = RingContext(("x0", "x1", "x2"), field, order)
    f = data.draw(_sub_polys(ring, 3))
    g = data.draw(_sub_polys(ring, 3))
    neg_f = ring.from_dict({m: field.neg(c) for m, c in f.terms})
    # g with every other term of f negated: those terms cancel in f + mixed
    mixed = ring.from_dict({**dict(g.terms), **{m: field.neg(c) for m, c in f.terms[::2]}})
    zero = ring.zero()
    for a, b in ((f, g), (f, mixed), (f, neg_f), (f, f), (f, zero), (zero, g)):
        for got, want in ((a + b, _ref_add(a, b)), (a - b, _ref_add(a, b, -1))):
            assert got.ring == ring and got.terms == want.terms
            _assert_canonical(got)
    # full cancellation to zero
    assert (f + neg_f).terms == (f - f).terms == ()
    # a constant on either side
    c = data.draw(_coeffs(field))
    const = ring.constant(c)
    for got, want in (
        (f + c, _ref_add(f, const)),
        (c + f, _ref_add(const, f)),
        (f - c, _ref_add(f, const, -1)),
        (c - f, _ref_add(const, f, -1)),
    ):
        assert got.terms == want.terms
        _assert_canonical(got)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from(ARITH_FIELDS + [PrimeField(32003)]),
    st.sampled_from(["general", "linear", "chart", "lambda"]),
    st.data(),
)
def test_substitute_matches_former_loop(field, kind, data):
    source = RingContext(("x0", "x1", "x2"), field)
    target, images = _images(kind, field, data)
    f = data.draw(_sub_polys(source, 3))
    got = f.substitute(images, target)
    assert got.ring == target and got.terms == _ref_substitute(f, images, target).terms
    _assert_canonical(got)
    # x0*x2 - x1^2 vanishes on (a^2, a*b, b^2): every term cancels
    a, b = images[1], images[2]
    conic = source.from_string("x0*x2 - x1^2")
    assert conic.substitute([a * a, a * b, b * b], target).is_zero()


def _ref_evaluate(f, point):
    """The former loop: one field method call per factor and per sum."""
    field = f.ring.field
    point = [field.coerce(v) for v in point]
    total = field.zero
    for m, c in f.terms:
        v = c
        for i, e in enumerate(m):
            if e:
                power = pow(point[i], e, field.char) if field.char else point[i] ** e
                v = field.mul(v, power)
        total = field.add(total, v)
    return total


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(ARITH_FIELDS + [PrimeField(32003)]), st.data())
def test_evaluate_matches_field_method_reference(field, data):
    ring = RingContext(("x0", "x1", "x2"), field)
    f = data.draw(st.one_of(
        _sub_polys(ring, 4),
        _coeffs(field).map(ring.constant),  # constants, zero included
    ))
    point = data.draw(st.one_of(
        st.lists(_coeffs(field), min_size=3, max_size=3),
        st.just([0, 0, 0]),
        st.lists(st.sampled_from([0, 1, -1]), min_size=3, max_size=3),
    ))
    got = f.evaluate(point)
    want = _ref_evaluate(f, point)
    assert got == want and type(got) is type(want)
    if field.char:
        assert 0 <= got < field.char


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
    assert proportional_to(f, g)
    assert not proportional_to(f, ring.from_string("x0 + x1"))
