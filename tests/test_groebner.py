from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entryloci.kernel import (
    QQ,
    Budget,
    BudgetExceededError,
    Ideal,
    PrimeField,
    RingContext,
    eliminate,
    groebner_basis,
    limits,
    normal_form,
    verify_groebner_basis,
)
from entryloci.kernel import groebner, ideals
from entryloci.kernel.orders import GREVLEX, LEX, Block
from helpers import reduce_mod


def test_single_generator_is_its_own_basis():
    ring = RingContext(("x", "y"), QQ)
    gb = groebner_basis(Ideal.of(ring, [ring.from_string("x")]))
    assert [g.to_string() for g in gb.basis] == ["x"]


def test_twisted_cubic_parameter_elimination():
    # oracle: substituting x = t^2, y = t^3 must kill every output generator,
    # and the eliminant must vanish at sample points of the curve
    ring = RingContext(("t", "x", "y"), QQ)
    gens = [ring.from_string("x - t^2"), ring.from_string("y - t^3")]
    out = eliminate(Ideal.of(ring, gens), 1)
    assert len(out.gens) == 1
    g = out.gens[0]
    pring = RingContext(("t",), QQ)
    t = pring.variable(0)
    assert g.substitute([t**2, t**3], pring).is_zero()
    for tv in (2, 3, 5):
        x, y = Fraction(tv * tv), Fraction(tv**3)
        assert g.evaluate((x, y)) == 0
    # minimality: degree 3 with 2 affine solutions' worth of structure
    assert g.total_degree() == 3


def test_shape_position_example():
    # oracle: solving x = y, 2y^2 = 1 by hand gives two solutions
    ring = RingContext(("x", "y"), QQ)
    gb = groebner_basis(
        Ideal.of(ring, [ring.from_string("x^2 + y^2 - 1"), ring.from_string("x - y")])
    )
    lts = sorted(g.leading_monomial() for g in gb.basis)
    assert lts == [(0, 2), (1, 0)]
    univ = [g for g in gb.basis if g.leading_monomial() == (0, 2)][0]
    # the univariate member is y^2 - 1/2, consistent with the two hand solutions
    assert univ.constant_value() == Fraction(-1, 2)


def test_normal_form_membership_and_idempotence():
    ring = RingContext(("x", "y"), QQ)
    gb = groebner_basis(Ideal.of(ring, [ring.from_string("x")]))
    assert normal_form(ring.from_string("x^2"), gb).is_zero()
    r = normal_form(ring.from_string("y + x*y"), gb)
    assert r == ring.from_string("y")
    assert normal_form(r, gb) == r


def test_every_emitted_basis_passes_spolynomial_closure():
    ring = RingContext(("x0", "x1", "x2", "x3"), QQ)
    x0, x1, x2, x3 = ring.gens()
    samples = [
        [x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3],
        [x0**2 + x1**2 - x2**2, x0 - x1 + x3],
        [x0 * x1 - x2 * x3, x0**3 - x1 * x2 * x3],
    ]
    for gens in samples:
        gb = groebner_basis(Ideal.of(ring, gens))
        assert len(gb.basis) <= 30
        assert verify_groebner_basis(gb)


def test_block_order_eliminates_leading_variables():
    ring = RingContext(("t", "u", "x", "y", "z"), QQ, Block(2))
    key = ring.order.key
    assert key((1, 0, 0, 0, 0)) > key((0, 0, 5, 5, 5))
    assert key((0, 1, 0, 0, 0)) > key((0, 0, 9, 0, 0))


def test_lex_vs_grevlex_leading_terms():
    ring_g = RingContext(("x", "y", "z"), QQ, GREVLEX)
    ring_l = RingContext(("x", "y", "z"), QQ, LEX)
    f_g = ring_g.from_string("x + y^2")
    f_l = ring_l.from_string("x + y^2")
    assert f_g.leading_monomial() == (0, 2, 0)
    assert f_l.leading_monomial() == (1, 0, 0)


def test_budget_error_is_raised_not_partial():
    ring = RingContext(("a", "b", "c", "d"), PrimeField(32003))
    gens = [
        ring.from_string("a^3*b - c*d^2 + a"),
        ring.from_string("b^3*c - a*d^2 + b"),
        ring.from_string("c^3*d - a^2*b + c"),
    ]
    with pytest.raises(BudgetExceededError), limits(Budget(max_pairs=3)):
        groebner_basis(Ideal.of(ring, gens), GREVLEX)


def test_limits_reset_after_a_budget_exit(monkeypatch):
    # the block that raised leaves the limits it found behind: the next
    # basis is computed, not taken from the cache, under the default ones
    ring = RingContext(("a", "b", "c", "d"), PrimeField(32003))
    ideal = Ideal.of(ring, [
        ring.from_string("a^3*b - c*d^2 + a"),
        ring.from_string("b^3*c - a*d^2 + b"),
        ring.from_string("c^3*d - a^2*b + c"),
    ])
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    with pytest.raises(BudgetExceededError), limits(Budget(max_pairs=1)):
        with limits(Budget(max_pairs=2)):
            pass
        assert groebner.current_budget() == Budget(max_pairs=1)
        groebner_basis(ideal, GREVLEX)
    assert groebner.current_budget() == Budget()
    meters = []
    fresh = Budget.fresh

    def recording(budget):
        meters.append((budget, fresh(budget)))
        return meters[-1][1]

    monkeypatch.setattr(Budget, "fresh", recording)
    gb = groebner_basis(ideal, GREVLEX)
    assert [b for b, _ in meters] == [Budget()] and meters[0][1].pairs > 1
    assert verify_groebner_basis(gb)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_time_budget_holds_when_every_pair_is_pruned(field):
    # coprime leading terms: the product criterion prunes every pair as it
    # is made, so no pair is popped and only the per-update clock reads can
    # see the limit
    ring = RingContext(("x0", "x1", "x2"), field)
    gens = list(ring.gens())
    assert groebner.buchberger(gens, ring) == gens[::-1]
    with pytest.raises(BudgetExceededError), limits(Budget(max_seconds=0.0)):
        groebner.buchberger(gens, ring)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_pair_update_keeps_one_of_two_new_pairs_with_one_lcm(field):
    # x*y + z enters last: its pairs with x + 1 and y + 1 share the lcm x*y
    # and neither is coprime, so criterion F keeps exactly one of them; with
    # neither, x*y + z would only be dropped as dominated, and z + 1 lost
    ring = RingContext(("x", "y", "z"), field)
    gens = [ring.from_string(g) for g in ("x + 1", "y + 1", "x*y + z")]
    budget = _RecordingBudget()
    with limits(budget):
        basis = groebner.buchberger(gens, ring)
    assert [g.to_string() for g in basis] == ["z + 1", "y + 1", "x + 1"]
    assert budget.meter.pairs == 1


class _RecordingBudget(Budget):
    def fresh(self):
        self.meter = super().fresh()
        return self.meter


def test_groebner_over_prime_field_matches_rational_leading_terms():
    ring_q = RingContext(("x", "y", "z"), QQ)
    gens_q = [ring_q.from_string("x^2 + y*z - 1"), ring_q.from_string("x*z - y + 2")]
    p = 2147483659
    ring_p = RingContext(("x", "y", "z"), PrimeField(p))
    gens_p = [reduce_mod(g, ring_p) for g in gens_q]
    gb_q = groebner_basis(Ideal.of(ring_q, gens_q))
    gb_p = groebner_basis(Ideal.of(ring_p, gens_p))
    assert [g.leading_monomial() for g in gb_q.basis] == [
        g.leading_monomial() for g in gb_p.basis
    ]


SYMPY_P = 32003
XYZ = sympy.symbols("x y z")
_SMALL_MONOMIALS = [
    (a, b, c) for a in range(4) for b in range(4 - a) for c in range(4 - a - b)
]
_small_generator = st.dictionaries(
    st.sampled_from(_SMALL_MONOMIALS), st.integers(1, SYMPY_P - 1), min_size=1, max_size=5
)
# non-unit integer and fractional coefficients, so that the kernel's
# pseudo-division over Z has to scale
_q_coefficient = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 1, 2, 3, 6])
)
_q_generator = st.dictionaries(
    st.sampled_from(_SMALL_MONOMIALS), _q_coefficient, min_size=1, max_size=4
)


def _sympy_domain(field):
    return {"modulus": SYMPY_P} if field.char else {"domain": sympy.QQ}


def _expr(terms):
    x, y, z = XYZ
    return sum(
        sympy.Rational(c.numerator, c.denominator) * x**a * y**b * z**e for (a, b, e), c in terms
    )


def _sympy_terms(expr, field):
    """Sorted (monomial, coefficient) pairs of a sympy polynomial: over F_p
    its symmetric residues mapped into [0, p), over Q as ``Fraction``s."""
    poly = expr if isinstance(expr, sympy.Poly) else sympy.Poly(expr, *XYZ, **_sympy_domain(field))
    if field.char:
        return sorted((m, int(c) % SYMPY_P) for m, c in poly.terms() if c)
    return sorted((m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms() if c)


def _assert_basis_matches_sympy(gens, order, field):
    # independent oracle: sympy's reduced basis
    ring = RingContext(("x", "y", "z"), field)
    gb = groebner_basis(Ideal.of(ring, [ring.from_dict(g) for g in gens]), order)
    ours = sorted(sorted(g.terms) for g in gb.basis)
    exprs = [_expr(g.items()) for g in gens]
    theirs = sympy.groebner(exprs, *XYZ, order=order.name, **_sympy_domain(field))
    assert ours == sorted(_sympy_terms(p, field) for p in theirs.polys)
    return gb, theirs


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_small_generator, min_size=2, max_size=3))
def test_reduced_grevlex_basis_matches_sympy(gens):
    _assert_basis_matches_sympy(gens, GREVLEX, PrimeField(SYMPY_P))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(_small_generator, min_size=2, max_size=3))
def test_reduced_lex_basis_matches_sympy(gens):
    # lex is where sugar and normal selection pick pairs most differently
    _assert_basis_matches_sympy(gens, LEX, PrimeField(SYMPY_P))


def _sympy_spolynomial(f, g, order):
    lt_f = sympy.LT(f, *XYZ, order=order.name)
    lt_g = sympy.LT(g, *XYZ, order=order.name)
    m = sympy.lcm(sympy.LM(f, *XYZ, order=order.name), sympy.LM(g, *XYZ, order=order.name))
    return sympy.expand(m / lt_f * f - m / lt_g * g)


def _fraction_terms(poly):
    assert all(type(c) is Fraction and c for _, c in poly.terms)
    return sorted(poly.terms)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.sampled_from([GREVLEX, LEX]),
    st.lists(_q_generator, min_size=2, max_size=3),
    _q_generator,
)
@example(
    GREVLEX,
    [
        {(2, 1, 0): Fraction(6), (0, 0, 1): Fraction(-10, 3)},
        {(0, 2, 0): Fraction(4), (1, 0, 1): Fraction(-3), (0, 0, 0): Fraction(7, 2)},
    ],
    {(3, 2, 0): Fraction(1), (0, 0, 3): Fraction(5, 7)},
)
def test_basis_normal_form_and_spolynomial_over_q_match_sympy(order, gens, dividend):
    gb, theirs = _assert_basis_matches_sympy(gens, order, QQ)
    ring = gb.ring
    reduce_q = dict(order=order.name, domain=sympy.QQ)
    # normal forms against the prepared basis and against the plain list
    f = ring.from_dict(dividend)
    _, want = sympy.reduced(_expr(dividend.items()), theirs.exprs, *XYZ, **reduce_q)
    want = _sympy_terms(want, QQ)
    assert _fraction_terms(normal_form(f, gb)) == want
    assert _fraction_terms(groebner.normal_form(f, list(gb.basis))) == want
    # S-polynomials of the generators, and their normal forms, which vanish
    polys = [ring.from_dict(g) for g in gens]
    exprs = [_expr(g.items()) for g in gens]
    for j in range(len(polys)):
        for i in range(j):
            s = groebner.spolynomial(polys[i], polys[j])
            s_expr = _sympy_spolynomial(exprs[i], exprs[j], order)
            assert _fraction_terms(s) == _sympy_terms(s_expr, QQ)
            _, rem = sympy.reduced(s_expr, theirs.exprs, *XYZ, **reduce_q)
            assert _sympy_terms(rem, QQ) == sorted(normal_form(s, gb).terms) == []
