"""The kernel against the implementations it replaced.

``_ref_normal_form_terms``, ``_ref_spoly_terms``, ``_ref_rref`` and
``_ref_det`` are the former implementations, which reduced every product and
difference through the field's methods and keyed terms by the order key
itself, with exponent tuples as monomials; over Q they are the ``Fraction``
eliminations that integer Gauss-Jordan and Bareiss replaced.  The current
ones, which code each monomial as one int, must give term for term the same
remainders, the same RREF rows and pivots, the same determinants and the
same reduction counts, and every coefficient they return must be canonical:
an int in [0, p) over F_p, a ``Fraction`` over Q.  Over Q the current kernel
divides primitive integer divisors by pseudo-division and returns each
remainder as integers with a scale; the remainder divided by its scale must
equal the reference's ``Fraction`` remainder term for term.

The sparse Gauss-Jordan ``rref`` is also checked against ``_ref_rref`` on
mostly-zero matrices and on Gao's PDE systems, the matrices it was made
for: a degree-6 product of three conics over a prime near 2^31 and a
degree-4 product of two conics over Q with large coefficients.

``_ref_u_gcd`` is Euclid's algorithm on ``Fraction``s, which ``u_gcd`` over Q
replaced with a primitive pseudo-remainder sequence over Z; the monic gcd is
unique, so both must return it coefficient for coefficient.

``_ref_buchberger`` is the former pair loop, which took the pair with the
smallest lcm in the active order next (normal selection).  The reduced basis
is unique, so ``buchberger``, which selects by sugar, must return the same
basis term for term.
"""

import heapq
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci.catalog import build_catalog_variety
from entryloci.cli import main
from entryloci.geometry import random_point
from entryloci.kernel import (
    QQ,
    Block,
    Budget,
    BudgetExceededError,
    Ideal,
    PrimeField,
    RingContext,
    groebner_basis,
)
from entryloci.kernel import ideals
from entryloci.kernel.groebner import (
    MAX_EXPONENT,
    _Codes,
    _cleared,
    _coded_terms,
    _interreduce,
    _normal_form_terms,
    _normalized_terms,
    _spoly_terms,
    buchberger,
    current_budget,
    limits,
    normal_form,
    spolynomial,
)
from entryloci.kernel.factor import _gao_rows
from entryloci.kernel.linalg import det, kernel_basis, rref
from entryloci.kernel.orders import GREVLEX, LEX
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_divmod, u_gcd, u_monic, u_mul, u_trim
from entryloci.rank_secant import incidence_generators
from entryloci.suite import resolve_field

FIELDS = [QQ, PrimeField(32003), PrimeField(2147483659)]
NAMES = ("x", "y", "z")
ORDERS = [GREVLEX, LEX, Block(1)]


# -- the former field-method kernel, kept as the reference --------------------


def _ref_divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _ref_monic_keyed(terms, field):
    lc = terms[0][2]
    if lc == field.one:
        return terms
    inv = field.inv(lc)
    return [(k, m, field.mul(c, inv)) for k, m, c in terms]


def _ref_normal_form_terms(f_terms, basis, field, key_of, meter):
    if not f_terms:
        return []
    zero = field.zero
    sub = field.sub
    mul = field.mul
    work = {}
    heap = []
    for k, m, c in f_terms:
        prev = work.get(m)
        if prev is None:
            work[m] = c
            heap.append((tuple(-x for x in k), m))
        else:
            s = field.add(prev, c)
            if s == zero:
                del work[m]
            else:
                work[m] = s
    heapq.heapify(heap)
    remainder = []
    nvars_range = None
    while heap:
        negk, mono = heapq.heappop(heap)
        c = work.get(mono)
        if c is None:
            continue
        reducer = None
        for g_terms, g_lt in basis:
            if _ref_divides(g_lt, mono):
                reducer = (g_terms, g_lt)
                break
        if reducer is None:
            del work[mono]
            remainder.append((tuple(-x for x in negk), mono, c))
            continue
        g_terms, g_lt = reducer
        shift = tuple(a - b for a, b in zip(mono, g_lt))
        meter.tick_reduction(len(g_terms))
        if nvars_range is None:
            nvars_range = range(len(mono))
        for _, gm, gc in g_terms:
            m2 = tuple(gm[i] + shift[i] for i in nvars_range)
            prev = work.get(m2)
            delta = mul(c, gc)
            if prev is None:
                nv = sub(zero, delta)
                if nv != zero:
                    work[m2] = nv
                    heapq.heappush(heap, (tuple(-x for x in key_of(m2)), m2))
            else:
                nv = sub(prev, delta)
                if nv == zero:
                    del work[m2]
                else:
                    work[m2] = nv
    return remainder


def _ref_spoly_terms(fi, fj, lcm, key_of, field, meter):
    terms_i, lt_i = fi
    terms_j, lt_j = fj
    shift_i = tuple(a - b for a, b in zip(lcm, lt_i))
    shift_j = tuple(a - b for a, b in zip(lcm, lt_j))
    meter.tick_reduction(len(terms_i) + len(terms_j))
    out = []
    rng = range(len(lcm))
    for _, m, c in terms_i:
        m2 = tuple(m[i] + shift_i[i] for i in rng)
        out.append((key_of(m2), m2, c))
    neg = field.neg
    for _, m, c in terms_j:
        m2 = tuple(m[i] + shift_j[i] for i in rng)
        out.append((key_of(m2), m2, neg(c)))
    return out


def _ref_rref(rows, field):
    a = [list(r) for r in rows]
    if not a:
        return a, []
    m, n = len(a), len(a[0])
    zero = field.zero
    piv_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot = None
        for i in range(r, m):
            if a[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                row_r = a[r]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], row_r)]
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def _ref_buchberger(polys, ring):
    """``buchberger`` with normal selection: pairs are popped by the order
    key of their lcm alone."""
    meter = current_budget().fresh()
    field = ring.field
    order_key = ring.order.key
    codes = _Codes(ring.order, ring.nvars)
    basis = []
    lts = []
    for p in polys:
        if p.is_zero():
            continue
        terms = sorted(_coded_terms(p, codes), key=lambda t: t[0])
        basis.append((_normalized_terms(terms, field), terms[0][0]))
        lts.append(codes.exponents[terms[0][0]])
    if not basis:
        return []
    pair_heap = []
    pending = set()

    def push_pair(i, j):
        lcm = tuple(map(max, lts[i], lts[j]))
        heapq.heappush(pair_heap, (order_key(lcm), i, j, lcm))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)
    while pair_heap:
        _, i, j, lcm = heapq.heappop(pair_heap)
        pending.discard((i, j))
        meter.tick_pair()
        if all(a == 0 or b == 0 for a, b in zip(lts[i], lts[j])):
            continue
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if _ref_divides(lts[k], lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        sp = _spoly_terms(basis[i], basis[j], codes[lcm], meter)
        rem, _ = _normal_form_terms(sp, basis, field, codes.guard, meter)
        if not rem:
            continue
        rem = _normalized_terms(rem, field)
        basis.append((rem, rem[0][0]))
        lts.append(codes.exponents[rem[0][0]])
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)
    return _interreduce(basis, ring, field, codes, meter)


# -- both kernels side by side ------------------------------------------------


class _Both:
    """One divisor list keyed for both kernels: the reference by the order
    key, monic, the current one by the integer code of each monomial and
    normalized as the kernel prepares it (primitive over Z over Q)."""

    def __init__(self, ring, polys):
        self.ring = ring
        self.field = ring.field
        self.key_of = ring.order.key
        self.codes = _Codes(ring.order, ring.nvars)
        self.ref_basis = [self._ref_monic(p) for p in polys]
        self.basis = [self._prepared(p) for p in polys]

    def _ref_monic(self, poly):
        terms = sorted(
            ((self.key_of(m), m, c) for m, c in poly.terms), key=lambda t: t[0], reverse=True
        )
        return _ref_monic_keyed(terms, self.field), terms[0][1]

    def _prepared(self, poly):
        terms = sorted(_coded_terms(poly, self.codes), key=lambda t: t[0])
        return _normalized_terms(terms, self.field), terms[0][0]

    def decoded(self, coded, scale=1):
        """Exponent tuples of ``coded``; over Q each integer coefficient
        divided by ``scale``, over F_p, where the scale must be 1, as it is."""
        if self.field.char:
            assert scale == 1
            return [(self.codes.exponents[k], c) for k, c in coded]
        assert all(type(c) is int for _, c in coded)
        return [(self.codes.exponents[k], Fraction(c, scale)) for k, c in coded]

    def remainders(self, poly, ref_basis=None, basis=None):
        """(reference, current) remainders and reduction counts of ``poly``."""
        ref_meter, meter = Budget().fresh(), Budget().fresh()
        ref_terms = sorted(
            ((self.key_of(m), m, c) for m, c in poly.terms), key=lambda t: t[0], reverse=True
        )
        ref = _ref_normal_form_terms(
            ref_terms, self.ref_basis if ref_basis is None else ref_basis,
            self.field, self.key_of, ref_meter,
        )
        terms, den = _coded_terms(poly, self.codes), 1
        if not self.field.char:
            terms, den = _cleared(terms)
        cur, scale = _normal_form_terms(
            terms, self.basis if basis is None else basis, self.field, self.codes.guard, meter,
        )
        return _pairs(ref), ref_meter.reductions, self.decoded(cur, den * scale), meter.reductions

    def spoly_remainders(self, i, j):
        """(reference, current) remainders and counts of S(g_i, g_j) modulo
        the whole list, and modulo nothing (the S-polynomial itself)."""
        lcm = tuple(map(max, self.ref_basis[i][1], self.ref_basis[j][1]))
        out = []
        for divisors, ref_divisors in ((self.basis, self.ref_basis), ([], [])):
            ref_meter, meter = Budget().fresh(), Budget().fresh()
            s_ref = _ref_spoly_terms(
                self.ref_basis[i], self.ref_basis[j], lcm, self.key_of, self.field, ref_meter
            )
            s_ref.sort(key=lambda t: t[0], reverse=True)
            ref = _ref_normal_form_terms(s_ref, ref_divisors, self.field, self.key_of, ref_meter)
            # the current S-polynomial is the monic one times l_i * l_j / d
            s = _spoly_terms(self.basis[i], self.basis[j], self.codes[lcm], meter)
            cur, scale = _normal_form_terms(s, divisors, self.field, self.codes.guard, meter)
            l_i, l_j = self.basis[i][0][0][1], self.basis[j][0][0][1]
            scale *= l_i * l_j // gcd(l_i, l_j)
            out.append(
                (_pairs(ref), ref_meter.reductions, self.decoded(cur, scale), meter.reductions)
            )
        return out


def _pairs(keyed):
    return [(m, c) for _, m, c in keyed]


_MONOMIALS = [(a, b, c) for a in range(3) for b in range(3 - a) for c in range(3 - a - b)]


def _coefficients(field):
    if field.char == 0:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    p = field.char
    # small values force cancellations; the full range covers large products
    return st.one_of(st.integers(-3, 3), st.integers(-(p - 1), p - 1))


def _polys(ring):
    return st.dictionaries(
        st.sampled_from(_MONOMIALS), _coefficients(ring.field), min_size=1, max_size=5
    ).map(ring.from_dict)


def _canonical(field, c):
    if field.char == 0:
        return isinstance(c, Fraction)
    return isinstance(c, int) and 0 <= c < field.char


# -- oracle: normal forms and S-polynomials -----------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(ORDERS), st.data())
def test_normal_forms_match_field_method_reference(field, order, data):
    ring = RingContext(NAMES, field, order)
    divisors = [g for g in data.draw(st.lists(_polys(ring), min_size=1, max_size=3)) if g.terms]
    if not divisors:
        return
    both = _Both(ring, divisors)
    f = data.draw(_polys(ring))
    h = data.draw(_polys(ring))
    # a plain dividend, and a multiple of the first divisor, whose remainder
    # cancels to zero
    for poly in (f, h * divisors[0]):
        ref, ref_count, cur, count = both.remainders(poly)
        assert cur == ref and count == ref_count
        assert all(_canonical(field, c) for _, c in cur)
    assert both.remainders(h * divisors[0])[2] == []
    # _interreduce inputs: each element's own terms modulo the others
    for i, g in enumerate(divisors):
        ref_others = both.ref_basis[:i] + both.ref_basis[i + 1 :]
        others = both.basis[:i] + both.basis[i + 1 :]
        ref, ref_count, cur, count = both.remainders(g.monic(), ref_others, others)
        assert cur == ref and count == ref_count
    # S-polynomials, reduced and as they are
    for j in range(len(divisors)):
        for i in range(j):
            for ref, ref_count, cur, count in both.spoly_remainders(i, j):
                assert cur == ref and count == ref_count
                assert all(_canonical(field, c) for _, c in cur)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(ORDERS), st.data())
def test_prepared_basis_normal_forms_match_plain_division(field, order, data):
    # ideals.normal_form divides by the basis prepared once on the
    # GroebnerBasis; groebner.normal_form on the plain polynomial list
    # prepares it afresh, and both must give the same remainder and count
    ring = RingContext(NAMES, field, order)
    gens = data.draw(st.lists(_polys(ring), min_size=1, max_size=3))
    gb = groebner_basis(Ideal.of(ring, gens))
    other = ring.with_order(LEX if order == GREVLEX else GREVLEX)
    for _ in range(3):
        f = data.draw(_polys(ring))
        # a divisor list that is no basis is made monic when it is prepared
        assert normal_form(f, gens) == normal_form(f, [g.monic() for g in gens])
        prepared, plain = _RecordingBudget(), _RecordingBudget()
        with limits(prepared):
            got = ideals.normal_form(f, gb)
        with limits(plain):
            want = normal_form(f, list(gb.basis))
        assert got.ring == gb.ring and got.terms == want.terms
        assert prepared.meter.reductions == plain.meter.reductions
        # a dividend from a ring with another order is divided in gb's ring
        assert ideals.normal_form(other.from_dict(dict(f.terms)), gb).terms == want.terms
    assert gb.divisors is gb.divisors


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_monomial_spolynomial_is_empty(field):
    # a basis element that is a single monomial: both leading terms are
    # skipped, so the S-polynomial has no terms, but both are still counted
    ring = RingContext(NAMES, field)
    both = _Both(ring, [ring.from_string("x*y"), ring.from_string("x*z")])
    meter = Budget().fresh()
    lcm = (1, 1, 1)
    assert _spoly_terms(both.basis[0], both.basis[1], both.codes[lcm], meter) == []
    assert meter.reductions == 2
    assert spolynomial(ring.from_string("x*y"), ring.from_string("x*z")).is_zero()
    for ref, ref_count, cur, count in both.spoly_remainders(0, 1):
        assert cur == ref == [] and count == ref_count == 2


@pytest.mark.parametrize("field", FIELDS[1:], ids=str)
def test_unreduced_dividend_with_repeated_monomials(field):
    # terms as _spoly_terms hands them over: negative ints, repeated
    # monomials, and a monomial whose coefficients sum to a multiple of p
    p = field.char
    ring = RingContext(NAMES, field)
    both = _Both(ring, [ring.from_string("x^2 - y*z"), ring.from_string("y^2 + 3*z")])
    k = both.codes
    raw = [
        (k[(2, 1, 0)], -5),
        (k[(0, 1, 1)], p - 1),
        (k[(2, 1, 0)], 7 * p + 2),
        (k[(0, 0, 2)], -p),
        (k[(0, 1, 1)], -(p - 1)),
        (k[(1, 0, 0)], -1),
    ]
    canonical = ring.from_dict({(2, 1, 0): -3, (1, 0, 0): -1})
    ref, ref_count, _, _ = both.remainders(canonical)
    meter = Budget().fresh()
    cur = both.decoded(*_normal_form_terms(raw, both.basis, field, k.guard, meter))
    assert cur == ref and meter.reductions == ref_count
    assert all(0 <= c < p for _, c in cur)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_interreduce_tail_reduces_against_reference(field):
    ring = RingContext(NAMES, field)
    polys = [
        ring.from_string("x^2 - 2*y*z + z^2"),
        ring.from_string("y*z - 3*z^2"),
        ring.from_string("x^3 + x*y*z - 5"),  # dominated by x^2
    ]
    both = _Both(ring, polys)
    out = _interreduce(both.basis, ring, field, both.codes, Budget().fresh())
    kept = both.ref_basis[:2]
    expected = []
    for i in range(2):
        rem = _ref_normal_form_terms(
            kept[i][0], kept[:i] + kept[i + 1 :], field, both.key_of, Budget().fresh()
        )
        expected.append(_pairs(_ref_monic_keyed(rem, field)))
    expected.sort(key=lambda t: both.key_of(t[0][0]))
    assert [list(g.terms) for g in out] == expected


# -- integer monomial codes --------------------------------------------------


def _exponent_vectors(n):
    # small exponents, and ones at the top of the field where a radix or a
    # field width that is too small would show
    e = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 2, MAX_EXPONENT))
    return st.lists(st.tuples(*[e] * n), min_size=2, max_size=10)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.sampled_from([GREVLEX, LEX] + [Block(k) for k in range(n + 1)]), _exponent_vectors(n)
)))
def test_codes_order_multiply_and_divide_as_exponent_tuples(case):
    order, monos = case
    n = len(monos[0])
    codes = _Codes(order, n)
    # ascending codes are descending monomials
    assert sorted(monos, key=codes.__getitem__) == sorted(monos, key=order.key, reverse=True)
    fresh = _Codes(order, n)
    for a in monos:
        # decoded from the packed fields, without the memo
        assert fresh.exponents[codes[a]] == a
        for b in monos:
            assert (not (codes[b] - codes[a]) & codes.guard) == _ref_divides(a, b)
            ab = tuple(x + y for x, y in zip(a, b))
            if max(ab) <= MAX_EXPONENT:
                assert codes[a] + codes[b] == codes[ab]
            else:
                # a product past the field width sets a guard bit
                assert (codes[a] + codes[b]) & codes.guard


def test_exponent_past_the_field_width_is_a_budget_exit(tmp_path):
    field = PrimeField(32003)
    ring = RingContext(NAMES, field)
    x, y, _ = ring.gens()
    top = ring.monomial((MAX_EXPONENT, 0, 0)) - ring.monomial((0, MAX_EXPONENT, 0))
    assert buchberger([top], ring) == [top]
    wide = ring.monomial((MAX_EXPONENT + 1, 0, 0))
    for run in (
        lambda: buchberger([wide, y], ring),
        lambda: normal_form(wide, [y]),
        lambda: normal_form(y, [wide]),
    ):
        with pytest.raises(BudgetExceededError):
            run()
    # inputs within the width whose S-polynomial is not: under lex with y
    # first, S(y^2 - x^h, y*x^h - 1) = y - x^(2h)
    lex = RingContext(("y", "x"), field, LEX)
    h = MAX_EXPONENT // 2 + 1
    gens = [lex.from_string(f"y^2 - x^{h}"), lex.from_string(f"y*x^{h} - 1")]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, lex)
    path = tmp_path / "wide.var"
    path.write_text(f"ring x0 x1 over Fp:32003\ngen: x0^{MAX_EXPONENT + 1} - x1^{MAX_EXPONENT + 1}\n")
    assert main(["gb", "--input", str(path)]) == 3


# -- oracle: rref -------------------------------------------------------------


def _matrices(field):
    if field.char:
        entry = _coefficients(field)
    else:
        # small entries force cancellations; numerators up to 10^12 over
        # denominators up to 10^6 make the integer rows grow
        entry = st.one_of(
            st.fractions(-5, 5, max_denominator=4),
            st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
        )
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6)
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_rref_matches_field_method_reference(field, data):
    rows = data.draw(_matrices(field))
    # a repeated row forces a zero row out of the elimination
    rows = rows + rows[:1]
    # a combination of two rows adds one more dependent row
    i, j = data.draw(st.tuples(*[st.integers(0, len(rows) - 1)] * 2))
    s = field.coerce(data.draw(st.integers(-3, 3)))
    co = field.coerce
    rows.append([field.add(co(x), field.mul(s, co(y))) for x, y in zip(rows[i], rows[j])])
    assert rref(rows, field) == _ref_rref(rows, field)
    # a zero column never holds a pivot
    col = data.draw(st.integers(0, len(rows[0])))
    rows = [r[:col] + [field.zero] + r[col:] for r in rows]
    assert rref(rows, field) == _ref_rref(rows, field)


def _sparse_entry(field, rnd):
    if field.char:
        # small values force cancellations; the full range covers large products
        p = field.char
        return rnd.choice([rnd.randint(-3, 3) or 1, rnd.randint(-(p - 1), p - 1) or 1])
    if rnd.random() < 0.5:
        return Fraction(rnd.randint(-5, 5) or 1, rnd.randint(1, 4))
    # numerators up to 10^12 over denominators up to 10^6
    return Fraction(rnd.randint(-(10**12), 10**12) or 1, rnd.randint(1, 10**6))


def _sparse_matrices(field):
    """Mostly-zero matrices up to 30x30: each cell is nonzero with a drawn
    probability of 3 to 35 percent."""

    def build(args):
        m, n, density, rnd = args
        return [
            [_sparse_entry(field, rnd) if rnd.random() < density else field.zero for _ in range(n)]
            for _ in range(m)
        ]

    return st.tuples(
        st.integers(1, 30),
        st.integers(1, 30),
        st.sampled_from([0.03, 0.1, 0.2, 0.35]),
        st.randoms(use_true_random=True),
    ).map(build)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_sparse_rref_matches_field_method_reference(field, data):
    rows = data.draw(_sparse_matrices(field))
    m, n = len(rows), len(rows[0])
    co = field.coerce
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
        s = co(data.draw(st.integers(-3, 3)))
        rows.append([field.add(co(x), field.mul(s, co(y))) for x, y in zip(rows[i], rows[j])])
        rows.insert(data.draw(st.integers(0, len(rows))), list(rows[i]))
    rows.insert(data.draw(st.integers(0, len(rows))), [field.zero] * n)
    col = data.draw(st.integers(0, n))
    rows = [r[:col] + [field.zero] + r[col:] for r in rows]
    red, piv = rref(rows, field)
    assert (red, piv) == _ref_rref(rows, field)
    assert len(red) == len(rows) and col not in piv
    assert all(_canonical(field, x) for r in red for x in r)


@pytest.mark.parametrize(
    "field,conics", [(resolve_field("fp:auto", 1), 3), (QQ, 2)], ids=["fp-degree6", "Q-degree4"]
)
def test_pde_system_of_conics_matches_reference(field, conics):
    # over Q the coefficients have numerators up to 10^12 over denominators up to 10^6
    ring = RingContext(("x", "y"), field)
    rng = seeded_rng(("pde-conics", conics))
    monos = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    plane = ring.one()
    for _ in range(conics):
        if field.char:
            coeffs = [rng.randrange(1, field.char) for _ in monos]
        else:
            coeffs = [Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**6)) for _ in monos]
        plane = plane * ring.from_dict(dict(zip(monos, coeffs)))
    d = 2 * conics
    rows, unknowns = _gao_rows(plane)
    # one unknown per coefficient of g (deg_x < d) and of h (deg_y < d)
    assert len(unknowns) == 2 * d * (d + 1)
    matrix = [[field.coerce(row.get(j, 0)) for j in range(len(unknowns))] for row in rows]
    red, piv = rref(matrix, field)
    assert (red, piv) == _ref_rref(matrix, field)
    assert len(unknowns) - len(piv) == conics
    assert all(_canonical(field, x) for r in red for x in r)
    assert all(_canonical(field, x) for v in kernel_basis(matrix, field) for x in v)


def _ref_det(rows, field):
    """Field-method elimination: the product of the pivots, one sign per swap."""
    a = [list(r) for r in rows]
    result = field.one
    for c in range(len(a)):
        pivot = next((i for i in range(c, len(a)) if a[i][c] != field.zero), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = field.neg(result)
        result = field.mul(result, a[c][c])
        inv = field.inv(a[c][c])
        for i in range(c + 1, len(a)):
            f = field.mul(a[i][c], inv)
            a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[c])]
    return result


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_det_matches_field_method_reference(field, data):
    rows = [[field.coerce(x) for x in r] for r in data.draw(_matrices(field))]
    n = min(len(rows), len(rows[0]))
    square = [r[:n] for r in rows[:n]]
    # reversed rows force swaps; the first row in place of the last makes
    # a singular matrix
    for a in (square, square[::-1], square[:-1] + square[:1]):
        d = det(a, field)
        assert d == _ref_det(a, field) and _canonical(field, d)


# -- oracle: univariate gcd over Q -------------------------------------------


def _ref_u_gcd(a, b, field):
    """Euclid's algorithm on ``Fraction`` coefficients, made monic."""
    a, b = list(a), list(b)
    while b:
        _, r = u_divmod(a, b, field)
        a, b = b, r
    return u_monic(a, field)


def _q_univariates(max_degree):
    # zero (the empty list) and constants included; numerators up to 10^9
    entry = st.one_of(
        st.fractions(-5, 5, max_denominator=4),
        st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**3)),
    )
    return st.lists(entry, max_size=max_degree + 1).map(lambda c: u_trim(c, QQ))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_q_univariates(3), _q_univariates(5), _q_univariates(5))
def test_u_gcd_over_q_matches_euclid(g, a, b):
    # a common factor g makes the gcd nontrivial whenever g has positive degree
    for x, y in ((a, b), (u_mul(a, g, QQ), u_mul(b, g, QQ)), (g, a), (a, [])):
        got = u_gcd(x, y, QQ)
        assert got == _ref_u_gcd(x, y, QQ)
        assert all(type(c) is Fraction for c in got)


# -- every coefficient returned is canonical ----------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_results_are_canonical(field):
    ring = RingContext(NAMES, field)
    gens = [
        ring.from_string("x^2 - 3*x*y + x^2 - 5*z^2"),
        ring.from_string("-y^2 + x*z - 7*y*z - y^2"),
        ring.from_string("-x*y*z + 2*z^3 - 11"),
    ]
    gb = buchberger(gens, ring)
    polys = list(gb)
    polys.append(normal_form(ring.from_string("-x^3*y + y^4 - 13*x*z^2 - 1"), gens))
    polys.append(normal_form(ring.from_string("-x^3*y - 4*z"), gb))
    polys.append(
        ideals.normal_form(
            ring.from_string("-x^3 - 2*y*z^2 + 9"), groebner_basis(Ideal.of(ring, gens))
        )
    )
    polys += [spolynomial(f, g) for f in gens for g in gens if f is not g]
    coeffs = [c for g in polys for _, c in g.terms]
    assert coeffs and all(_canonical(field, c) for c in coeffs)

    entry = Fraction if field.char == 0 else int
    rows = [
        [entry(1), entry(-2), entry(3), entry(-4)],
        [entry(-2), entry(4), entry(-6), entry(8)],
        [entry(0), entry(-1), entry(5), entry(-7)],
    ]
    red, _ = rref(rows, field)
    values = [x for r in red for x in r]
    values += [x for v in kernel_basis(rows, field) for x in v]
    values.append(det([r[:3] for r in rows[::2]] + [[entry(-1), entry(0), entry(-9)]], field))
    values.append(det([[entry(-3)]], field))
    assert all(_canonical(field, x) for x in values)


# -- budgets see every term ---------------------------------------------------


def _scroll_incidence_system(raw=True):
    # raw: the system g(a), g(lam * a + q) as first written, which keeps the
    # pinned counts below independent of how incidence_generators shrinks it
    field = PrimeField(2147483659)
    var = build_catalog_variety("scroll12", 1, field)
    rng = seeded_rng("scroll-q", 1)
    while True:
        q = random_point(field, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
        if not var.contains_point(q):
            break
    ring = var.ring
    big = RingContext(("lam_",) + ring.names, field, Block(1))
    a_vars = [big.variable(1 + i) for i in range(ring.nvars)]
    lam = big.variable(0)
    if raw:
        b_imgs = [lam * a + big.constant(c) for a, c in zip(a_vars, q.coords)]
        gens = [g.substitute(a_vars, big) for g in var.ideal.gens]
        gens += [g.substitute(b_imgs, big) for g in var.ideal.gens]
    else:
        gens = incidence_generators(var, q, big, a_vars, lam)
    gens.sort(key=lambda p: (p.total_degree(), p.terms))
    return gens, big


class _RecordingBudget(Budget):
    def fresh(self):
        self.meter = super().fresh()
        return self.meter


def test_budget_counts_every_skipped_leading_term():
    # the counts of the sugar run with the Gebauer-Moller update (the chain
    # criterion at pop time popped 55 pairs for the same 235 steps); the
    # field-method kernel, which subtracted the leading terms instead of
    # skipping them, counted the same steps.  The Block(1) elimination of
    # lambda is inhomogeneous, and normal selection, which pops the pairs
    # with the fewest lambda first whatever their degree, needs (91, 408)
    # for the same basis.
    gens, ring = _scroll_incidence_system()
    budget = _RecordingBudget()
    with limits(budget):
        basis = buchberger(gens, ring)
    pairs, reductions = budget.meter.pairs, budget.meter.reductions
    assert (pairs, reductions) == (14, 235)
    with pytest.raises(BudgetExceededError), limits(Budget(max_reductions=reductions - 1)):
        buchberger(gens, ring)
    with pytest.raises(BudgetExceededError), limits(Budget(max_pairs=pairs - 1)):
        buchberger(gens, ring)
    with limits(Budget(max_reductions=reductions, max_pairs=pairs)):
        assert buchberger(gens, ring) == basis
    with limits(budget):
        assert _ref_buchberger(gens, ring) == basis
    assert (budget.meter.pairs, budget.meter.reductions) == (91, 408)


def test_incidence_generators_cut_the_scroll_counts():
    # the same instance through incidence_generators: the same basis for
    # less than a third of the reduction steps of the raw system above (the
    # chain criterion at pop time needed (28, 100))
    raw, ring = _scroll_incidence_system()
    gens, _ = _scroll_incidence_system(raw=False)
    budget = _RecordingBudget()
    with limits(budget):
        basis = buchberger(gens, ring)
    assert (budget.meter.pairs, budget.meter.reductions) == (5, 69)
    assert basis == buchberger(raw, ring)


# -- sugar selection against normal selection ---------------------------------


_HOMOGENEOUS = {d: [m for m in _MONOMIALS if sum(m) == d] for d in (1, 2)}


def _homogeneous_polys(ring):
    return st.sampled_from((1, 2)).flatmap(
        lambda d: st.dictionaries(
            st.sampled_from(_HOMOGENEOUS[d]), _coefficients(ring.field), min_size=1, max_size=4
        )
    ).map(ring.from_dict)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(ORDERS + [Block(2)]), st.data())
def test_sugar_basis_matches_normal_selection(field, order, data):
    ring = RingContext(NAMES, field, order)
    # inhomogeneous generators, and under a block order also homogeneous
    # ones, the shape of a plane-model elimination
    polys = _polys(ring)
    if order.block_size:
        polys = st.one_of(polys, _homogeneous_polys(ring))
    gens = data.draw(st.lists(polys, min_size=1, max_size=4))
    expected = _ref_buchberger(gens, ring)
    basis = buchberger(gens, ring)
    assert [list(g.terms) for g in basis] == [list(g.terms) for g in expected]
