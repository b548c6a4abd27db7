"""Buchberger's algorithm: reduced Groebner bases under explicit limits.

Strategy: the sugar selection of Giovini, Mora, Niesi, Robbiano & Traverso
("One sugar cube, please", ISSAC 1991) and the pair update of Gebauer &
Moeller (J. Symb. Comput. 6, 1988).  Each element, the inputs included,
enters through one update, which prunes pairs as they are made: of the new
pairs it keeps one per minimal lcm, a coprime one first (criteria M and F),
then drops the coprime ones (the product criterion); of the pending pairs it
drops each whose lcm the new leading monomial divides and equals neither
lcm with the new element (criterion B_k).  An element whose leading
monomial the new one divides makes no more pairs but stays a reducer.  A
popped pair is only counted and reduced, and the meter reads the clock once
per update too, so ``max_seconds`` holds when every pair is pruned.

Every basis element carries a sugar: an input's is its total degree, an
S-pair's is ``max(sugar_i + deg lcm - deg lt_i, sugar_j + deg lcm -
deg lt_j)`` and a new element takes its pair's.  Pairs are popped by (sugar,
order key of the lcm),
so an inhomogeneous system or a block or lex order is worked through degree by
degree, as if it were homogenised, instead of following the elimination
order.  For homogeneous input under grevlex the sugar is the degree of the
lcm and the pair order is normal selection's.  The selection changes only the
order of the work: the reduced Groebner basis is unique, so the result is the
same.

Limits are hard: overruns raise :class:`BudgetExceededError` rather than
returning a partial basis.  A :class:`Budget` is set once where a command or
a check starts (``with limits(budget):``) and read here, by
:func:`buchberger`, :func:`normal_form` and :func:`spolynomial`; no layer in
between passes it on.  Each of those calls still meters its own run from
zero, so the limits hold per Groebner run, and ``ideals.groebner_basis``
keys its cache on them.

Division is heap-based with lazy coefficients and packed exponent vectors
(Monagan & Pearce, CASC 2007).  Inside this module a monomial is one int, its
code (see :class:`_Codes`): the exponents packed into fields of
``FIELD_BITS`` bits, minus the order key shifted above them.  Codes add as
monomials multiply, so a shift is one int addition; a larger monomial has a
smaller code, so ``heapq`` (a min-heap) pops the leading monomial first and
sorted codes put the leading term first; and ``lt`` divides ``m`` exactly
when ``(m - lt) & guard`` is zero, as a field of the difference borrows into
its top (guard) bit only when an exponent of ``lt`` is the larger one.
Exponents run up to ``MAX_EXPONENT``: a larger one raises
:class:`BudgetExceededError` when a monomial is coded and whenever one is
popped, so it can never give a wrong order or basis.  Exponent tuples remain
only in the input and output :class:`Polynomial` and in the lcm and sugar of
each S-pair.

Coefficients inside this module are ints.  Over F_p a basis element is
monic and a working coefficient is any int congruent to the true value.
Over Q a basis element is primitive: integer coefficients without a common
factor and a positive leading one.  Division over Q is pseudo-division over
Z (Monagan & Pearce, "Sparse polynomial pseudo division using a heap",
J. Symb. Comput. 46, 2011): a dividend's denominators are cleared once, on
entry, and before a reducer whose leading coefficient is not 1 cancels a
term, the whole working polynomial is multiplied by the least factor that
makes the cancellation exact.  The remainder comes back with the product of
those factors, its scale, so no ``Fraction`` is built inside the kernel; one
is made only where a polynomial leaves it.  Scaling by a nonzero integer
changes neither which monomial is popped, nor which reducer divides it, nor
whether a coefficient is zero, so the work is that of division over Q.

The working dict maps each code still on the heap to its unreduced
coefficient.  A reduction step adds ``-c * gc`` with plain operators, and a
coefficient is reduced mod p once, when its monomial is popped; a zero is
dropped there, not when it cancels, so every monomial is pushed at most once.
The leading term of a reducer and of both S-polynomial halves cancels
exactly and is skipped, but it is still counted by ``tick_reduction``:
budgets and work counters see every term.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import BudgetExceededError, RingMismatchError
from .poly import Polynomial, RingContext


@dataclass
class Budget:
    """Resource limits for each Groebner computation.

    Set once for a command or a check with :func:`limits`; every
    :func:`buchberger`, :func:`normal_form` and :func:`spolynomial` call
    under it meters its own run against them, so ``max_seconds`` is wall
    time for a single run; None disables the clock.  Cache hits are keyed
    on :meth:`key`, so a hit stands for a run under the same limits.
    """

    max_pairs: int = 200_000
    max_reductions: int = 30_000_000
    max_seconds: float | None = None

    def fresh(self) -> "_Meter":
        return _Meter(self, time.monotonic())

    def key(self) -> tuple:
        return (self.max_pairs, self.max_reductions, self.max_seconds)


@dataclass
class _Meter:
    budget: Budget
    started: float
    pairs: int = 0
    reductions: int = 0

    def tick_pair(self):
        self.pairs += 1
        if self.pairs > self.budget.max_pairs:
            raise BudgetExceededError("groebner", f"{self.pairs} S-pairs")
        self.check_clock()

    def check_clock(self):
        limit = self.budget.max_seconds
        if limit is not None and time.monotonic() - self.started > limit:
            raise BudgetExceededError("groebner", f"wall time over {limit}s")

    def tick_reduction(self, n: int = 1):
        self.reductions += n
        if self.reductions > self.budget.max_reductions:
            raise BudgetExceededError("groebner", f"{self.reductions} reduction steps")


_LIMITS: ContextVar[Budget] = ContextVar("groebner_limits", default=Budget())


def current_budget() -> Budget:
    """The limits in force: the innermost :func:`limits`, else ``Budget()``."""
    return _LIMITS.get()


@contextmanager
def limits(value: Budget):
    """Run the block's Groebner computations under the limits ``value``."""
    token = _LIMITS.set(value)
    try:
        yield
    finally:
        _LIMITS.reset(token)


FIELD_BITS = 16  # bits per packed exponent, the top one a guard bit
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


class _Codes(dict):
    """Integer code of each exponent vector of one order on ``nvars``
    variables, memoized; ``exponents`` maps the codes back.

    ``code(e) = sum(e_i * weights[i])``: the exponents packed into fields of
    ``FIELD_BITS`` bits, variable i in field i, minus the order key (the tuple
    ``order.key(e)`` read as one integer, each entry a digit) shifted above
    the fields.  The keys of ``orders`` are linear in the exponents, so a
    weight is the key of a unit vector, and each key entry spans less than
    the digit radix ``2^radix > nvars * MAX_EXPONENT``.
    """

    __slots__ = ("weights", "guard", "exponents")

    def __init__(self, order, nvars):
        super().__init__()
        low = nvars * FIELD_BITS
        radix = (nvars * MAX_EXPONENT).bit_length()
        weights = []
        for i in range(nvars):
            key = 0
            for part in order.key((0,) * i + (1,) + (0,) * (nvars - 1 - i)):
                key = (key << radix) + part
            weights.append((1 << i * FIELD_BITS) - (key << low))
        self.weights = weights
        # the low bit of every field, moved up to its top bit
        self.guard = ((1 << low) - 1) // ((1 << FIELD_BITS) - 1) << (FIELD_BITS - 1)
        self.exponents = _Exponents(nvars)

    def __missing__(self, mono):
        if max(mono, default=0) > MAX_EXPONENT:
            raise _overflow()
        code = self[mono] = sum(map(mul, mono, self.weights))
        self.exponents[code] = mono
        return code


class _Exponents(dict):
    """Exponent vector of each code, read off its packed fields."""

    __slots__ = ("shifts",)

    def __init__(self, nvars):
        super().__init__()
        self.shifts = range(0, nvars * FIELD_BITS, FIELD_BITS)

    def __missing__(self, code):
        mono = self[code] = tuple(code >> s & MAX_EXPONENT for s in self.shifts)
        return mono


_CODE_TABLES: dict = {}
CODES_KEPT = 1 << 15  # codes and decoded exponent vectors kept over all tables


def _code_table(order, nvars) -> _Codes:
    """The one code table of ``order`` on ``nvars`` variables.

    A code depends on nothing else, so every computation under that order
    and number of variables shares one table and codes each monomial once
    per process.  The tables are dropped together when they hold more than
    ``CODES_KEPT`` entries in all; a computation that still holds a dropped
    table keeps it, and its codes equal the new table's.
    """
    if sum(1 + len(t) + len(t.exponents) for t in _CODE_TABLES.values()) > CODES_KEPT:
        _CODE_TABLES.clear()
    table = _CODE_TABLES.get((order, nvars))
    if table is None:
        table = _CODE_TABLES[(order, nvars)] = _Codes(order, nvars)
    return table


def _coded_terms(poly: Polynomial, codes):
    return [(codes[m], c) for m, c in poly.terms]


def _polynomial(ring, terms, codes):
    exponents = codes.exponents
    return Polynomial(ring, tuple((exponents[k], c) for k, c in terms))


def _cleared(terms):
    """``terms`` over Q times the lcm of their denominators, and that lcm."""
    den = lcm(*[c.denominator for _, c in terms])
    return [(k, c.numerator * (den // c.denominator)) for k, c in terms], den


def _normalized_terms(terms, field):
    """The basis element of a nonzero coded term list, leading term first:
    monic over F_p; over Q primitive over Z with a positive leading
    coefficient, from ``Fraction`` or int coefficients."""
    lc = terms[0][1]
    if field.char:
        if lc == 1:
            return terms
        inv = field.inv(lc)
        p = field.char
        return [(k, c * inv % p) for k, c in terms]
    terms, _ = _cleared(terms)
    content = gcd(*[c for _, c in terms])
    if terms[0][1] < 0:
        content = -content
    if content == 1:
        return terms
    return [(k, c // content) for k, c in terms]


def _fractions(terms, den):
    """Coded terms over Q with every integer coefficient divided by ``den``."""
    return [(k, Fraction(c, den)) for k, c in terms]


def _overflow():
    return BudgetExceededError("groebner", f"an exponent over {MAX_EXPONENT}")


def _normal_form_terms(f_terms, basis, field, guard, meter):
    """Full remainder of coded term list ``f_terms`` modulo ``basis``, and
    its scale: the remainder of ``f_terms`` is ``remainder / scale``.

    ``basis`` entries are (terms, leading code) as :func:`_normalized_terms`
    makes them, leading term first; ``guard`` is the guard bits of the codes.
    ``f_terms`` may repeat a code and holds ints, any ints over F_p.  The
    remainder is fully reduced (no remainder monomial is divisible by a
    basis leading monomial), in decreasing order; its coefficients are
    canonical over F_p, where the scale is 1, and ints over Q.
    """
    p = field.char
    work = {}
    heap = []
    for k, c in f_terms:
        prev = work.get(k)
        if prev is None:
            work[k] = c
            heap.append(k)
        else:
            work[k] = prev + c
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    remainder = []
    scale = 1
    while heap:
        k = heappop(heap)
        if k & guard:
            raise _overflow()
        c = work.pop(k)
        if p:
            c %= p
        if not c:
            continue
        for g_terms, g_lt in basis:
            shift = k - g_lt
            if not shift & guard:  # g_lt divides k
                break
        else:
            remainder.append((k, c))
            continue
        meter.tick_reduction(len(g_terms))
        lc = g_terms[0][1]
        if lc != 1:
            # pseudo-reduction over Z: scale everything so lc divides c
            d = gcd(c, lc)
            a = lc // d
            if a != 1:
                work = {key: v * a for key, v in work.items()}
                remainder = [(rk, rc * a) for rk, rc in remainder]
                scale *= a
            c //= d
        c = -c
        for gk, gc in g_terms[1:]:
            k2 = gk + shift
            prev = work.get(k2)
            if prev is None:
                work[k2] = c * gc
                heappush(heap, k2)
            else:
                work[k2] = prev + c * gc
    return remainder, scale


def _spoly_terms(fi, fj, lcm, meter):
    """S-polynomial of two basis elements with precomputed lcm code, times
    ``l_i * l_j / gcd(l_i, l_j)`` for their leading coefficients l (1 over
    F_p, where the elements are monic).

    The leading terms cancel exactly and are left out, but still metered.
    Codes may repeat and coefficients are unreduced.
    """
    terms_i, lt_i = fi
    terms_j, lt_j = fj
    shift_i = lcm - lt_i
    shift_j = lcm - lt_j
    meter.tick_reduction(len(terms_i) + len(terms_j))
    l_i = terms_i[0][1]
    l_j = terms_j[0][1]
    d = gcd(l_i, l_j)
    a_i = l_j // d
    a_j = -(l_i // d)
    out = [(k + shift_i, a_i * c) for k, c in terms_i[1:]]
    out += [(k + shift_j, a_j * c) for k, c in terms_j[1:]]
    return out


def buchberger(polys, ring: RingContext):
    """Reduced Groebner basis of ``polys`` in ``ring``'s active order.

    Returns a :class:`ReducedBasis`: a list of monic :class:`Polynomial`
    sorted by increasing leading monomial, with ``Fraction`` coefficients
    over Q, that also holds the basis prepared for division.  The zero ideal
    yields the empty list.
    """
    meter = current_budget().fresh()
    field = ring.field
    prepared = Divisors(polys, ring)
    codes = prepared.codes
    exponents = codes.exponents
    guard = codes.guard
    basis = prepared.basis
    if not basis:
        return ReducedBasis((), prepared)
    weights = codes.weights
    # leading codes, exponent vectors and degrees, and sugars, by basis index
    lead = [lt for _, lt in basis]
    lts = [exponents[lt] for lt in lead]
    degs = [sum(lt) for lt in lts]
    sugar = [max(sum(exponents[k]) for k, _ in terms) for terms, _ in basis]

    pair_heap = []
    active = []  # the elements that still make pairs

    def update(new):
        """The Gebauer-Moller update for the new element ``new``."""
        meter.check_clock()  # a run whose pairs are all pruned pops none
        lt_new, e_new = lead[new], lts[new]
        # the lcm code of each element with new
        lcms = [sum(map(mul, map(max, e, e_new), weights)) for e in lts]
        # B_k: a pending pair whose lcm lt_new divides, and equals neither
        # lcm with new, is generated through its two pairs with new
        kept = [
            entry for entry in pair_heap
            if (-entry[1] - lt_new) & guard or -entry[1] in (lcms[entry[2]], lcms[entry[3]])
        ]
        if len(kept) < len(pair_heap):
            pair_heap[:] = kept
            heapq.heapify(pair_heap)
        # M and F, in the order of ``active``: a pair is dropped when another
        # new pair's lcm divides its lcm, unless the two lcms are equal and
        # that pair is an earlier one that is not coprime; then the coprime
        # pairs are dropped (the product criterion)
        new_pairs = [(lcms[k], k, lcms[k] == lead[k] + lt_new) for k in active]
        for c, (code, k, coprime) in enumerate(new_pairs):
            if coprime or any(
                not (code - other) & guard and (other != code or d > c or cop)
                for d, (other, _, cop) in enumerate(new_pairs) if d != c
            ):
                continue
            deg = sum(map(max, lts[k], e_new))
            pair_sugar = max(sugar[k] + deg - degs[k], sugar[new] + deg - degs[new])
            # a smaller lcm has a larger code
            heapq.heappush(pair_heap, (pair_sugar, -code, k, new))
        # an element whose leading term lt_new divides makes no more pairs,
        # but stays a reducer
        active[:] = [k for k in active if (lead[k] - lt_new) & guard] + [new]

    for idx in range(len(basis)):
        update(idx)

    while pair_heap:
        pair_sugar, neg_lcm, i, j = heapq.heappop(pair_heap)
        meter.tick_pair()
        s = _spoly_terms(basis[i], basis[j], -neg_lcm, meter)
        rem, _ = _normal_form_terms(s, basis, field, guard, meter)
        if not rem:
            continue
        rem = _normalized_terms(rem, field)
        basis.append((rem, rem[0][0]))
        lead.append(rem[0][0])
        lts.append(exponents[rem[0][0]])
        degs.append(sum(lts[-1]))
        sugar.append(pair_sugar)
        update(len(basis) - 1)

    return _interreduce(basis, ring, field, codes, meter)


def _interreduce(basis, ring, field, codes, meter):
    guard = codes.guard
    # drop elements whose leading monomial is divisible by another's
    keep = []
    for idx, (terms, lt) in enumerate(basis):
        dominated = False
        for jdx, (_, lt2) in enumerate(basis):
            if jdx == idx:
                continue
            if not (lt - lt2) & guard and (lt2 != lt or jdx < idx):
                dominated = True
                break
        if not dominated:
            keep.append((terms, lt))
    # tail-reduce every survivor against the others and normalize it
    reduced = []
    for idx, (terms, lt) in enumerate(keep):
        others = [keep[j] for j in range(len(keep)) if j != idx]
        rem = _normal_form_terms(terms, others, field, guard, meter)[0] if others else terms
        reduced.append(_normalized_terms(rem, field))
    # increasing leading monomial is decreasing code
    reduced.sort(key=lambda t: t[0][0], reverse=True)
    polys = (
        _polynomial(ring, t if field.char else _fractions(t, t[0][1]), codes) for t in reduced
    )
    return ReducedBasis(polys, Divisors.prepared(ring, codes, [(t, t[0][0]) for t in reduced]))


class ReducedBasis(list):
    """The reduced basis :func:`buchberger` returns, and ``divisors``, the
    same basis prepared for division from its own coded terms."""

    __slots__ = ("divisors",)

    def __init__(self, polys, divisors):
        super().__init__(polys)
        self.divisors = divisors


class Divisors:
    """A divisor list prepared once for repeated division in ``ring``: each
    polynomial coded in the ring's order, sorted and normalized (monic over
    F_p, primitive over Z over Q), with the order's shared code table.  Zero
    polynomials are dropped.  :func:`buchberger` returns one with every
    reduced basis, and ``ideals.groebner_basis`` caches it next to the
    basis, so a loop of normal forms against one basis prepares it once;
    :func:`buchberger` and :func:`spolynomial` prepare their inputs here too.
    """

    __slots__ = ("ring", "basis", "codes")

    @classmethod
    def prepared(cls, ring: RingContext, codes, basis) -> "Divisors":
        """Divisors from (terms, leading code) entries that are already
        coded with ``codes``, sorted and normalized."""
        out = cls.__new__(cls)
        out.ring, out.codes, out.basis = ring, codes, basis
        return out

    def __init__(self, polys, ring: RingContext):
        self.ring = ring
        self.codes = codes = _code_table(ring.order, ring.nvars)
        self.basis = []
        for p in polys:
            if p.is_zero():
                continue
            if p.ring.names != ring.names or p.ring.field != ring.field:
                raise RingMismatchError("polynomial from a different ring")
            terms = sorted(_coded_terms(p, codes), key=itemgetter(0))
            self.basis.append((_normalized_terms(terms, ring.field), terms[0][0]))


def normal_form(f: Polynomial, basis_polys) -> Polynomial:
    """Remainder of ``f`` on division by ``basis_polys`` (a Groebner basis for
    ideal-membership semantics, any divisor list otherwise).

    ``basis_polys`` is a sequence of polynomials, divided in ``f``'s ring, or
    a prepared :class:`Divisors`, divided in its ring, which ``f`` then has
    to share names and field with; the remainder lives in that ring."""
    divisors = basis_polys if isinstance(basis_polys, Divisors) else Divisors(basis_polys, f.ring)
    ring = divisors.ring
    if f.ring.names != ring.names or f.ring.field != ring.field:
        raise RingMismatchError("polynomial and divisors live in different rings")
    meter = current_budget().fresh()
    codes = divisors.codes
    field = ring.field
    terms = _coded_terms(f, codes)
    if field.char:
        rem, _ = _normal_form_terms(terms, divisors.basis, field, codes.guard, meter)
    else:
        terms, den = _cleared(terms)
        rem, scale = _normal_form_terms(terms, divisors.basis, field, codes.guard, meter)
        rem = _fractions(rem, den * scale)
    return _polynomial(ring, rem, codes)


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Classic S-polynomial; used by the basis-verification property checks."""
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError("S-polynomial operands in different rings")
    prepared = Divisors((f, g), ring)
    codes = prepared.codes
    meter = current_budget().fresh()
    fi, gj = prepared.basis
    lcm = codes[tuple(map(max, codes.exponents[fi[1]], codes.exponents[gj[1]]))]
    s = _spoly_terms(fi, gj, lcm, meter)
    # division by no divisors collects repeated monomials and reduces mod p
    rem, _ = _normal_form_terms(s, [], ring.field, codes.guard, meter)
    if not ring.field.char:
        l_f = fi[0][0][1]
        l_g = gj[0][0][1]
        rem = _fractions(rem, l_f * l_g // gcd(l_f, l_g))
    return _polynomial(ring, rem, codes)
