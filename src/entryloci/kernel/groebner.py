"""Buchberger's algorithm: reduced Groebner bases with explicit budgets.

Strategy: the sugar selection of Giovini, Mora, Niesi, Robbiano & Traverso
("One sugar cube, please", ISSAC 1991), the product (coprime leading term)
criterion and the chain criterion.  Every basis element carries a sugar: an
input's is its total degree, an S-pair's is
``max(sugar_i + deg lcm - deg lt_i, sugar_j + deg lcm - deg lt_j)`` and a new
element takes its pair's.  Pairs are popped by (sugar, order key of the lcm),
so an inhomogeneous system or a block or lex order is worked through degree by
degree, as if it were homogenised, instead of following the elimination
order.  For homogeneous input under grevlex the sugar is the degree of the
lcm and the pair order is normal selection's.  The selection changes only the
order of the work: the reduced Groebner basis is unique, so the result is the
same.  Budgets are hard limits; overruns raise :class:`BudgetExceededError`
rather than returning a partial basis.

Division is heap-based with lazy coefficients (Monagan & Pearce, CASC 2007).
The working dict maps each monomial still on the heap to a coefficient that
is unreduced: over F_p any int congruent to the true value, over Q the exact
``Fraction``.  A reduction step subtracts ``c * gc`` with plain operators, and
a coefficient is reduced mod p once, when its monomial is popped; a zero is
dropped there, not when it cancels, so every monomial is pushed at most once.
Basis elements are monic, so the leading term of a reducer and of both
S-polynomial halves cancels exactly and is skipped, but it is still counted
by ``tick_reduction``: budgets and work counters see every term.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from operator import add, itemgetter, le, neg, sub

from .errors import BudgetExceededError, RingMismatchError
from .poly import Polynomial, RingContext


@dataclass
class Budget:
    """Resource limits for one Groebner computation.

    ``max_seconds`` is wall time for a single run; None disables the clock.
    """

    max_pairs: int = 200_000
    max_reductions: int = 30_000_000
    max_seconds: float | None = None

    def fresh(self) -> "_Meter":
        return _Meter(self, time.monotonic())


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
        limit = self.budget.max_seconds
        if limit is not None and time.monotonic() - self.started > limit:
            raise BudgetExceededError("groebner", f"wall time over {limit}s")

    def tick_reduction(self, n: int = 1):
        self.reductions += n
        if self.reductions > self.budget.max_reductions:
            raise BudgetExceededError("groebner", f"{self.reductions} reduction steps")


DEFAULT_BUDGET = Budget()


class _HeapKeys(dict):
    """Negated ``order.key`` per monomial, memoized for one computation.

    Negated keys drive ``heapq`` (a min-heap) as a max-heap, and sorting terms
    by them ascending puts the leading term first.  Keyed terms are
    ``(negated key, monomial, coefficient)`` triples.
    """

    __slots__ = ("_key",)

    def __init__(self, order):
        super().__init__()
        self._key = order.key

    def __missing__(self, mono):
        nk = self[mono] = tuple(map(neg, self._key(mono)))
        return nk


def _keyed_terms(poly: Polynomial, neg_key):
    return [(neg_key[m], m, c) for m, c in poly.terms]


def _monic_keyed(terms, field):
    lc = terms[0][2]
    if lc == field.one:
        return terms
    inv = field.inv(lc)
    mul = field.mul
    return [(k, m, mul(c, inv)) for k, m, c in terms]


def _divides(a, b):
    return all(map(le, a, b))


def _normal_form_terms(f_terms, basis, field, neg_key, meter):
    """Full remainder of keyed term list ``f_terms`` modulo monic ``basis``.

    ``basis`` entries are (terms, lt_mono) with the leading term first.
    ``f_terms`` may repeat a monomial and, over F_p, hold any ints.  The
    remainder is fully reduced (no remainder monomial is divisible by a basis
    leading monomial), in decreasing order, with canonical coefficients.
    """
    p = field.char
    work = {}
    heap = []
    for k, m, c in f_terms:
        prev = work.get(m)
        if prev is None:
            work[m] = c
            heap.append((k, m))
        else:
            work[m] = prev + c
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    remainder = []
    while heap:
        nk, mono = heappop(heap)
        c = work.pop(mono)
        if p:
            c %= p
        if not c:
            continue
        for g_terms, g_lt in basis:
            if all(map(le, g_lt, mono)):  # _divides, inlined in the hot loop
                break
        else:
            remainder.append((nk, mono, c))
            continue
        meter.tick_reduction(len(g_terms))
        shift = tuple(map(sub, mono, g_lt))
        for _, gm, gc in g_terms[1:]:
            m2 = tuple(map(add, gm, shift))
            prev = work.get(m2)
            if prev is None:
                work[m2] = -c * gc
                heappush(heap, (neg_key[m2], m2))
            else:
                work[m2] = prev - c * gc
    return remainder


def _spoly_terms(fi, fj, lcm, neg_key, meter):
    """S-polynomial of two monic keyed term lists with precomputed lcm.

    The leading terms cancel exactly and are left out, but still metered.
    Monomials may repeat and coefficients are unreduced.
    """
    terms_i, lt_i = fi
    terms_j, lt_j = fj
    shift_i = tuple(map(sub, lcm, lt_i))
    shift_j = tuple(map(sub, lcm, lt_j))
    meter.tick_reduction(len(terms_i) + len(terms_j))
    out = []
    for _, m, c in terms_i[1:]:
        m2 = tuple(map(add, m, shift_i))
        out.append((neg_key[m2], m2, c))
    for _, m, c in terms_j[1:]:
        m2 = tuple(map(add, m, shift_j))
        out.append((neg_key[m2], m2, -c))
    return out


def buchberger(polys, ring: RingContext, budget: Budget | None = None):
    """Reduced Groebner basis of ``polys`` in ``ring``'s active order.

    Returns a list of monic :class:`Polynomial` sorted by increasing leading
    monomial.  The zero ideal yields the empty list.
    """
    budget = budget or DEFAULT_BUDGET
    meter = budget.fresh()
    field = ring.field
    order_key = ring.order.key
    prepared = Divisors(polys, ring)
    neg_key = prepared.neg_key
    basis = prepared.basis
    if not basis:
        return []
    sugar = [max(sum(m) for _, m, _ in terms) for terms, _ in basis]

    pair_heap = []
    pending = set()

    def push_pair(i, j):
        lt_i = basis[i][1]
        lt_j = basis[j][1]
        lcm = tuple(map(max, lt_i, lt_j))
        d = sum(lcm)
        pair_sugar = max(sugar[i] + d - sum(lt_i), sugar[j] + d - sum(lt_j))
        heapq.heappush(pair_heap, (pair_sugar, order_key(lcm), i, j, lcm))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    while pair_heap:
        pair_sugar, _, i, j, lcm = heapq.heappop(pair_heap)
        pending.discard((i, j))
        meter.tick_pair()
        lt_i = basis[i][1]
        lt_j = basis[j][1]
        # product criterion: coprime leading monomials
        if all(a == 0 or b == 0 for a, b in zip(lt_i, lt_j)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if _divides(basis[k][1], lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly_terms(basis[i], basis[j], lcm, neg_key, meter)
        rem = _normal_form_terms(s, basis, field, neg_key, meter)
        if not rem:
            continue
        rem = _monic_keyed(rem, field)
        basis.append((rem, rem[0][1]))
        sugar.append(pair_sugar)
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)

    return _interreduce(basis, ring, field, neg_key, meter)


def _interreduce(basis, ring, field, neg_key, meter):
    # drop elements whose leading monomial is divisible by another's
    keep = []
    for idx, (terms, lt) in enumerate(basis):
        dominated = False
        for jdx, (_, lt2) in enumerate(basis):
            if jdx == idx:
                continue
            if _divides(lt2, lt) and (lt2 != lt or jdx < idx):
                dominated = True
                break
        if not dominated:
            keep.append((terms, lt))
    # tail-reduce every survivor against the others
    reduced = []
    for idx, (terms, lt) in enumerate(keep):
        others = [keep[j] for j in range(len(keep)) if j != idx]
        rem = _normal_form_terms(terms, others, field, neg_key, meter) if others else terms
        rem = _monic_keyed(rem, field)
        reduced.append(rem)
    # increasing leading monomial is decreasing negated key
    reduced.sort(key=lambda t: t[0][0], reverse=True)
    return [Polynomial(ring, tuple((m, c) for _, m, c in t)) for t in reduced]


class Divisors:
    """A divisor list prepared once for repeated division in ``ring``: each
    polynomial keyed in the ring's order, sorted and made monic, with a
    negated-key memo that every division against it shares.  Zero
    polynomials are dropped.  ``ideals.GroebnerBasis.divisors`` keeps one per
    basis, so a loop of normal forms against one basis prepares it once;
    :func:`buchberger` and :func:`spolynomial` prepare their inputs here too.
    """

    __slots__ = ("ring", "basis", "neg_key")

    def __init__(self, polys, ring: RingContext):
        self.ring = ring
        self.neg_key = neg_key = _HeapKeys(ring.order)
        self.basis = []
        for p in polys:
            if p.is_zero():
                continue
            if p.ring.names != ring.names or p.ring.field != ring.field:
                raise RingMismatchError("polynomial from a different ring")
            terms = sorted(_keyed_terms(p, neg_key), key=itemgetter(0))
            self.basis.append((_monic_keyed(terms, ring.field), terms[0][1]))


def normal_form(f: Polynomial, basis_polys, budget: Budget | None = None) -> Polynomial:
    """Remainder of ``f`` on division by ``basis_polys`` (a Groebner basis for
    ideal-membership semantics, any divisor list otherwise).

    ``basis_polys`` is a sequence of polynomials, divided in ``f``'s ring, or
    a prepared :class:`Divisors`, divided in its ring, which ``f`` then has
    to share names and field with; the remainder lives in that ring."""
    divisors = basis_polys if isinstance(basis_polys, Divisors) else Divisors(basis_polys, f.ring)
    ring = divisors.ring
    if f.ring.names != ring.names or f.ring.field != ring.field:
        raise RingMismatchError("polynomial and divisors live in different rings")
    meter = (budget or DEFAULT_BUDGET).fresh()
    neg_key = divisors.neg_key
    rem = _normal_form_terms(_keyed_terms(f, neg_key), divisors.basis, ring.field, neg_key, meter)
    return Polynomial(ring, tuple((m, c) for _, m, c in rem))


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Classic S-polynomial; used by the basis-verification property checks."""
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError("S-polynomial operands in different rings")
    prepared = Divisors((f, g), ring)
    neg_key = prepared.neg_key
    meter = DEFAULT_BUDGET.fresh()
    fi, gj = prepared.basis
    lcm = tuple(map(max, fi[1], gj[1]))
    s = _spoly_terms(fi, gj, lcm, neg_key, meter)
    # division by no divisors collects repeated monomials and reduces mod p
    rem = _normal_form_terms(s, [], ring.field, neg_key, meter)
    return Polynomial(ring, tuple((m, c) for _, m, c in rem))
