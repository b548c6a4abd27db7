"""Buchberger's algorithm: reduced Groebner bases with explicit budgets.

Strategy: normal selection (smallest lcm in the active order first), the
product (coprime leading term) criterion and the chain criterion.  Budgets are
hard limits; overruns raise :class:`BudgetExceededError` rather than returning
a partial basis.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

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


def _memo_key(order):
    """``order.key`` memoized per monomial, for one computation."""
    raw_key = order.key
    cache: dict = {}

    def key_of(m):
        k = cache.get(m)
        if k is None:
            k = raw_key(m)
            cache[m] = k
        return k

    return key_of


def _keyed_terms(poly: Polynomial, key_of):
    return [(key_of(m), m, c) for m, c in poly.terms]


def _monic_keyed(terms, field):
    lc = terms[0][2]
    if lc == field.one:
        return terms
    inv = field.inv(lc)
    mul = field.mul
    return [(k, m, mul(c, inv)) for k, m, c in terms]


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _normal_form_terms(f_terms, basis, field, key_of, meter):
    """Full remainder of keyed term list ``f_terms`` modulo monic ``basis``.

    ``basis`` entries are (terms, lt_mono).  The remainder is fully reduced:
    no remainder monomial is divisible by any basis leading monomial.
    """
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
            if _divides(g_lt, mono):
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


def _spoly_terms(fi, fj, lcm, key_of, field, meter):
    """S-polynomial of two monic keyed term lists with precomputed lcm."""
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


def buchberger(polys, ring: RingContext, budget: Budget | None = None):
    """Reduced Groebner basis of ``polys`` in ``ring``'s active order.

    Returns a list of monic :class:`Polynomial` sorted by increasing leading
    monomial.  The zero ideal yields the empty list.
    """
    budget = budget or DEFAULT_BUDGET
    meter = budget.fresh()
    field = ring.field
    key_of = _memo_key(ring.order)
    basis = []
    for p in polys:
        if p.is_zero():
            continue
        if p.ring != ring:
            if p.ring.names != ring.names or p.ring.field != ring.field:
                raise RingMismatchError("generator from a different ring")
        terms = sorted(_keyed_terms(p, key_of), key=lambda t: t[0], reverse=True)
        basis.append((_monic_keyed(terms, field), terms[0][1]))
    if not basis:
        return []

    pair_heap = []
    pending = set()

    def push_pair(i, j):
        lt_i = basis[i][1]
        lt_j = basis[j][1]
        lcm = tuple(max(a, b) for a, b in zip(lt_i, lt_j))
        heapq.heappush(pair_heap, (key_of(lcm), i, j, lcm))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    while pair_heap:
        _, i, j, lcm = heapq.heappop(pair_heap)
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
        s = _spoly_terms(basis[i], basis[j], lcm, key_of, field, meter)
        s.sort(key=lambda t: t[0], reverse=True)
        rem = _normal_form_terms(s, basis, field, key_of, meter)
        if not rem:
            continue
        rem = _monic_keyed(rem, field)
        basis.append((rem, rem[0][1]))
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)

    return _interreduce(basis, ring, field, key_of, meter)


def _interreduce(basis, ring, field, key_of, meter):
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
        rem = _normal_form_terms(terms, others, field, key_of, meter) if others else terms
        rem = _monic_keyed(rem, field)
        reduced.append(rem)
    reduced.sort(key=lambda t: t[0][0])
    return [Polynomial(ring, tuple((m, c) for _, m, c in t)) for t in reduced]


def normal_form(f: Polynomial, basis_polys, budget: Budget | None = None) -> Polynomial:
    """Remainder of ``f`` on division by ``basis_polys`` (a Groebner basis for
    ideal-membership semantics, any divisor list otherwise)."""
    ring = f.ring
    budget = budget or DEFAULT_BUDGET
    meter = budget.fresh()
    key_of = _memo_key(ring.order)
    basis = []
    for p in basis_polys:
        if p.is_zero():
            continue
        if p.ring.names != ring.names or p.ring.field != ring.field:
            raise RingMismatchError("divisor from a different ring")
        terms = sorted(_keyed_terms(p, key_of), key=lambda t: t[0], reverse=True)
        basis.append((_monic_keyed(terms, ring.field), terms[0][1]))
    f_terms = sorted(_keyed_terms(f, key_of), key=lambda t: t[0], reverse=True)
    rem = _normal_form_terms(f_terms, basis, ring.field, key_of, meter)
    return Polynomial(ring, tuple((m, c) for _, m, c in rem))


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Classic S-polynomial; used by the basis-verification property checks."""
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError("S-polynomial operands in different rings")
    key_of = ring.order.key
    meter = DEFAULT_BUDGET.fresh()
    fi = sorted(_keyed_terms(f.monic(), key_of), key=lambda t: t[0], reverse=True)
    gj = sorted(_keyed_terms(g.monic(), key_of), key=lambda t: t[0], reverse=True)
    lcm = tuple(max(a, b) for a, b in zip(fi[0][1], gj[0][1]))
    s = _spoly_terms((fi, fi[0][1]), (gj, gj[0][1]), lcm, key_of, ring.field, meter)
    acc = {}
    for _, m, c in s:
        prev = acc.get(m)
        if prev is None:
            acc[m] = c
        else:
            v = ring.field.add(prev, c)
            if v == ring.field.zero:
                del acc[m]
            else:
                acc[m] = v
    return ring.from_dict(acc)
