"""Ideals, Groebner bases, elimination, saturation and membership tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DegenerateInputError, HomogeneityError, RingMismatchError
from .groebner import Divisors, buchberger, current_budget, normal_form as nf_terms, spolynomial
from .orders import GREVLEX, Block
from .poly import Polynomial, RingContext


QUOTIENT_CAP = 4096  # largest quotient basis the dense solvers accept


@dataclass(frozen=True)
class Ideal:
    """Generator list in a fixed ring; zero generators are dropped on build."""

    ring: RingContext
    gens: tuple
    homogeneous: bool

    @staticmethod
    def of(ring: RingContext, gens) -> "Ideal":
        """The ideal of ``gens`` in ``ring``; a generator from a ring with the
        same names and field but another order has its terms re-sorted."""
        kept = []
        for g in gens:
            if g.ring.names != ring.names or g.ring.field != ring.field:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero():
                kept.append(g if g.ring == ring else Polynomial(ring, ring.sorted_terms(g.terms)))
        homog = all(g.is_homogeneous() for g in kept)
        return Ideal(ring, tuple(kept), homog)

    def map_ring(self, ring: RingContext) -> "Ideal":
        """Reinterpret generators in a ring with the same names and field."""
        return Ideal.of(ring, self.gens)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis; its ring carries the monomial order."""

    basis: tuple
    ring: RingContext
    # the basis prepared for division, as ``buchberger`` left it
    divisors: Divisors = field(compare=False, repr=False)

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].total_degree() == 0

    @cached_property
    def staircase(self):
        """Monomial basis of ring/I for a zero-dimensional I, else None; kept
        on this object after the first walk.

        The staircase is walked depth first, in lexicographic order with the
        first variable most significant; a prefix divisible by a leading
        monomial ends its branch, and the walk raises as soon as it passes
        ``QUOTIENT_CAP``.
        """
        n = self.ring.nvars
        lts = [g.leading_monomial() for g in self.basis]
        if any(sum(m) == 0 for m in lts):
            return []
        # leading monomials grouped by their last variable: the only ones a
        # prefix can newly become divisible by when that variable grows
        by_last = [[] for _ in range(n)]
        for m in lts:
            by_last[max(i for i, e in enumerate(m) if e)].append(m)
        if any(not any(m[i] == sum(m) for m in by_last[i]) for i in range(n)):
            return None  # some variable has no pure power among the leading terms
        out = []

        def walk(prefix):
            k = len(prefix)
            if k == n:
                out.append(prefix)
                if len(out) > QUOTIENT_CAP:
                    raise DegenerateInputError("quotient basis larger than cap")
                return
            e = 0
            while True:
                mono = prefix + (e,)
                if any(all(a >= b for a, b in zip(mono, lt)) for lt in by_last[k]):
                    return  # x_k^e divides into the ideal; so does every larger e
                walk(mono)
                e += 1

        walk(())
        return out


_GB_CACHE: dict = {}
_GB_CACHE_LIMIT = 512


def groebner_basis(ideal: Ideal, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` under ``order`` (default: ring's order).

    Bases are cached under the current limits too: whether a run finishes
    within them depends only on the ideal, the order and the limits, so a
    hit is exactly a recomputation, budget exit included.  A hit returns the
    object the miss built, with its prepared divisors and whatever it has
    derived since (its staircase), so a hit divides without coding the basis
    again.
    """
    ring = ideal.ring.with_order(order if order is not None else ideal.ring.order)
    cache_key = (ring, ideal.gens, current_budget().key())
    hit = _GB_CACHE.get(cache_key)
    if hit is not None:
        return hit
    # construction order is irrelevant to the reduced basis; sorting makes
    # the computation independent of generator ordering quirks.  The key
    # reads the terms in the ideal's order, then each generator's terms are
    # put in the basis ring's.
    gens = sorted(ideal.gens, key=lambda p: (p.total_degree(), p.terms))
    gens = [g if g.ring == ring else Polynomial(ring, ring.sorted_terms(g.terms)) for g in gens]
    reduced = buchberger(gens, ring)
    if len(_GB_CACHE) >= _GB_CACHE_LIMIT:
        _GB_CACHE.clear()
    gb = _GB_CACHE[cache_key] = GroebnerBasis(tuple(reduced), ring, reduced.divisors)
    return gb


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of ``f`` modulo ``gb``, in the basis's ring."""
    return nf_terms(f, gb.divisors)


def ideal_contains(gb: GroebnerBasis, other: Ideal) -> bool:
    """True when every generator of ``other`` reduces to zero against ``gb``."""
    return all(normal_form(g, gb).is_zero() for g in other.gens)


def verify_groebner_basis(gb: GroebnerBasis) -> bool:
    """Exhaustive S-polynomial closure check (meant for bases of modest size)."""
    basis = list(gb.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spolynomial(basis[i], basis[j])
            if not nf_terms(s, gb.divisors).is_zero():
                return False
    for g in basis:
        if g.is_zero() or g.leading_coeff() != gb.ring.field.one:
            return False
        for h in basis:
            if h is g:
                continue
            lt = h.leading_monomial()
            if any(all(a >= b for a, b in zip(m, lt)) for m, _ in g.terms):
                return False
    return True


# -- elimination --------------------------------------------------------------


def eliminate(ideal: Ideal, k: int) -> Ideal:
    """Intersection of the ideal with the subring omitting the first k variables.

    Computed from a block(k) Groebner basis; the result lives in the grevlex
    subring (block(0) orders like grevlex, so for k = 0 this is a grevlex
    basis of the input).
    """
    gb = groebner_basis(ideal, Block(k))
    sub = ideal.ring.subring(k)
    kept = []
    for g in gb.basis:
        if all(all(e == 0 for e in m[:k]) for m, _ in g.terms):
            kept.append(sub.from_dict({m[k:]: c for m, c in g.terms}))
    return Ideal.of(sub, kept)


def _fresh_name(ring: RingContext, base: str) -> str:
    name = base
    n = 0
    while name in ring.names:
        n += 1
        name = f"{base}{n}"
    return name


def extend_front(ideal: Ideal, base: str):
    """Embed the ideal into a ring with one fresh leading variable."""
    ring = ideal.ring
    big = ring.extend([_fresh_name(ring, base)], front=True)
    gens = [big.from_dict({(0,) + m: c for m, c in g.terms}) for g in ideal.gens]
    return big, gens


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Two-ideal intersection via the u*I + (1-u)*J elimination trick."""
    if a.ring != b.ring:
        raise RingMismatchError("intersection of ideals in different rings")
    big, a_gens = extend_front(a, "u")
    _, b_gens = extend_front(b, "u")
    u = big.variable(0)
    one = big.one()
    mixed = [u * g for g in a_gens] + [(one - u) * g for g in b_gens]
    out = eliminate(Ideal.of(big, mixed), 1)
    return out.map_ring(a.ring) if out.ring != a.ring else out


def saturate_single(ideal: Ideal, g: Polynomial) -> Ideal:
    """(I : g^infinity) via the added-variable trick: adjoin w, add w*g - 1."""
    big, gens = extend_front(ideal, "w")
    w = big.variable(0)
    g_big = big.from_dict({(0,) + m: c for m, c in g.terms})
    gens.append(w * g_big - big.one())
    out = eliminate(Ideal.of(big, gens), 1)
    return out.map_ring(ideal.ring) if out.ring != ideal.ring else out


def saturate(ideal: Ideal, by: Ideal) -> Ideal:
    """(I : J^infinity) as the intersection over generators g of J of (I : g^inf)."""
    if ideal.ring != by.ring:
        raise RingMismatchError("saturation operands in different rings")
    parts = [saturate_single(ideal, g) for g in by.gens]
    if not parts:
        return ideal
    acc = parts[0]
    for nxt in parts[1:]:
        acc = intersect(acc, nxt)
    return acc


def saturate_wrt_variable(ideal: Ideal, var: int) -> Ideal:
    """(I : x_var^infinity) for homogeneous I, by the reverse-lex division trick.

    A grevlex basis with x_var as the smallest variable, divided termwise by
    the largest power of x_var, generates the saturation.
    """
    if not ideal.homogeneous:
        raise HomogeneityError("variable saturation trick requires a homogeneous ideal")
    ring = ideal.ring
    n = ring.nvars
    perm = [i for i in range(n) if i != var] + [var]
    inv = [0] * n
    for pos, i in enumerate(perm):
        inv[i] = pos
    pring = RingContext(tuple(ring.names[i] for i in perm), ring.field, GREVLEX)
    pgens = [
        pring.from_dict({tuple(m[i] for i in perm): c for m, c in g.terms})
        for g in ideal.gens
    ]
    divided = []
    for g in groebner_basis(Ideal.of(pring, pgens)).basis:
        v = min(m[-1] for m, _ in g.terms)
        if v:
            g = pring.from_dict({m[:-1] + (m[-1] - v,): c for m, c in g.terms})
        divided.append(g)
    back = [
        ring.from_dict({tuple(m[inv[i]] for i in range(n)): c for m, c in g.terms})
        for g in divided
    ]
    return Ideal.of(ring, back)


def irrelevant_saturate(ideal: Ideal) -> Ideal:
    """(I : (x_0..x_n)^infinity) for homogeneous I: the package's one
    saturation by the irrelevant ideal.

    Fast path: if some single-variable saturation already sits inside the
    ideal, the ideal is its own saturation (returned as its reduced GREVLEX
    basis).  Otherwise fold the per-variable saturations through pairwise
    intersections: (I : m^infinity) is the intersection of the (I : x_i^infinity).
    """
    if not ideal.homogeneous:
        raise HomogeneityError("irrelevant saturation requires a homogeneous ideal")
    if not ideal.gens:
        return ideal
    gb = groebner_basis(ideal, GREVLEX)
    parts = []
    for var in range(ideal.ring.nvars):
        sat = saturate_wrt_variable(ideal, var)
        if ideal_contains(gb, sat):
            return Ideal.of(ideal.ring, gb.basis)
        parts.append(sat)
    acc = parts[0]
    for nxt in parts[1:]:
        acc = homogeneous_generators(intersect(acc, nxt))
    return acc


def in_irrelevant_saturation(f: Polynomial, ideal: Ideal) -> bool:
    """Membership of f in (I : (x_0..x_n)^infinity)."""
    gb = groebner_basis(irrelevant_saturate(ideal), GREVLEX)
    return normal_form(f, gb).is_zero()


def same_ideal(a: Ideal, b: Ideal) -> bool:
    """Ideal equality: mutual containment, tested on GREVLEX bases."""
    return ideal_contains(groebner_basis(b, GREVLEX), a) and ideal_contains(groebner_basis(a, GREVLEX), b)


def radical_membership(f: Polynomial, ideal: Ideal) -> bool:
    """f in rad(I) iff 1 in I + (w*f - 1)."""
    if f.is_zero():
        return True
    big, gens = extend_front(ideal, "w")
    w = big.variable(0)
    f_big = big.from_dict({(0,) + m: c for m, c in f.terms})
    gens.append(w * f_big - big.one())
    return groebner_basis(Ideal.of(big, gens)).is_unit()


def homogeneous_generators(ideal: Ideal) -> Ideal:
    """Split every generator into homogeneous components.

    Only valid when the ideal is known to be homogeneous (e.g. the restriction
    of a multigraded ideal to a graded subring); then each component of any
    element lies in the ideal.
    """
    parts = []
    for g in ideal.gens:
        parts.extend(g.homogeneous_components())
    return Ideal.of(ideal.ring, parts)
