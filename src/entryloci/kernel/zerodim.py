"""Zero-dimensional ideal tools: quotient bases, minimal polynomials of ring
elements, distinct-point counts and rational-point enumeration over F_p."""

from __future__ import annotations

import random

from .errors import DegenerateInputError
from .fields import PrimeField
from .groebner import Budget
from .ideals import GroebnerBasis, Ideal, groebner_basis, normal_form
from .linalg import solve
from .orders import GREVLEX
from .poly import Polynomial, RingContext
from .rng import QQ_HEIGHT
from .univar import u_degree, u_roots_prime_field, u_squarefree_part, u_trim


QUOTIENT_CAP = 4096  # largest quotient basis the dense solvers accept


def quotient_monomials(gb: GroebnerBasis):
    """Monomial basis of ring/I for a zero-dimensional I, else None."""
    ring = gb.ring
    n = ring.nvars
    lts = [g.leading_monomial() for g in gb.basis]
    if any(sum(m) == 0 for m in lts):
        return []
    bounds = [None] * n
    for m in lts:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        return None
    monos = [()]
    for b in bounds:
        monos = [m + (e,) for m in monos for e in range(b)]
    out = []
    for m in monos:
        if not any(all(a >= b for a, b in zip(m, lt)) for lt in lts):
            out.append(m)
        if len(out) > QUOTIENT_CAP:
            raise DegenerateInputError("quotient basis larger than cap")
    return out


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    return quotient_monomials(gb) is not None


def _nf_vector(f: Polynomial, gb: GroebnerBasis, index, budget=None):
    r = normal_form(f, gb, budget)
    vec = [gb.ring.field.zero] * len(index)
    for m, c in r.terms:
        vec[index[m]] = c
    return vec


def minimal_polynomial_of(
    f: Polynomial, gb: GroebnerBasis, budget: Budget | None = None
):
    """Minimal polynomial of multiplication by f on ring/I (I zero-dimensional).

    Returned as a monic little-endian coefficient list.
    """
    monos = quotient_monomials(gb)
    if monos is None:
        raise DegenerateInputError("ideal is not zero-dimensional")
    field = gb.ring.field
    if not monos:
        return [field.one]  # unit ideal: minimal polynomial of anything is 1
    index = {m: i for i, m in enumerate(monos)}
    ring = gb.ring
    power = ring.one()
    vectors = [_nf_vector(power, gb, index, budget)]
    while True:
        power = normal_form(power * f, gb, budget)
        vec = [field.zero] * len(monos)
        for m, c in power.terms:
            vec[index[m]] = c
        cols = list(map(list, zip(*vectors)))
        sol = solve(cols, vec, field)
        if sol is not None:
            coeffs = [field.neg(c) for c in sol] + [field.one]
            return u_trim(coeffs, field) or [field.one]
        vectors.append(vec)
        if len(vectors) > len(monos) + 1:
            raise DegenerateInputError("minimal polynomial iteration overran the quotient")


def random_linear_combination(ring: RingContext, rng: random.Random) -> Polynomial:
    """Seeded nonzero linear form: residues mod p, or integers of height <= QQ_HEIGHT."""
    field = ring.field
    if isinstance(field, PrimeField):
        draw = lambda: rng.randrange(field.p)
    else:
        draw = lambda: rng.randint(-QQ_HEIGHT, QQ_HEIGHT)
    while True:
        coeffs = [field.coerce(draw()) for _ in range(ring.nvars)]
        if any(c != field.zero for c in coeffs):
            break
    return ring.linear_form(coeffs)


def count_distinct_points(
    gb: GroebnerBasis, rng: random.Random, trials: int = 2, budget: Budget | None = None
) -> int:
    """Number of distinct solutions of a zero-dimensional system over the
    algebraic closure: the squarefree degree of the minimal polynomial of a
    random separating linear form (max over trials; a non-separating form can
    only undercount)."""
    best = 0
    for _ in range(trials):
        t = random_linear_combination(gb.ring, rng)
        mp = minimal_polynomial_of(t, gb, budget)
        sf = u_squarefree_part(mp, gb.ring.field)
        best = max(best, u_degree(sf))
    return best


def enumerate_points_prime_field(
    gb: GroebnerBasis,
    rng: random.Random,
    budget: Budget | None = None,
    require_all: bool = True,
):
    """F_p-rational points of a zero-dimensional system.

    With ``require_all`` (the default), returns None unless every point of the
    system is rational; otherwise returns whatever rational points exist.
    Works component by component: pin a separating-form value, then pin each
    coordinate through its (necessarily linear-rooted) minimal polynomial.
    """
    ring = gb.ring
    field = ring.field
    if not isinstance(field, PrimeField):
        raise ValueError("point enumeration runs over a prime field")
    monos = quotient_monomials(gb)
    if monos is None:
        raise DegenerateInputError("ideal is not zero-dimensional")
    if not monos:
        return []
    sep = random_linear_combination(ring, rng)
    mp = minimal_polynomial_of(sep, gb, budget)
    sf = u_squarefree_part(mp, field)
    roots = u_roots_prime_field(sf, field, rng)
    if require_all and len(roots) != u_degree(sf):
        return None  # separating values live in an extension
    points = []
    for tau in roots:
        gens = list(gb.source.gens) + [
            Polynomial(ring, sep.terms) - ring.constant(tau)
        ]
        sub_gb = groebner_basis(Ideal.of(ring, gens), GREVLEX, budget)
        coords = _pin_coordinates(sub_gb, rng, budget)
        if coords is None:
            if require_all:
                return None
            continue
        points.append(tuple(coords))
    return points


def _pin_coordinates(gb: GroebnerBasis, rng: random.Random, budget):
    """Coordinates of the one support point of V(gb), each the root of the
    squarefree minimal polynomial of x_i on this basis; None when the support
    has more than one point or a coordinate is irrational."""
    ring = gb.ring
    field = ring.field
    coords = []
    for i in range(ring.nvars):
        mp = minimal_polynomial_of(ring.variable(i), gb, budget)
        sf = u_squarefree_part(mp, field)
        roots = u_roots_prime_field(sf, field, rng)
        if u_degree(sf) != 1 or len(roots) != 1:
            return None  # separating form failed or irrational coordinate
        coords.append(roots[0])
    return coords
