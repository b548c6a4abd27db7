"""Zero-dimensional ideal tools: minimal polynomials of ring elements,
distinct-point counts and rational-point enumeration over F_p.

Everything works in the quotient ring/I through normal forms on its monomial
basis, the staircase of the Groebner basis (:attr:`GroebnerBasis.staircase`).
:func:`minimal_polynomial_of` finds the minimal polynomial of an element t
from its Krylov vectors NF(1), NF(t), ..., NF(t^D), D = dim ring/I, by one
``rref``: the first power that depends on the lower ones gives it.  When the
squarefree part of that polynomial has degree D, the ideal is radical and t
separates its points (shape position): the Krylov vectors are a basis of the
quotient, a second ``rref`` writes every coordinate as a polynomial g_i(t),
and each root tau of the minimal polynomial is the point
(g_0(tau), ..., g_{n-1}(tau)) (the rational univariate representation,
Rouillier, AAECC 9, 1999).  Other systems pin each root's point through a
Groebner basis of I + (t - tau).  A distinct-point count that reaches D has
found such a t, so :func:`count_distinct_points` returns its minimal
polynomial and Krylov vectors as the shape, and
:func:`enumerate_points_prime_field` given that shape reads the points from
it without drawing a second form.
"""

from __future__ import annotations

import random

from .errors import DegenerateInputError
from .fields import PrimeField
from .ideals import GroebnerBasis, Ideal, groebner_basis, normal_form
from .linalg import rref
from .orders import GREVLEX
from .poly import Polynomial, RingContext
from .rng import random_coords
from .univar import u_degree, u_roots_prime_field, u_squarefree_part

COUNT_TRIALS = 2  # separating forms drawn per distinct-point count (a bad one can only undercount)


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    return gb.staircase is not None


def _staircase(gb: GroebnerBasis):
    monos = gb.staircase
    if monos is None:
        raise DegenerateInputError("ideal is not zero-dimensional")
    return monos


def _nf_vector(f: Polynomial, gb: GroebnerBasis, index):
    r = normal_form(f, gb)
    vec = [gb.ring.field.zero] * len(index)
    for m, c in r.terms:
        vec[index[m]] = c
    return vec


def minimal_polynomial_of(f: Polynomial, gb: GroebnerBasis):
    """(minimal polynomial of multiplication by f on ring/I, Krylov vectors),
    for a zero-dimensional I.

    The vectors NF(f^k), k = 0..D on the staircase (D = its length), are the
    columns of one ``rref``; D + 1 vectors in a D-dimensional quotient are
    dependent, so some column is not a pivot.  The first such column k is the
    first power that depends on the lower ones, and it holds their
    coefficients: the minimal polynomial is monic of degree k, little-endian
    (1 on the unit ideal).  The vectors returned are those below k.
    """
    monos = _staircase(gb)
    field = gb.ring.field
    index = {m: i for i, m in enumerate(monos)}
    power = gb.ring.one()
    vectors = [_nf_vector(power, gb, index)]
    for _ in monos:
        power = normal_form(power * f, gb)
        vec = [field.zero] * len(monos)
        for m, c in power.terms:
            vec[index[m]] = c
        vectors.append(vec)
    red, piv = rref(list(map(list, zip(*vectors))), field)
    k = next((j for j, c in enumerate(piv) if c != j), len(piv))
    return [field.neg(red[i][k]) for i in range(k)] + [field.one], vectors[:k]


def random_linear_combination(ring: RingContext, rng: random.Random) -> Polynomial:
    """Seeded nonzero linear form (coefficients from :func:`rng.random_coords`)."""
    return ring.linear_form(random_coords(ring.field, rng, ring.nvars))


def count_distinct_points(gb: GroebnerBasis, rng: random.Random):
    """(count, shape): the number of distinct solutions of a zero-dimensional
    system over the algebraic closure, the squarefree degree of the minimal
    polynomial of a random separating linear form, maximized over up to
    ``COUNT_TRIALS`` forms (a non-separating form can only undercount); and
    the (minimal polynomial, Krylov vectors) of the form that reached D, or
    None.

    The count never exceeds D = dim ring/I, the staircase's length, so the
    first trial that reaches D is exact and the rest are not computed; their
    forms are still drawn, so ``rng`` leaves here in the same state whatever
    the trials found.  A form that reaches D puts the system in shape
    position: its minimal polynomial is squarefree of degree D, and its
    Krylov vectors are a basis of the quotient
    (:func:`enumerate_points_prime_field` reads the points from them).
    """
    monos = _staircase(gb)
    best, shape = 0, None
    for _ in range(COUNT_TRIALS):
        t = random_linear_combination(gb.ring, rng)
        if best < len(monos):
            mp, krylov = minimal_polynomial_of(t, gb)
            best = max(best, u_degree(u_squarefree_part(mp, gb.ring.field)))
            if best == len(monos):
                shape = mp, krylov
    return best, shape


def enumerate_points_prime_field(
    gb: GroebnerBasis, rng: random.Random, require_all: bool = True, shape=None
):
    """F_p-rational points of a zero-dimensional system.

    With ``require_all`` (the default), returns None unless every point of the
    system is rational; otherwise returns whatever rational points exist, in
    the order of the separating form's roots.  The form is a fresh random
    one, unless ``shape`` holds the (minimal polynomial, Krylov vectors) of a
    form that reached the full count (:func:`count_distinct_points`); then no
    form is drawn.  In shape position the points are read off the Krylov
    basis (:func:`_shape_coordinates`); otherwise each root's point is
    pinned on a Groebner basis of I + (t - tau), one coordinate at a time
    through its (necessarily linear-rooted) minimal polynomial.  Both routes
    make the same draws from ``rng``.
    """
    ring = gb.ring
    field = ring.field
    if not isinstance(field, PrimeField):
        raise ValueError("point enumeration runs over a prime field")
    monos = _staircase(gb)
    if not monos:
        return []
    if shape is None:
        sep = random_linear_combination(ring, rng)
        mp, krylov = minimal_polynomial_of(sep, gb)
        sf = u_squarefree_part(mp, field)
    else:
        sf, krylov = shape  # squarefree of degree D
    roots = u_roots_prime_field(sf, field, rng)
    if require_all and len(roots) != u_degree(sf):
        return None  # separating values live in an extension
    if u_degree(sf) == len(monos):
        coords = _shape_coordinates(gb, monos, krylov)
        return [tuple(_horner(g, tau, field.p) for g in coords) for tau in roots]
    points = []
    for tau in roots:
        # the basis generates I, so I + (t - tau) is generated by it and t - tau
        gens = list(gb.basis) + [sep - ring.constant(tau)]
        sub_gb = groebner_basis(Ideal.of(ring, gens), GREVLEX)
        coords = _pin_coordinates(sub_gb, rng)
        if coords is None:
            if require_all:
                return None
            continue
        points.append(tuple(coords))
    return points


def _shape_coordinates(gb: GroebnerBasis, monos, krylov):
    """Each coordinate x_i as a little-endian polynomial g_i with
    x_i = g_i(t) mod I, when the Krylov vectors NF(t^k), k < D, are a basis
    of the D-dimensional quotient."""
    ring = gb.ring
    index = {m: i for i, m in enumerate(monos)}
    coords = [_nf_vector(ring.variable(i), gb, index) for i in range(ring.nvars)]
    red, _ = rref(list(zip(*krylov, *coords)), ring.field)
    d = len(monos)
    return [[row[d + i] for row in red] for i in range(ring.nvars)]


def _horner(coeffs, x, p):
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % p
    return value


def _pin_coordinates(gb: GroebnerBasis, rng: random.Random):
    """Coordinates of the one support point of V(gb), each the root of the
    squarefree minimal polynomial of x_i on this basis; None when the support
    has more than one point or a coordinate is irrational."""
    ring = gb.ring
    field = ring.field
    coords = []
    for i in range(ring.nvars):
        mp = minimal_polynomial_of(ring.variable(i), gb)[0]
        sf = u_squarefree_part(mp, field)
        roots = u_roots_prime_field(sf, field, rng)
        if u_degree(sf) != 1 or len(roots) != 1:
            return None  # separating form failed or irrational coordinate
        coords.append(roots[0])
    return coords
