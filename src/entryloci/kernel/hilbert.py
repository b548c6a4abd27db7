"""Hilbert series, projective dimension, degree and arithmetic genus.

From a grevlex Groebner basis, the leading-term monomial ideal has the same
Hilbert function; its series numerator is computed by the pivot-variable
recursion  h(I) = h(I + (x)) + t * h(I : x), with the pairwise-coprime product
as base case.  Writing HS(t) = Q(t)/(1-t)^(D+1) with Q(1) != 0 gives the
projective dimension D, degree Q(1), and the Hilbert polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HomogeneityError
from .ideals import Ideal, groebner_basis
from .orders import GREVLEX


@dataclass(frozen=True)
class HilbertInvariants:
    dimension: int  # projective dimension; -1 means empty
    degree: int
    hilbert_polynomial: tuple  # Fraction coefficients, low degree first
    arithmetic_genus: int | None  # 1 - HP(0) when dimension == 1


def _minimalize(gens):
    out = []
    for m in sorted(gens, key=sum):
        if not any(all(a >= b for a, b in zip(m, g)) for g in out):
            out.append(m)
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _series_numerator(gens, nvars: int):
    """Numerator of the Hilbert series of S/(monomial ideal) over (1-t)^nvars."""
    gens = _minimalize(gens)
    if not gens:
        return [1]
    if any(sum(m) == 0 for m in gens):
        return [0]
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    pairwise_coprime = all(
        not (supports[i] & supports[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    if pairwise_coprime:
        acc = [1]
        for m in gens:
            d = sum(m)
            factor = [1] + [0] * (d - 1) + [-1]
            acc = _poly_mul(acc, factor)
        return acc
    counts = [0] * nvars
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] += 1
    pivot = max(range(nvars), key=lambda i: counts[i])
    # I + (x_pivot): keep generators free of the pivot, adjoin the pivot
    plus = [m for m, s in zip(gens, supports) if pivot not in s]
    unit = tuple(1 if i == pivot else 0 for i in range(nvars))
    plus.append(unit)
    # I : x_pivot: lower the pivot exponent by one where possible
    colon = []
    for m in gens:
        if m[pivot] > 0:
            mm = list(m)
            mm[pivot] -= 1
            colon.append(tuple(mm))
        else:
            colon.append(m)
    h_plus = _series_numerator(plus, nvars)
    h_colon = _series_numerator(colon, nvars)
    out = [0] * max(len(h_plus), len(h_colon) + 1)
    for i, x in enumerate(h_plus):
        out[i] += x
    for i, x in enumerate(h_colon):
        out[i + 1] += x
    while out and out[-1] == 0:
        out.pop()
    return out


def _divide_one_minus_t(coeffs):
    """Exact division by (1 - t); requires coeffs summing to zero."""
    out = []
    acc = 0
    for c in coeffs[:-1] if coeffs else []:
        acc += c
        out.append(acc)
    while out and out[-1] == 0:
        out.pop()
    return out


def _binomial_poly(shift: int, d: int):
    """binomial(T + shift, d) as Fraction coefficients in T."""
    num = [Fraction(1)]
    for i in range(1, d + 1):
        num = _poly_mul(num, [Fraction(shift + i), Fraction(1)])
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    return [c / fact for c in num]


def hilbert_invariants(ideal: Ideal) -> HilbertInvariants:
    """Projective dimension, degree and Hilbert polynomial of a homogeneous ideal."""
    if not ideal.homogeneous:
        raise HomogeneityError("hilbert invariants need a homogeneous ideal")
    gb = groebner_basis(ideal, GREVLEX)
    nvars = gb.ring.nvars
    if not gb.basis:
        numerator = [1]
    else:
        lts = [g.leading_monomial() for g in gb.basis]
        numerator = _series_numerator(lts, nvars)
    v = 0
    while numerator and sum(numerator) == 0:
        numerator = _divide_one_minus_t(numerator)
        v += 1
    if not numerator:
        numerator = [0]
    cone_dim = nvars - v
    if cone_dim <= 0 or numerator == [0]:
        return HilbertInvariants(-1, 0, (), None)
    dim = cone_dim - 1
    degree = sum(numerator)
    hp = [Fraction(0)] * (dim + 1)
    for j, q in enumerate(numerator):
        if q == 0:
            continue
        # HF(k) = sum_j Q_j * binomial(k - j + D, D) for large k
        binom = _binomial_poly(-j, dim)
        for i, c in enumerate(binom):
            hp[i] += q * c
    genus = None
    if dim == 1:
        genus = int(1 - hp[0])
    return HilbertInvariants(dim, degree, tuple(hp), genus)

