"""Bivariate tools: gcd, squarefree part, and the absolute-irreducibility count.

The count comes from Gao's partial-differential linear system (Math. Comp.
72, 2003): for squarefree f, the dimension of the space of pairs (g, h) with

    f * (dg/dy - dh/dx) = g * df/dy - h * df/dx

under the degree bounds deg_x g <= deg_x f - 1, deg_y g <= deg_y f,
deg_x h <= deg_x f, deg_y h <= deg_y f - 1 equals the number of absolutely
irreducible factors of f (characteristic 0 or p large), and every solution
has g = sum_i w_i * (f_i)_x * f / f_i over the absolute factors f_i.  Each
stage below does only the work its answer needs.  ``absolute_factor_count``
checks its input squarefree first; on a ``squarefree_part`` output that is
one restriction to a line, the certificate below.

**Squarefree by one line.**  Restrict f to a seeded line (t, a*t + b),
reduced modulo the run's prime (over Q, a fixed large prime that divides no
denominator).  If the restriction F(t) keeps degree deg f and is squarefree,
f is squarefree.  Proof: suppose f = g^2 * h with deg g >= 1.  Over Q,
Gauss's lemma gives f = c * g^2 * h with g, h primitive integer polynomials
and c a p-integral rational, since f is.  So F = c * G^2 * H for the
restrictions G, H of g, h mod p, with deg G <= deg g and deg H <= deg h.
Then deg F <= 2 deg G + deg H <= 2 deg g + deg h = deg f, and deg F = deg f
forces deg G = deg g >= 1; G^2 divides F, so F is not squarefree.  (F is
squarefree exactly when gcd(F, F') = 1, in any characteristic.)  The
certificate is one-sided: when it refuses, the gcd chain gcd(f, f_y, f_x)
decides.  Each of its gcds is the cofactor f * g / lcm(f, g), the lcm being
the one generator of the ideal (f) meet (g) from ``ideals.intersect`` (Cox,
Little & O'Shea, *Ideals, Varieties, and Algorithms*, 4.3), so it is a
Groebner run under the current limits like any other.

**Gao's matrix from f's terms.**  Over the terms c * x^a * y^b of f, the g
column of x^i y^j holds c * (j - b) at x^(a+i) y^(b+j-1), and the h column
of x^i y^j holds c * (a - i) at x^(a+i-1) y^(b+j).  A (row, column) entry
comes from one term only, so no sums are formed.  Over Q, f is cleared to a
primitive integer polynomial first; the kernel does not change.

**Count by rank.**  Over F_p the count is columns - rank, from forward
elimination alone (``linalg.echelon``).  Over Q the rank of the integer
matrix can only drop modulo a prime, so the nullity r mod p bounds the count
from above; (f_x, f_y) always solves the system, so r = 1 is exact.  For
r > 1 the canonical kernel basis mod p (one vector per free column of the
reduced echelon form) is lifted by CRT over further primes with the same
pivot columns, and by rational reconstruction (Wang, Guy & Davenport, SIGSAM
Bull. 16, 1982; Monagan, ISSAC 2004).  The lifted vectors are checked to
solve the integer system exactly; r independent verified solutions bound the
count from below, so it is r.  A prime with fewer or lexicographically
later pivot columns is unlucky (``linalg``) and is dropped.  The entries of
the canonical basis are ratios of minors, bounded by Hadamard's bound H, so
a modulus above 2 H^2 from lucky primes reconstructs them, which caps the
number of primes.

**Degrees from one resultant.**  Take the kernel element g with random
weights at the free columns (back substitution on the echelon form).  With
both partial degrees of f equal to n = deg f, f(a, y) has degree n in y for
every a, and

    Res_y(f(a, y), g(a, y) - z * f_x(a, y)) = C * prod_i (w_i - z)^(deg f_i).

At a root beta of f_i(a, y) every term of g but the i-th vanishes, so
g - z * f_x = (w_i - z) * (f_i)_x * (f / f_i) there; the resultant is a
constant times the product over the n roots, counted with multiplicity (its
Sylvester matrix has rows linear in z, ``univar.u_det_pencil``).  If
(f_i)_x * (f / f_i) vanishes at some root, the resultant vanishes
identically: a degenerate sample, which is redrawn.  So each distinct weight,
a root of the resultant in the algebraic closure, is one absolutely
irreducible factor, and its multiplicity is that factor's degree: an
irreducible factor of degree e and multiplicity m over F_p contributes e
factors of degree m.  Two factors with the same weight would merge, which
the checks ``len == r`` and ``sum == n`` catch.

Every function here takes plane polynomials: elements of a ring in exactly
two variables, x first and y second.  Another ring raises ValueError.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, lcm

from .errors import CharacteristicError, DegenerateInputError, NotSquarefreeError
from .fields import PrimeField, next_prime
from .ideals import Ideal, intersect
from .linalg import cleared, echelon, echelon_solution, primitive, reduce_echelon
from .poly import Polynomial
from .rng import seeded_rng
from .univar import u_degree, u_derivative, u_det_pencil, u_divmod, u_gcd, u_trim


def _require_plane(f: Polynomial):
    if f.ring.nvars != 2:
        raise ValueError(f"need a plane polynomial, got a ring in {f.ring.nvars} variables")


def bivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """GCD of two plane polynomials, monic in the ring's term order (gcds
    are only defined up to a scalar): f * g over their lcm, the one
    generator of (f) meet (g) (module docstring)."""
    _require_plane(f)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    ring = f.ring
    (l,) = intersect(Ideal.of(ring, [f]), Ideal.of(ring, [g])).gens
    return poly_exact_div(f * g, l).monic()


def poly_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f / g; raises ArithmeticError if g does not divide f."""
    ring = f.ring
    field = ring.field
    q = {}
    r = f
    glt, glc = g.leading_term()
    while not r.is_zero():
        rlt, rlc = r.leading_term()
        diff = tuple(a - b for a, b in zip(rlt, glt))
        if any(e < 0 for e in diff):
            raise ArithmeticError("not divisible")
        c = field.div(rlc, glc)
        q[diff] = c
        r = r - ring.monomial(diff, c) * g
    return ring.from_dict(q)


def _repeated_part(plane: Polynomial) -> Polynomial:
    """gcd(f, df/dy, df/dx) of a plane polynomial f: the product of p^(e-1)
    over its factors p^e (characteristic 0 or above deg f).  One partial
    alone would miss the factors free of its variable.  The second gcd runs
    on the first, which is usually constant."""
    g = bivariate_gcd(plane, plane.derivative(1))
    if g.total_degree() > 0:
        g = bivariate_gcd(g, plane.derivative(0))
    return g


_LARGE_PRIMES = []


def _large_prime(k: int) -> int:
    """The k-th prime above 2^61 (from 0): the moduli that stand in for Q."""
    while len(_LARGE_PRIMES) <= k:
        _LARGE_PRIMES.append(next_prime(_LARGE_PRIMES[-1] if _LARGE_PRIMES else 2**61))
    return _LARGE_PRIMES[k]


def _line_field(f: Polynomial):
    """(prime field, {monomial: coefficient in it}) of the line certificate:
    the run's field, or over Q the first of three large primes that divides
    no denominator of f (None if all three do)."""
    field = f.ring.field
    if field.char:
        return field, dict(f.terms)
    for k in range(3):
        p = _large_prime(k)
        if all(c.denominator % p for _, c in f.terms):
            return PrimeField(p), {m: c.numerator * pow(c.denominator, -1, p) % p for m, c in f.terms}
    return None


def _squarefree_line(p: int):
    """The seeded line (t, a*t + b) of the certificate modulo p."""
    rng = seeded_rng(("squarefree-line", p))
    return rng.randrange(p), rng.randrange(p)


def _line_certifies(f: Polynomial) -> bool:
    """True when f restricted to the seeded line is squarefree of degree
    deg f modulo the certificate's prime, which proves f squarefree (see the
    module docstring).  False proves nothing."""
    chosen = _line_field(f)
    if chosen is None:
        return False
    field, coeffs = chosen
    p = field.p
    a, b = _squarefree_line(p)
    n = f.total_degree()
    powers = [[1]]  # (a*t + b)^j, little-endian, reduced mod p
    for _ in range(f.degree_in(1)):
        prev = powers[-1]
        powers.append([(b * x + a * y) % p for x, y in zip(prev + [0], [0] + prev)])
    restricted = [0] * (n + 1)
    for (i, j), c in coeffs.items():
        for k, x in enumerate(powers[j]):
            restricted[i + k] += c * x
    restricted = u_trim([x % p for x in restricted], field)
    if u_degree(restricted) != n:
        return False
    return u_degree(u_gcd(restricted, u_derivative(restricted, field), field)) == 0


def squarefree_part(f: Polynomial) -> Polynomial:
    """f / gcd(f, df/dy, df/dx), monic: f.monic() when the line certifies f
    squarefree, else the gcd chain's quotient."""
    _require_plane(f)
    field = f.ring.field
    if field.char != 0 and field.char <= f.total_degree():
        raise CharacteristicError(
            f"characteristic {field.char} too small for degree {f.total_degree()}"
        )
    if f.is_zero() or f.total_degree() == 0:
        return f.monic() if not f.is_zero() else f
    if _line_certifies(f):
        return f.monic()
    return poly_exact_div(f, _repeated_part(f)).monic()


def is_squarefree(f: Polynomial) -> bool:
    """True when f has no repeated factor: the line certificate, else the
    gcd chain."""
    _require_plane(f)
    if f.total_degree() >= 1 and _line_certifies(f):
        return True
    return _repeated_part(f).total_degree() == 0


def _random_affine_image(plane: Polynomial, rng: random.Random):
    """Substitute an invertible affine change so both partial degrees equal
    the total degree.  Returns the new polynomial."""
    ring = plane.ring
    field = ring.field
    n = plane.total_degree()
    span = field.p if isinstance(field, PrimeField) else 50
    for _ in range(40):
        a, b, c, d, e, f2 = (rng.randrange(span) for _ in range(6))
        x_img = ring.from_dict({(1, 0): field.coerce(a), (0, 1): field.coerce(b), (0, 0): field.coerce(c)})
        y_img = ring.from_dict({(1, 0): field.coerce(d), (0, 1): field.coerce(e), (0, 0): field.coerce(f2)})
        det = field.sub(field.mul(field.coerce(a), field.coerce(e)), field.mul(field.coerce(b), field.coerce(d)))
        if det == field.zero:
            continue
        img = plane.substitute([x_img, y_img], ring)
        if img.degree_in(0) == n and img.degree_in(1) == n:
            return img
    raise DegenerateInputError("could not reach generic position by affine substitution")


def _gao_rows(plane: Polynomial):
    """Gao's matrix of a plane polynomial with both partial degrees >= 1, as
    sparse ``{column: value}`` rows built from its terms (module docstring),
    and its unknowns, one per column: ``(0, i, j)`` for the x^i y^j
    coefficient of g (i < deg_x, j <= deg_y) and ``(1, i, j)`` for h
    (i <= deg_x, j < deg_y).  The unknowns of highest degree i + j come
    first, so elimination starts on the rows of f's top form; on the
    catalog's models that makes 2-3 times less fill than g before h.  Over Q
    the rows are integers: the polynomial is cleared to a primitive one
    first."""
    n1 = plane.degree_in(0)
    n2 = plane.degree_in(1)
    unknowns = [(0, i, j) for i in range(n1) for j in range(n2 + 1)]
    unknowns += [(1, i, j) for i in range(n1 + 1) for j in range(n2)]
    unknowns.sort(key=lambda u: -u[1] - u[2])
    col = {u: k for k, u in enumerate(unknowns)}
    monos = [m for m, _ in plane.terms]
    coeffs = [c for _, c in plane.terms]
    p = plane.ring.field.char
    if not p:
        coeffs = primitive(cleared(coeffs)[0])
    rows = {}
    for (a, b), c in zip(monos, coeffs):
        for i in range(n1):
            for j in range(n2 + 1):
                if j != b:
                    x = c * (j - b)
                    rows.setdefault((a + i, b + j - 1), {})[col[0, i, j]] = x % p if p else x
        for i in range(n1 + 1):
            if i != a:
                for j in range(n2):
                    x = c * (a - i)
                    rows.setdefault((a + i - 1, b + j), {})[col[1, i, j]] = x % p if p else x
    return list(rows.values()), unknowns


def absolute_factor_count(f: Polynomial, rng: random.Random | None = None) -> int:
    """Number of absolutely irreducible factors of a squarefree plane
    polynomial (NotSquarefreeError otherwise)."""
    _require_plane(f)
    if f.total_degree() >= 1 and not is_squarefree(f):
        raise NotSquarefreeError("absolute factor count requires squarefree input")
    rng = rng or random.Random(0)
    field = f.ring.field
    n = f.total_degree()
    if n < 1:
        raise ValueError("need total degree >= 1")
    if field.char != 0 and field.char <= n * (n - 1):
        raise CharacteristicError(f"prime {field.char} too small: need p > {n * (n - 1)}")
    if f.degree_in(0) < 1 or f.degree_in(1) < 1:
        f = _random_affine_image(f, rng)
    rows, unknowns = _gao_rows(f)
    if field.char:
        return len(unknowns) - len(echelon(rows, len(unknowns), field))
    return _rational_nullity(rows, len(unknowns))


def _rational_nullity(rows, ncols) -> int:
    """Nullity over Q of an integer matrix whose nullity is at least 1, from
    its reductions modulo large primes (module docstring)."""
    h2 = 1  # Hadamard: every minor is at most the product of the column norms
    norms = {}
    for row in rows:
        for j, x in row.items():
            norms[j] = norms.get(j, 0) + x * x
    for v in norms.values():
        h2 *= v
    needed = h2.bit_length() + 2  # bits of a modulus above 2 H^2
    # unlucky primes divide one nonzero minor, so at most log(H) / 61 of them
    cap = needed // 60 + h2.bit_length() // 120 + 2
    best = None
    for k in range(cap):
        p = _large_prime(k)
        field = PrimeField(p)
        reduced = [{j: x % p for j, x in row.items() if x % p} for row in rows]
        pivots = reduce_echelon(echelon(reduced, ncols, field), field)
        cols = [c for c, _ in pivots]
        r = ncols - len(cols)
        if r == 1:
            return 1
        pivot_set = set(cols)
        free = [j for j in range(ncols) if j not in pivot_set]
        # the canonical basis vector of free column j is -row_k[j] at pivot k
        residues = [-row.get(j, 0) % p for j in free for _, row in pivots]
        key = (r, cols)
        if best is None or key < best[0]:
            best = (key, residues, p)
            fractions = [None] * len(residues)
        elif key == best[0]:
            _, old, m = best
            inv = pow(m, -1, p)
            best = (key, [x + m * ((y - x) * inv % p) for x, y in zip(old, residues)], m * p)
        else:
            continue
        fractions = _reconstructed(best[1], best[2], fractions)
        if None in fractions:
            continue
        basis = []
        for i, j in enumerate(free):
            vec = [0] * ncols
            vec[j] = 1
            for c, x in zip(cols, fractions[i * len(cols):]):
                vec[c] = x
            basis.append(vec)
        if all(_solves(rows, v) for v in basis):
            return r
    raise DegenerateInputError("modular factor count did not verify within its prime budget")


def _rational(a: int, m: int):
    """The fraction n/d = a mod m with |n|, d <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _reconstructed(values, modulus, known):
    """Rational reconstructions of the values modulo ``modulus``, up to the
    first that fails, which is left None.  An entry of ``known`` (the list of
    a smaller modulus) that still matches its value is kept without a new
    reconstruction: a fraction within the bound is the only one (Wang)."""
    out = list(known)
    for k, a in enumerate(values):
        x = out[k]
        if x is None or (x.numerator - x.denominator * a) % modulus:
            x = out[k] = _rational(a, modulus)
            if x is None:
                break
    return out


def _solves(rows, vec) -> bool:
    """M * vec == 0 exactly, for an integer matrix and a rational vector."""
    scale = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    return all(sum(x * ints[j] for j, x in row.items()) == 0 for row in rows)


def _root_multiplicities(a, field):
    """The multiplicity of each distinct root of a in the algebraic closure
    (characteristic above deg a).  A root of multiplicity e divides
    c = gcd(a, a') e - 1 times.  At step m, w is the product of the roots of
    multiplicity >= m and c holds each of them e - m times, so gcd(w, c) is
    the product of those of multiplicity > m."""
    c = u_gcd(a, u_derivative(a, field), field)
    w = u_divmod(a, c, field)[0]
    out = []
    m = 1
    while u_degree(w) > 0:
        y = u_gcd(w, c, field)
        out += [m] * (u_degree(w) - u_degree(y))
        c = u_divmod(c, y, field)[0]
        w = y
        m += 1
    return out


def absolute_factor_degrees(f: Polynomial, rng: random.Random | None = None):
    """Degrees of the absolutely irreducible factors (prime fields only;
    another field raises DegenerateInputError): the multiplicities of the
    distinct roots of one resultant (module docstring).  Returns the sorted
    degree list.
    """
    _require_plane(f)
    field = f.ring.field
    if not isinstance(field, PrimeField):
        raise DegenerateInputError("factor degree extraction runs over a prime field")
    rng = rng or random.Random(0)
    n = f.total_degree()
    # an invertible affine change keeps squarefreeness: one test covers every attempt
    if n >= 1 and not is_squarefree(f):
        raise NotSquarefreeError("absolute factor degrees require squarefree input")
    last_err = None
    for _ in range(6):
        try:
            plane = _random_affine_image(f, rng)
            rows, unknowns = _gao_rows(plane)
            ncols = len(unknowns)
            pivots = echelon(rows, ncols, field)
            r = ncols - len(pivots)
            if r == 1:
                return [n]
            pivot_set = {c for c, _ in pivots}
            free = [j for j in range(ncols) if j not in pivot_set]
            weights = {j: rng.randrange(1, field.p) for j in free}
            vec = echelon_solution(pivots, ncols, weights, field.p)
            g_poly = plane.ring.from_dict({(i, j): x for (h, i, j), x in zip(unknowns, vec) if not h})
            fx = plane.derivative(0)
            a = field.coerce(rng.randrange(field.p))
            res = _resultant_linear_z(
                _eval_x(plane, a, field), _eval_x(g_poly, a, field), _eval_x(fx, a, field), field
            )
            if not res:
                raise DegenerateInputError("degenerate x sample in the weight resultant")
            degs = _root_multiplicities(res, field)
            if len(degs) == r and sum(degs) == n:
                return sorted(degs)
            raise DegenerateInputError("factor extraction inconsistent; retrying")
        except (DegenerateInputError, ArithmeticError, ZeroDivisionError) as err:
            last_err = err
            continue
    raise DegenerateInputError(f"factor degree extraction failed: {last_err}")


def _eval_x(plane: Polynomial, a, field):
    """Plane polynomial evaluated at x = a: a univariate list in y."""
    dy = plane.degree_in(1) if not plane.is_zero() else -1
    out = [field.zero] * (dy + 1)
    for (ex, ey), c in plane.terms:
        out[ey] = field.add(out[ey], field.mul(c, pow(a, ex, field.p)))
    return u_trim(out, field)


def _resultant_linear_z(fa, ga, fxa, field):
    """Res_y(fa, ga - z*fxa) as a polynomial in z.

    The Sylvester matrix is built once, with the formal y-degrees of the two
    arguments, as base + z * slope: the d rows of fa do not depend on z, the
    m rows of ga - z*fxa are linear in it (:func:`univar.u_det_pencil`).
    """
    m = u_degree(fa)
    d = max(u_degree(ga), u_degree(fxa))
    if m < 1 or d < 0:
        raise DegenerateInputError("degenerate resultant arguments")
    size = m + d

    def shifted_rows(coeffs, count):
        # coefficients padded to the formal degree, highest first, shifted
        # one column per row
        high_first = [field.zero] * (size - count + 1 - len(coeffs)) + coeffs[::-1]
        return [[field.zero] * i + high_first + [field.zero] * (count - 1 - i) for i in range(count)]

    zeros = [[field.zero] * size for _ in range(d)]
    base = shifted_rows(fa, d) + shifted_rows(ga, m)
    slope = zeros + shifted_rows([field.neg(c) for c in fxa], m)
    return u_det_pencil(base, slope, field)
