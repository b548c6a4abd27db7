"""Bivariate tools: gcd, squarefree part, and the absolute-irreducibility count.

The count comes from the partial-differential linear system: for squarefree f,
the dimension of the space of pairs (g, h) with

    f * (dg/dy - dh/dx) = g * df/dy - h * df/dx

under the degree bounds deg_x g <= deg_x f - 1, deg_y g <= deg_y f,
deg_x h <= deg_x f, deg_y h <= deg_y f - 1 equals the number of absolutely
irreducible factors of f (characteristic 0 or p large).  A by-product of the
same system recovers the individual factor degrees over a prime field, from
Sylvester resultants linear in a parameter z (``univar.u_det_pencil``).
A caller whose input is a ``squarefree_part`` counts with ``_factor_count``,
which skips the squarefreeness check that ``absolute_factor_count`` makes.

Every function here takes plane polynomials: elements of a ring in exactly
two variables, x first and y second.  Another ring raises ValueError.
"""

from __future__ import annotations

import random

from .errors import CharacteristicError, DegenerateInputError, NotSquarefreeError
from .fields import PrimeField
from .linalg import kernel_basis
from .poly import Polynomial, RingContext
from .univar import (
    u_degree,
    u_det_pencil,
    u_divmod,
    u_factor_squarefree,
    u_gcd,
    u_monic,
    u_mul,
    u_sub,
    u_squarefree_part,
    u_trim,
)

def _require_plane(f: Polynomial):
    if f.ring.nvars != 2:
        raise ValueError(f"need a plane polynomial, got a ring in {f.ring.nvars} variables")


def _as_y_coeffs(f: Polynomial, field):
    """Plane polynomial -> list over y-degree of univariate x-coefficient lists."""
    if f.is_zero():
        return []
    dy = f.degree_in(1)
    dx = f.degree_in(0)
    rows = [[field.zero] * (dx + 1) for _ in range(dy + 1)]
    for (ex, ey), c in f.terms:
        rows[ey][ex] = c
    return [u_trim(r, field) for r in rows]


def _v_trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _from_y_coeffs(ring: RingContext, coeffs):
    data = {}
    for ey, row in enumerate(coeffs):
        for ex, c in enumerate(row):
            if c != ring.field.zero:
                data[(ex, ey)] = c
    return ring.from_dict(data)


def _content(coeffs, field):
    g = []
    for row in coeffs:
        g = u_gcd(g, row, field) if g else u_monic(list(row), field)
    return g


def _divide_rows(coeffs, d, field):
    out = []
    for row in coeffs:
        if not row:
            out.append(row)
            continue
        q, r = u_divmod(row, d, field)
        if r:
            raise ArithmeticError("content division failed")
        out.append(q)
    return out


def _pseudo_rem(f, g, field):
    """Pseudo-remainder of y-coefficient lists: multiples of lc(g) kill leading terms."""
    f = [list(r) for r in f]
    dg = len(g) - 1
    lg = g[-1]
    while f and len(f) - 1 >= dg:
        df = len(f) - 1
        lead = f[-1]
        shift = df - dg
        new = []
        for j in range(df):
            cj = u_mul(f[j], lg, field)
            k = j - shift
            if 0 <= k <= dg - 1:
                cj = u_sub(cj, u_mul(lead, g[k], field), field)
            new.append(cj)
        f = _v_trim(new)
    return f


def bivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """GCD of two plane polynomials by a primitive pseudo-remainder sequence.

    Result is monic with respect to the ring's term order (gcds are only
    defined up to a scalar).
    """
    ring = f.ring
    field = ring.field
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    fc = _as_y_coeffs(f, field)
    gc = _as_y_coeffs(g, field)
    if len(fc) < len(gc):
        fc, gc = gc, fc
    cont_f = _content(fc, field)
    cont_g = _content(gc, field)
    d = u_gcd(cont_f, cont_g, field)
    fc = _divide_rows(fc, cont_f, field)
    gc = _divide_rows(gc, cont_g, field)
    # both primitive in y now; a y-free primitive polynomial is the unit
    while True:
        if len(gc) == 1:
            gcd_pp = [[field.one]]
            break
        r = _pseudo_rem(fc, gc, field)
        if not r:
            gcd_pp = gc
            break
        cont_r = _content(r, field)
        r = _divide_rows(r, cont_r, field)
        fc, gc = gc, r
    result_rows = [u_mul(row, d, field) for row in gcd_pp]
    return _from_y_coeffs(ring, result_rows).monic()


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


def squarefree_part(f: Polynomial) -> Polynomial:
    """f / gcd(f, df/dy, df/dx), monic."""
    _require_plane(f)
    field = f.ring.field
    if field.char != 0 and field.char <= f.total_degree():
        raise CharacteristicError(
            f"characteristic {field.char} too small for degree {f.total_degree()}"
        )
    if f.is_zero() or f.total_degree() == 0:
        return f.monic() if not f.is_zero() else f
    return poly_exact_div(f, _repeated_part(f)).monic()


def is_squarefree(f: Polynomial) -> bool:
    _require_plane(f)
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


def _pde_kernel(plane: Polynomial):
    """Kernel of the factor-count linear system for a plane polynomial in
    generic enough position (both partial degrees >= 1)."""
    ring = plane.ring
    field = ring.field
    n1 = plane.degree_in(0)
    n2 = plane.degree_in(1)
    fx = plane.derivative(0)
    fy = plane.derivative(1)
    g_monos = [(i, j) for i in range(n1) for j in range(n2 + 1)]
    h_monos = [(i, j) for i in range(n1 + 1) for j in range(n2)]
    rows_index = {}
    columns = []
    for i, j in g_monos:
        mono = ring.monomial((i, j))
        contrib = plane * mono.derivative(1) - mono * fy
        columns.append(contrib)
    for i, j in h_monos:
        mono = ring.monomial((i, j))
        contrib = mono * fx - plane * mono.derivative(0)
        columns.append(contrib)
    for col in columns:
        for m, _ in col.terms:
            if m not in rows_index:
                rows_index[m] = len(rows_index)
    matrix = [[field.zero] * len(columns) for _ in range(len(rows_index))]
    for cidx, col in enumerate(columns):
        for m, c in col.terms:
            matrix[rows_index[m]][cidx] = c
    return kernel_basis(matrix, field), g_monos, h_monos


def absolute_factor_count(f: Polynomial, rng: random.Random | None = None) -> int:
    """Number of absolutely irreducible factors of a squarefree plane
    polynomial."""
    if f.total_degree() >= 1 and not is_squarefree(f):
        raise NotSquarefreeError("absolute factor count requires squarefree input")
    return _factor_count(f, rng)


def _factor_count(f: Polynomial, rng: random.Random | None = None) -> int:
    """:func:`absolute_factor_count` for a polynomial known to be squarefree,
    such as the output of :func:`squarefree_part`: it skips the second
    repeated-part gcd chain."""
    _require_plane(f)
    rng = rng or random.Random(0)
    field = f.ring.field
    n = f.total_degree()
    if n < 1:
        raise ValueError("need total degree >= 1")
    if field.char != 0 and field.char <= n * (n - 1):
        raise CharacteristicError(f"prime {field.char} too small: need p > {n * (n - 1)}")
    if f.degree_in(0) < 1 or f.degree_in(1) < 1:
        f = _random_affine_image(f, rng)
    kernel, _, _ = _pde_kernel(f)
    return len(kernel)


def absolute_factor_degrees(f: Polynomial, rng: random.Random | None = None):
    """Degrees of the absolutely irreducible factors (prime fields only).

    A random solution g of the linear system has the shape
    sum_i w_i * (f_i)_x * f / f_i over the absolute factors f_i, with weights
    forming Galois orbits.  The weights are roots of the z-content of
    Res_y(f, g - z * df/dx); for an irreducible weight-orbit q of degree e,
    gcd(f, q*(g, df/dx)) is the product of the e conjugate factors, so each
    has degree deg(gcd)/e.  Returns the sorted degree list.
    """
    _require_plane(f)
    field = f.ring.field
    if not isinstance(field, PrimeField):
        raise ValueError("factor degree extraction runs over a prime field")
    rng = rng or random.Random(0)
    n = f.total_degree()
    # an invertible affine change keeps squarefreeness: one test covers every attempt
    if n >= 1 and not is_squarefree(f):
        raise NotSquarefreeError("absolute factor degrees require squarefree input")
    last_err = None
    for _ in range(6):
        try:
            plane = _random_affine_image(f, rng)
            kernel, g_monos, _ = _pde_kernel(plane)
            r = len(kernel)
            if r == 1:
                return [n]
            ring = plane.ring
            weights = [rng.randrange(1, field.p) for _ in kernel]
            g_data = {}
            for w, vec in zip(weights, kernel):
                for mono, coeff in zip(g_monos, vec[: len(g_monos)]):
                    g_data[mono] = field.add(g_data.get(mono, field.zero), field.mul(w, coeff))
            g_poly = ring.from_dict(g_data)
            fx = plane.derivative(0)
            content = _weight_content(plane, g_poly, fx, field, rng)
            degs = []
            for orbit in u_factor_squarefree(content, field, rng):
                e = u_degree(orbit)
                if e == 1:
                    lam = field.neg(orbit[0])
                    part = bivariate_gcd(plane, g_poly - fx.scale(lam))
                else:
                    # q*(g, fx) = sum_j q_j g^j fx^(e-j): the rational product
                    # of the conjugate factors in one weight orbit
                    combo = ring.zero()
                    for j, qj in enumerate(orbit):
                        if qj == field.zero:
                            continue
                        combo = combo + (g_poly**j * fx ** (e - j)).scale(qj)
                    part = bivariate_gcd(plane, combo)
                d = part.total_degree()
                if d == 0:
                    continue  # spurious content root (formal-degree artifact)
                if e > 1 and d % e != 0:
                    raise DegenerateInputError("orbit degree not divisible by orbit size")
                degs.extend([d // e] * e if e > 1 else [d])
            if len(degs) == r and sum(degs) == n and all(dd >= 1 for dd in degs):
                return sorted(degs)
            raise DegenerateInputError("factor extraction inconsistent; retrying")
        except (DegenerateInputError, ArithmeticError, ZeroDivisionError) as err:
            last_err = err
            continue
    raise DegenerateInputError(f"factor degree extraction failed: {last_err}")


def _weight_content(plane, g_poly, fx, field, rng):
    """Squarefree z-content of Res_y(f, g - z*fx) from two x-samples."""
    resultants = []
    for _ in range(2):
        a = field.coerce(rng.randrange(field.p))
        fa = _eval_x(plane, a, field)
        ga = _eval_x(g_poly, a, field)
        fxa = _eval_x(fx, a, field)
        res_z = _resultant_linear_z(fa, ga, fxa, field)
        if not res_z:
            raise DegenerateInputError("degenerate x sample in weight extraction")
        resultants.append(res_z)
    d = u_gcd(resultants[0], resultants[1], field)
    if u_degree(d) < 1:
        raise DegenerateInputError("weight content collapsed")
    return u_squarefree_part(d, field)


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
