"""Dense univariate polynomial helpers over an exact field.

Polynomials are coefficient lists indexed by degree (little-endian) with no
trailing zeros.  Used for eliminants, minimal polynomials, binary forms and
root extraction over prime fields.  :func:`u_det_pencil` is the one place
that expands a determinant with a linear parameter: the pencil quartic of
``segre`` and the Sylvester resultants of ``factor``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import PrimeField
from .linalg import cleared, det, primitive


def u_trim(c, field):
    c = list(c)
    while c and c[-1] == field.zero:
        c.pop()
    return c


def u_degree(c) -> int:
    return len(c) - 1


def u_add(a, b, field):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return u_trim(out, field)


def u_sub(a, b, field):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.sub(x, y))
    return u_trim(out, field)


def u_scale(a, c, field):
    if c == field.zero:
        return []
    return [field.mul(x, c) for x in a]


def u_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return u_trim(out, field)


def u_divmod(a, b, field):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        coeff = field.mul(a[-1], inv_lead)
        q[shift] = coeff
        for i, x in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(coeff, x))
        a = u_trim(a, field)
    return u_trim(q, field), a


def u_monic(a, field):
    if not a:
        return a
    inv = field.inv(a[-1])
    return [field.mul(x, inv) for x in a]


def u_gcd(a, b, field):
    """Monic gcd; over Q by a primitive pseudo-remainder sequence over Z."""
    if field.char == 0:
        return _u_gcd_rational(a, b)
    a, b = list(a), list(b)
    while b:
        _, r = u_divmod(a, b, field)
        a, b = b, r
    return u_monic(a, field)


def _u_gcd_rational(a, b):
    # Euclid on Fractions lets the remainders' heights blow up; dividing each
    # integer pseudo-remainder by its content keeps its coefficients small
    a, b = (primitive(cleared(c)[0]) for c in (a, b))
    while b:
        a, b = b, primitive(_pseudo_remainder(a, b))
    return [Fraction(x, a[-1]) for x in a]


def _pseudo_remainder(a, b):
    """An integer multiple of the remainder of ``a`` by ``b`` over Q, kept
    integral by cross-multiplying each step (integer rows without trailing
    zeros, ``b`` nonzero)."""
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        g = gcd(a[-1], lb)
        f, lead = lb // g, a[-1] // g
        a = [f * x for x in a[:-1]]
        for i, y in enumerate(b[:-1]):
            a[shift + i] -= lead * y
        while a and not a[-1]:
            a.pop()
    return a


def u_derivative(a, field):
    return u_trim([field.mul(c, field.coerce(i)) for i, c in enumerate(a)][1:], field)


def u_squarefree_part(a, field):
    if not a or len(a) == 1:
        return u_monic(a, field)
    g = u_gcd(a, u_derivative(a, field), field)
    q, r = u_divmod(a, g, field)
    if r:
        raise ArithmeticError("squarefree division left a remainder")
    return u_monic(q, field)


def u_pow_mod(base, e, mod, field: PrimeField):
    """base^e modulo ``mod`` over F_p, the canonical remainder (so equal to
    repeated ``u_divmod`` of ``u_mul`` products).  e = 0 gives [1], the empty
    product, unreduced: modulo a constant it is not the remainder [].

    Plain ints mod p: the modulus is made monic once, each product and its
    reduction are accumulated unreduced, and every coefficient takes one
    ``% p`` (before it is used as a multiplier, or at the end).
    """
    if not mod:
        raise ZeroDivisionError("univariate division by zero")
    p = field.p
    inv = pow(mod[-1], -1, p)
    tail = [c * inv % p for c in mod[:-1]]  # x^d = -tail(x) modulo mod
    result = [1]
    base = _mul_mod([1], base, tail, p)
    while e:
        if e & 1:
            result = _mul_mod(result, base, tail, p)
        e >>= 1
        if e:
            base = _mul_mod(base, base, tail, p)
    return result


def _mul_mod(a, b, tail, p):
    """a * b modulo the monic x^d + tail(x), d = len(tail), over F_p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(tail)
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i] % p
        if c:
            for j, y in enumerate(tail, i - d):
                out[j] -= c * y
    out = [x % p for x in out[:d]]
    while out and not out[-1]:
        out.pop()
    return out


def u_rational_root_part(a, field: PrimeField):
    """gcd(f, x^p - x): the product of (x - r) over the F_p-rational roots."""
    p = field.p
    xp = u_pow_mod([field.zero, field.one], p, a, field)
    return u_gcd(a, u_sub(xp, [field.zero, field.one], field), field)


def u_roots_prime_field(a, field: PrimeField, rng):
    """All distinct roots of f in F_p, sorted: equal-degree splitting of
    gcd(f, x^p - x), or :func:`_quadratic_roots` when the squarefree part
    has degree at most 2 (and p is odd)."""
    a = u_monic(u_squarefree_part(a, field), field)
    if u_degree(a) <= 2 and field.p > 2:
        return _quadratic_roots(a, field.p, rng)
    lin = u_rational_root_part(a, field)
    roots = []
    stack = [lin]
    p = field.p
    while stack:
        g = stack.pop()
        if u_degree(g) <= 0:
            continue
        if u_degree(g) == 1:
            roots.append(field.neg(g[0]))
            continue
        while True:
            delta = rng.randrange(p)
            shifted = [delta, field.one]
            h = u_pow_mod(shifted, (p - 1) // 2, g, field)
            h = u_sub(h, [field.one], field)
            d = u_gcd(g, h, field)
            if 0 < u_degree(d) < u_degree(g):
                stack.append(d)
                stack.append(u_divmod(g, d, field)[0])
                break
    roots.sort()
    return roots


def _quadratic_roots(a, p, rng):
    """Sorted roots in F_p, p odd, of a monic squarefree ``a`` of degree at
    most 2, with the draws of the equal-degree splitting replayed.

    x^2 + b x + c has roots (-b +- s) / 2 when its discriminant is a square
    s^2 (Euler's criterion), and none otherwise; s comes from
    :func:`_sqrt_mod`.  Splitting g = (x - r1)(x - r2) draws delta until
    gcd(g, (x + delta)^((p-1)/2) - 1) is a proper factor.  That power is
    chi(r_i + delta) at r_i, for chi the quadratic character (0 at 0), so
    the gcd holds x - r_i exactly when r_i + delta is a nonzero square, and
    it splits g exactly when one of the two is.  Drawing delta until then
    leaves ``rng`` where the splitting leaves it.  Degrees 0 and 1, and a
    non-square discriminant (gcd(g, x^p - x) = 1), draw nothing.
    """
    if len(a) < 3:
        return [(-a[0]) % p] if len(a) == 2 else []
    c, b = a[0], a[1]
    half = (p - 1) // 2
    disc = (b * b - 4 * c) % p
    if pow(disc, half, p) != 1:
        return []  # disc != 0, as a is squarefree
    s = _sqrt_mod(disc, p)
    inv2 = (p + 1) // 2
    r1, r2 = (-b + s) * inv2 % p, (-b - s) * inv2 % p
    while True:
        delta = rng.randrange(p)
        if (pow(r1 + delta, half, p) == 1) != (pow(r2 + delta, half, p) == 1):
            break
    return sorted((r1, r2))


def _sqrt_mod(n, p):
    """A square root of the nonzero square ``n`` mod the odd prime p
    (Tonelli-Shanks; the non-square is the least one, found without draws)."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def u_interpolate(xs, ys, field):
    """Lagrange interpolation through (xs[i], ys[i])."""
    out = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [field.one]
        den = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = u_mul(num, [field.neg(xj), field.one], field)
            den = field.mul(den, field.sub(xi, xj))
        out = u_add(out, u_scale(num, field.div(yi, den), field), field)
    return out


def u_det_pencil(base, slope, field):
    """det(base + z * slope) as a polynomial in z.

    The determinant is linear in each row, so its degree is at most the
    number e of nonzero rows of ``slope``; it is evaluated at z = 0..e and
    interpolated.
    """
    e = sum(1 for row in slope if any(row))
    xs = [field.coerce(t) for t in range(e + 1)]
    ys = [
        det([[b + z * s for b, s in zip(rb, rs)] for rb, rs in zip(base, slope)], field)
        for z in xs
    ]
    return u_interpolate(xs, ys, field)
