"""Exact dense linear algebra over Q or a prime field.

Matrices are plain lists of row lists holding field-element payloads
(Fractions over Q, ints over F_p).  Everything here is Gaussian elimination.

Over F_p, row operations use plain operators on the payloads, one
comprehension per row: ``x * inv % p`` scales a pivot row and
``(x - f * y) % p`` eliminates (:func:`_row_minus`), so each new entry is
reduced once.

Over Q (``field.char == 0``) no ``Fraction`` arithmetic runs inside an
elimination; both routines first scale each row by the lcm of its
denominators.  :func:`rref` then eliminates by integer cross-multiplication,
``row_i <- (pv/g) * row_i - (f/g) * row_r`` with ``g = gcd(pv, f)``, divides
every new row by its content, and only at the end divides each pivot row by
its pivot.  The reduced row echelon form is unique, so rows and pivots are
those of field arithmetic.  :func:`det` runs Bareiss's fraction-free
elimination (Math. Comp. 22, 1968) and divides by the row scales once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _row_minus(row, f, pivot_row, p):
    """``row - f * pivot_row``, reduced mod ``p``."""
    return [(x - f * y) % p for x, y in zip(row, pivot_row)]


def _cleared(row):
    """(integer row, scale): ``row`` times the lcm ``scale`` of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _primitive(row):
    """An integer row divided by its content (a zero row stays as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_rational(rows):
    a = [_primitive(_cleared(r)[0]) for r in rows]
    m, n = len(a), len(a[0])
    piv_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot = None
        for i in range(r, m):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        row_r = a[r]
        pv = row_r[c]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                a[i] = _primitive([s * x - t * y for x, y in zip(a[i], row_r)])
        piv_cols.append(c)
        r += 1
    zero = Fraction(0)
    out = [[zero if not x else Fraction(x, row[c]) for x in row] for row, c in zip(a, piv_cols)]
    return out + [[zero] * n for _ in range(m - r)], piv_cols


def rref(rows, field):
    """Reduced row echelon form. Returns (new rows, pivot column list)."""
    if not rows:
        return [], []
    if not field.char:
        return _rref_rational(rows)
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    zero = field.zero
    p = field.char
    piv_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot = None
        for i in range(r, m):
            if a[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        row_r = a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != zero:
                a[i] = _row_minus(a[i], a[i][c], row_r, p)
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def rank(rows, field) -> int:
    _, piv = rref(rows, field)
    return len(piv)


def kernel_basis(rows, field):
    """Basis of the right null space; empty matrix means the full space."""
    if not rows:
        return []
    n = len(rows[0])
    red, piv = rref(rows, field)
    piv_set = set(piv)
    free = [j for j in range(n) if j not in piv_set]
    basis = []
    for f in free:
        vec = [field.zero] * n
        vec[f] = field.one
        for row_idx, pc in enumerate(piv):
            vec[pc] = field.neg(red[row_idx][f])
        basis.append(vec)
    return basis


def solve(rows, rhs, field):
    """One solution of A x = b (free variables zero), or None if inconsistent."""
    if not rows:
        return None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, piv = rref(aug, field)
    zero = field.zero
    for row in red:
        if all(x == zero for x in row[:n]) and row[n] != zero:
            return None
    x = [zero] * n
    for row_idx, pc in enumerate(piv):
        if pc < n:
            x[pc] = red[row_idx][n]
    return x


def _det_rational(rows):
    a = []
    scale = 1
    for row in rows:
        ints, s = _cleared(row)
        a.append(ints)
        scale *= s
    n = len(a)
    sign = 1
    prev = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        row_c = a[c]
        pv = row_c[c]
        for i in range(c + 1, n):
            f = a[i][c]
            a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], row_c)]
        prev = pv
    return Fraction(sign * prev, scale)


def det(rows, field):
    if not field.char:
        return _det_rational(rows)
    a = [list(r) for r in rows]
    n = len(a)
    zero = field.zero
    p = field.char
    sign_flip = False
    result = field.one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if a[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign_flip = not sign_flip
        result = field.mul(result, a[c][c])
        inv = field.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != zero:
                a[i] = _row_minus(a[i], field.mul(a[i][c], inv), a[c], p)
    return field.neg(result) if sign_flip else result


def identity(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_inverse(rows, field):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + list(e) for r, e in zip(rows, identity(n, field))]
    red, piv = rref(aug, field)
    if len(piv) < n or any(p >= n for p in piv):
        return None
    return [row[n:] for row in red]


def row_space_intersection(u_rows, v_rows, field):
    """Basis of (row space of U) intersect (row space of V)."""
    if not u_rows or not v_rows:
        return []
    stacked = [list(r) for r in u_rows] + [[field.neg(x) for x in r] for r in v_rows]
    coeffs = kernel_basis(list(map(list, zip(*stacked))), field)
    out = []
    for c in coeffs:
        vec = [field.zero] * len(u_rows[0])
        for alpha, row in zip(c[: len(u_rows)], u_rows):
            for j, x in enumerate(row):
                vec[j] = field.add(vec[j], field.mul(alpha, x))
        if any(x != field.zero for x in vec):
            out.append(vec)
    red, piv = rref(out, field)
    return [red[i] for i in range(len(piv))]
