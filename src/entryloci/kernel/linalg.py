"""Exact linear algebra over Q or a prime field.

Matrices are plain lists of row lists holding field-element payloads
(Fractions over Q, ints over F_p).  Everything here is Gaussian elimination.

:func:`rref` is one sparse Gauss-Jordan loop.  Each row is a ``{column:
value}`` dict of its nonzero entries.  For each column in turn, the live row
with the fewest entries that holds the column becomes the pivot (Markowitz,
Management Science 3, 1957) and clears the column from every other live row
and from every earlier pivot row; a row operation walks only the pivot row's
entries.  The reduced row echelon form is unique, so the rows and pivots are
those of a dense elimination in any pivot order.  Two row operations share
the loop:

* over F_p the pivot row is scaled by its inverse and a row ``x`` loses
  ``f`` times it as ``(x - f * y) % p``, so each new entry is reduced once;
* over Q (``field.char == 0``) no ``Fraction`` arithmetic runs inside the
  elimination.  Each row is first scaled by the lcm of its denominators, a
  row operation is the integer cross-multiplication ``row_i <- (pv/g) *
  row_i - (f/g) * row_r`` with ``g = gcd(pv, f)``, every changed row is
  divided by its content, and each finished pivot row is divided by its
  pivot once.

:func:`det` is one dense loop for both fields: Bareiss's fraction-free
elimination (Math. Comp. 22, 1968), exact over any integral domain.  Each
step divides exactly by the previous pivot: over Q the rows are cleared to
integers first, the division is integer floor division and the row scales
are divided out once at the end; over F_p it is a multiplication by the
previous pivot's inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _cleared(row):
    """(integer row, scale): ``row`` times the lcm ``scale`` of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _primitive(row):
    """An integer row divided by its content (a zero row stays as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _sparse(row):
    """The ``{column: value}`` dict of a row's nonzero entries."""
    return {j: x for j, x in enumerate(row) if x}


def _clear_mod_p(row, c, pivot_items, p):
    """Clear column ``c`` of ``row`` with a pivot row whose pivot is 1."""
    f = row[c]
    for j, y in pivot_items:
        x = (row.get(j, 0) - f * y) % p
        if x:
            row[j] = x
        else:
            del row[j]


def _clear_integer(row, c, pivot_items, pv):
    """Clear column ``c`` of an integer ``row`` with a pivot row whose pivot
    is ``pv``, then divide the row by its content."""
    f = row[c]
    g = gcd(pv, f)
    s, t = pv // g, f // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, y in pivot_items:
        x = row.get(j, 0) - t * y
        if x:
            row[j] = x
        else:
            del row[j]
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def rref(rows, field):
    """Reduced row echelon form. Returns (new rows, pivot column list)."""
    if not rows:
        return [], []
    m, n = len(rows), len(rows[0])
    p = field.char
    if p:
        live = [_sparse(row) for row in rows]
    else:
        live = [_sparse(_primitive(_cleared(row)[0])) for row in rows]
    live = [row for row in live if row]
    pivots = []
    for c in range(n):
        if not live:
            break
        holders = [row for row in live if c in row]
        if not holders:
            continue
        pivot = min(holders, key=len)
        if p:
            inv = field.inv(pivot[c])
            for j in pivot:
                pivot[j] = pivot[j] * inv % p
            clear, arg = _clear_mod_p, p
        else:
            clear, arg = _clear_integer, pivot[c]
        items = tuple(pivot.items())
        for row in holders:
            if row is not pivot:
                clear(row, c, items, arg)
        for _, row in pivots:
            if c in row:
                clear(row, c, items, arg)
        live = [row for row in live if row and row is not pivot]
        pivots.append((c, pivot))
    zero = field.zero
    out = []
    for c, row in pivots:
        dense = [zero] * n
        if p:
            for j, x in row.items():
                dense[j] = x
        else:
            pv = row[c]
            for j, x in row.items():
                dense[j] = Fraction(x, pv)
        out.append(dense)
    return out + [[zero] * n for _ in range(m - len(out))], [c for c, _ in pivots]


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


def det(rows, field):
    """Determinant of a square matrix by Bareiss's elimination."""
    p = field.char
    scale = 1
    if p:
        a = [[x % p for x in row] for row in rows]
    else:
        a = []
        for row in rows:
            ints, s = _cleared(row)
            a.append(ints)
            scale *= s
    n = len(a)
    sign = 1
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        row_c = a[c]
        pv = row_c[c]
        if p:
            inv = field.inv(prev)
            for i in range(c + 1, n):
                f = a[i][c]
                a[i] = [(pv * x - f * y) * inv % p for x, y in zip(a[i], row_c)]
        else:
            for i in range(c + 1, n):
                f = a[i][c]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], row_c)]
        prev = pv
    return sign * prev % p if p else Fraction(sign * prev, scale)


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
