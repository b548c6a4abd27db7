"""Exact linear algebra over Q or a prime field.

Matrices are plain lists of row lists holding field-element payloads
(Fractions over Q, ints over F_p).  Everything here is Gaussian elimination.

:func:`echelon` is one sparse forward-elimination loop.  Each row is a
``{column: value}`` dict of its nonzero entries.  For each column in turn,
the live row with the fewest entries that holds the column becomes the pivot
(Markowitz, Management Science 3, 1957) and clears the column from every
other live row; a row operation walks only the pivot row's entries.  A live
row never holds a column left of the current one, so the pivot rows form a
row echelon form, and their number is the rank.  Two row operations share
the loop:

* over F_p the pivot row is scaled by its inverse and a row ``x`` loses
  ``f`` times it as ``(x - f * y) % p``, so each new entry is reduced once;
* over Q (``field.char == 0``) the rows are integers and no ``Fraction``
  arithmetic runs inside the elimination: a row operation is the integer
  cross-multiplication ``row_i <- (pv/g) * row_i - (f/g) * row_r`` with
  ``g = gcd(pv, f)``, and every changed row is divided by its content.

:func:`rref` is that forward pass plus one back-substitution pass
(:func:`reduce_echelon`): from the last pivot to the first, each pivot
column is cleared from the earlier pivot rows.  A pivot row holds no column
left of its pivot, so when pivot k is used every later pivot column has
already been cleared from it, and one pass leaves each pivot column with a
single nonzero entry.  The reduced row echelon form of a matrix depends only
on its row space, so the rows and pivots are those of a dense Gauss-Jordan
elimination in any pivot order; over Q each finished pivot row is divided by
its pivot once.  :func:`rank` and :func:`pivot_columns` run the forward pass only, and
:func:`echelon_solution` reads a null vector over F_p off the forward pass
by back substitution, with chosen values at the free columns.

Modulo a prime p, an integer matrix can only lose rank: a set of columns
independent mod p has a nonzero minor mod p, hence over Q.  So the rank of
every leading block of columns mod p is at most its rank over Q, and the
pivot columns over Q, read left to right, are the lexicographically first
among the pivot columns of all reductions of full rank.

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


def cleared(row):
    """(integer row, scale): ``row`` times the lcm ``scale`` of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def primitive(row):
    """An integer row divided by its content (a zero row stays as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _sparse_rows(rows, field):
    """The ``{column: value}`` dicts of the nonzero rows; over Q each row is
    first cleared to a primitive integer row."""
    if not field.char:
        rows = [primitive(cleared(row)[0]) for row in rows]
    live = [{j: x for j, x in enumerate(row) if x} for row in rows]
    return [row for row in live if row]


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


def _clear(pivot, c, p):
    """(row operation, its last argument) for the pivot row of column ``c``."""
    return (_clear_mod_p, p) if p else (_clear_integer, pivot[c])


def echelon(rows, n, field):
    """Forward elimination of ``n``-column sparse rows, which it consumes
    (over Q they must be integer rows).  Returns the ``(column, row)``
    pivots of a row echelon form in column order; over F_p each pivot is 1."""
    p = field.char
    live = [row for row in rows if row]
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
        clear, arg = _clear(pivot, c, p)
        items = tuple(pivot.items())
        for row in holders:
            if row is not pivot:
                clear(row, c, items, arg)
        live = [row for row in live if row and row is not pivot]
        pivots.append((c, pivot))
    return pivots


def reduce_echelon(pivots, field):
    """Back substitution on :func:`echelon`'s pivots, in place: afterwards
    each pivot column is nonzero in its own pivot row only."""
    p = field.char
    for k in range(len(pivots) - 1, 0, -1):
        c, pivot = pivots[k]
        clear, arg = _clear(pivot, c, p)
        items = tuple(pivot.items())
        for _, row in pivots[:k]:
            if c in row:
                clear(row, c, items, arg)
    return pivots


def echelon_solution(pivots, n, free_values, p):
    """The null vector over F_p of :func:`echelon`'s pivots with the values
    ``free_values`` (``{column: value}``; missing free columns are 0) at the
    free columns, solved from the last pivot row to the first."""
    vec = [0] * n
    for j, x in free_values.items():
        vec[j] = x
    for c, row in reversed(pivots):
        vec[c] = -sum(x * vec[j] for j, x in row.items() if j != c) % p
    return vec


def rref(rows, field):
    """Reduced row echelon form. Returns (new rows, pivot column list)."""
    if not rows:
        return [], []
    m, n = len(rows), len(rows[0])
    pivots = reduce_echelon(echelon(_sparse_rows(rows, field), n, field), field)
    zero = field.zero
    out = []
    for c, row in pivots:
        dense = [zero] * n
        if field.char:
            for j, x in row.items():
                dense[j] = x
        else:
            pv = row[c]
            for j, x in row.items():
                dense[j] = Fraction(x, pv)
        out.append(dense)
    return out + [[zero] * n for _ in range(m - len(out))], [c for c, _ in pivots]


def pivot_columns(rows, field):
    """The pivot columns of the rows' row echelon form, in increasing order
    (those of the reduced one: they depend only on the row space)."""
    if not rows:
        return []
    return [c for c, _ in echelon(_sparse_rows(rows, field), len(rows[0]), field)]


def rank(rows, field) -> int:
    return len(pivot_columns(rows, field))


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
            ints, s = cleared(row)
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
