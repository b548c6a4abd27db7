"""Projective varieties: the catalog, implicitization, projections, cones,
spans, reduced degree and point sampling.

Ambient rings use variables x0..xr; parameter rings use s0..sm.  "General"
choices are seeded small-height integers over Q and uniform residues over F_p,
made generic a posteriori by sanity checks with bounded resampling.

Implicitization eliminates the parameters from the graph ideal
(x_i - P_i(s)).  Zero-dimensional slices substitute the solved linear
section: one affine chart (``affine_chart``) solves the random cut forms and
the chart form together, so the sliced ring has one variable per remaining
dimension and no linear generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .kernel.errors import DegenerateInputError
from .kernel.fields import PrimeField
from .kernel.hilbert import hilbert_invariants
from .kernel.ideals import (
    Ideal,
    eliminate,
    groebner_basis,
    homogeneous_generators,
    irrelevant_saturate,
)
from .kernel.linalg import (
    kernel_basis,
    mat_inverse,
    pivot_columns,
    rank,
    rref,
)
from .kernel.orders import GREVLEX, Block
from .kernel.poly import Polynomial, RingContext, monomials_of_degree
from .kernel.rng import random_coords, random_scalar, seeded_rng
from .kernel.zerodim import (
    count_distinct_points,
    enumerate_points_prime_field,
    is_zero_dimensional,
)


# -- basic types --------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^r with the first nonzero coordinate normalized to 1."""

    coords: tuple

    @staticmethod
    def make(field, coords) -> "ProjectivePoint":
        coords = [field.coerce(c) for c in coords]
        pivot = next((c for c in coords if c != field.zero), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = field.inv(pivot)
        return ProjectivePoint(tuple(field.mul(c, inv) for c in coords))


@dataclass(frozen=True)
class Parametrization:
    ring: RingContext  # parameter ring s0..sm
    forms: tuple  # r+1 forms of a common degree

    @property
    def nparams(self) -> int:
        return self.ring.nvars

    @property
    def degree(self) -> int:
        return max(f.total_degree() for f in self.forms)

    def evaluate(self, values):
        return [f.evaluate(values) for f in self.forms]


@dataclass
class ProjectiveVariety:
    ambient: int  # r: lives in P^r
    ideal: Ideal  # homogeneous, in x0..xr
    param: Parametrization | None
    meta: dict  # name, key, seed, n, d, g, ...

    @property
    def ring(self) -> RingContext:
        return self.ideal.ring

    @property
    def field(self):
        return self.ideal.ring.field

    def contains_point(self, pt: ProjectivePoint) -> bool:
        zero = self.field.zero
        return all(g.evaluate(pt.coords) == zero for g in self.ideal.gens)

    @cached_property
    def jacobian(self):
        """The partial derivatives of each generator of the ideal, one row per
        generator; computed on first use and kept on this variety."""
        n = self.ring.nvars
        return tuple(tuple(g.derivative(i) for i in range(n)) for g in self.ideal.gens)

    @cached_property
    def param_jacobian(self):
        """The partial derivatives of each form of the parametrization, one
        row per form; computed on first use and kept on this variety."""
        n = self.param.nparams
        return tuple(tuple(f.derivative(i) for i in range(n)) for f in self.param.forms)

    @cached_property
    def span_rows(self):
        """``span_form_rows`` of the ideal, computed on first use and kept on
        this variety."""
        return span_form_rows(self.ideal)

    @cached_property
    def reports(self):
        """Entry-locus reports of this variety, keyed by A/B trials; filled
        by ``suite.classified`` and kept on this variety."""
        return {}

    @cached_property
    def fixed_points(self):
        """Points of V(I) fixed by the variety alone, with no draws: the
        images of the parameter values (1, t, t^2, ...), t = 1, 2, 3, when it
        has a parametrization, else the same combinations of a kernel basis
        of its span rows (points of its linear span); only the points on
        which every generator of I vanishes are kept.  Computed on first use
        and kept on this variety."""
        field = self.field
        zero = field.zero
        weights = [[field.coerce(t ** i) for i in range(self.ring.nvars)] for t in (1, 2, 3)]
        if self.param is not None:
            candidates = [self.param.evaluate(w[:self.param.nparams]) for w in weights]
        else:
            columns = list(zip(*kernel_basis(self.span_rows, field)))
            candidates = [[_dot(w, col, field) for col in columns] for w in weights]
        return [
            x for x in candidates
            if any(c != zero for c in x) and all(g.evaluate(x) == zero for g in self.ideal.gens)
        ]


def _dot(row, x, field):
    total = field.zero
    for a, b in zip(row, x):
        total = field.add(total, field.mul(a, b))
    return total


# -- seeded random helpers -----------------------------------------------------


def random_point(field, rng: random.Random, n: int, off_coordinate_hyperplanes=False):
    while True:
        coords = random_coords(field, rng, n)
        if off_coordinate_hyperplanes and any(c == field.zero for c in coords):
            continue
        return ProjectivePoint.make(field, coords)


def random_invertible_matrix(field, rng: random.Random, n: int):
    for _ in range(50):
        m = [[field.coerce(random_scalar(field, rng)) for _ in range(n)] for _ in range(n)]
        if rank(m, field) == n:
            return m
    raise DegenerateInputError("could not draw an invertible matrix")


def ambient_ring(r: int, field) -> RingContext:
    return RingContext(tuple(f"x{i}" for i in range(r + 1)), field)


# -- linear coordinate changes -------------------------------------------------


def apply_linear_substitution(ideal: Ideal, matrix) -> Ideal:
    """Ideal of generators f(B y): columns of ``matrix`` are the images of the
    new basis vectors (so points transform by x = B y)."""
    ring = ideal.ring
    images = [ring.linear_form(row) for row in matrix]
    return Ideal.of(ring, [g.substitute(images, ring) for g in ideal.gens])


def projection_frame(field, rows, n: int):
    """Invertible n x n matrix B whose first columns are the independent
    ``rows``, completed deterministically by standard basis vectors, so that
    under x = B y the rows become the first coordinate points
    (DegenerateInputError when the rows are dependent).

    The completion is the greedy one, e_0, e_1, ... in turn whenever it is
    independent of the rows and the e_j already taken, read off one
    echelon of the rows with reversed columns: e_i is independent of the
    rows and e_0, ..., e_{i-1} exactly when no vector of the row space has
    its last nonzero entry at i, and those last entries are the pivot
    columns of the reversed rows.
    """
    rows = [list(r) for r in rows]
    last = {n - 1 - c for c in pivot_columns([r[::-1] for r in rows], field)}
    if len(last) < len(rows):
        raise DegenerateInputError("could not complete basis: the rows are dependent")
    base = rows + [[field.one if j == i else field.zero for j in range(n)] for i in range(n) if i not in last]
    return [[base[j][i] for j in range(n)] for i in range(n)]


# -- implicitization -----------------------------------------------------------


def implicitize(param: Parametrization) -> Ideal:
    """Ideal of the closure of the parametrization image.

    Eliminates the parameters from the graph ideal (x_i - P_i(s)) under a
    block order: its intersection with k[x] is the kernel of k[x] -> k[s],
    x_i -> P_i(s).  The forms P_i share one degree, so that map is graded
    and the kernel is the homogeneous ideal of the image cone; a base point
    maps to the cone's vertex x = 0, which is no point of P^r, so no
    saturation is needed.
    """
    pring = param.ring
    m = pring.nvars
    r = len(param.forms) - 1
    big = RingContext(tuple(pring.names) + tuple(f"x{i}" for i in range(r + 1)), pring.field, Block(m))

    def lift(f):
        return big.from_dict({mm + (0,) * (r + 1): c for mm, c in f.terms})

    gens = [big.variable(m + i) - lift(f) for i, f in enumerate(param.forms)]
    out = eliminate(Ideal.of(big, gens), m)
    return homogeneous_generators(out.map_ring(ambient_ring(r, pring.field)))


# -- projections, cones, slices --------------------------------------------------


def project_image(X: ProjectiveVariety, center_rows) -> ProjectiveVariety:
    """Closure of the image of X under linear projection from the span of
    the independent coordinate rows ``center_rows``.

    Coordinates are changed by x = B y with B = ``projection_frame(field,
    center_rows, r + 1)``, so the center is the span of the first k coordinate
    points, then the center block is eliminated: the image ring's variables
    are y_k..y_r, the forms given by rows k..r of B^-1.

    A center row on which every generator of X vanishes raises
    DegenerateInputError.  For a one-point center that decides whether the
    center meets X; a larger center can meet X away from its rows, which
    callers detect by the image degree (``entry_locus.plane_model``).
    """
    field = X.field
    r = X.ambient
    k = len(center_rows)
    B = projection_frame(field, center_rows, r + 1)
    zero = field.zero
    if any(all(g.evaluate(row) == zero for g in X.ideal.gens) for row in center_rows):
        raise DegenerateInputError("projection center meets the variety")
    moved = apply_linear_substitution(X.ideal, B)
    moved = Ideal.of(X.ring.with_order(Block(k)), moved.gens)
    out = eliminate(moved, k)
    new_r = r - k
    target = ambient_ring(new_r, field)
    ideal = Ideal.of(target, [Polynomial(target, g.terms) for g in out.gens])
    new_param = None
    if X.param is not None:
        binv = mat_inverse(B, field)
        rows = binv[k:]
        forms = []
        for row in rows:
            f = X.param.ring.zero()
            for c, form in zip(row, X.param.forms):
                if c != field.zero:
                    f = f + form.scale(c)
            forms.append(f)
        new_param = Parametrization(X.param.ring, tuple(forms))
    return ProjectiveVariety(new_r, ideal, new_param, dict(X.meta))


def cone_over(B: ProjectiveVariety) -> ProjectiveVariety:
    """Cone in P^(r+1) over B in P^r, with vertex the new coordinate point."""
    r = B.ambient + 1
    target = ambient_ring(r, B.field)
    gens = [target.from_dict({m + (0,): c for m, c in g.terms}) for g in B.ideal.gens]
    new_param = None
    if B.param is not None:
        pring = B.param.ring
        e = B.param.degree
        new_pring = RingContext(
            tuple(pring.names) + (f"s{pring.nvars}",), B.field, pring.order
        )
        lifted = [
            new_pring.from_dict({m + (0,): c for m, c in f.terms}) for f in B.param.forms
        ]
        # the cone coordinate: free parameter times a pin of degree e-1
        pin_mono = (e - 1,) + (0,) * (new_pring.nvars - 2) + (1,)
        lifted.append(new_pring.monomial(pin_mono))
        new_param = Parametrization(new_pring, tuple(lifted))
    meta = dict(B.meta)
    meta["name"] = "cone_" + meta.get("name", "variety")
    if "n" in meta:
        meta["n"] = meta["n"] + 1
    return ProjectiveVariety(r, Ideal.of(target, gens), new_param, meta)


def affine_chart(ring: RingContext, rng: random.Random, extra=(), cuts=0, given=()):
    """A seeded random affine chart {c . x = 1} of the projective ring, cut by
    ``cuts`` seeded random hyperplanes {l . x = 0} and by the ``given``
    hyperplanes (coefficient rows of linear forms known to vanish on the
    variety; they may be dependent).

    The cut forms are drawn first, then the chart form; ``given`` draws
    nothing.  One rref on reversed columns solves the system for its pivots,
    the last variables it can (for ``cuts=0`` and no ``given`` the last one
    with a nonzero chart coefficient).  The affine ring keeps the other
    variables in order and appends the ``extra`` names.  Returns (affine
    ring, images of the projective variables, chart, c), where chart
    evaluates the images at an affine solution vector and c is the drawn
    chart form; None when the system is inconsistent (for ``cuts=0``, when c
    is a combination of the given rows) or the drawn forms are dependent.
    """
    field = ring.field
    n = ring.nvars
    drawn = [random_coords(field, rng, n) for _ in range(cuts)]
    form = random_coords(field, rng, n)
    rows = [row[::-1] + [field.zero] for row in (*given, *drawn)]
    rows.append(form[::-1] + [field.one])
    red, piv = rref(rows, field)
    if piv[-1] == n or len(piv) < len(rows) - len(given):
        return None
    solved = {n - 1 - j: row for j, row in zip(piv, red)}
    free = [i for i in range(n) if i not in solved]
    aring = RingContext(tuple(ring.names[i] for i in free) + tuple(extra), field)
    pad = [field.zero] * len(extra)
    images = [None] * n
    for slot, i in enumerate(free):
        images[i] = aring.variable(slot)
    for i, row in solved.items():
        images[i] = aring.constant(row[n]) - aring.linear_form([row[n - 1 - j] for j in free] + pad)

    def chart(values):
        return tuple(img.evaluate(values) for img in images)

    return aring, images, chart, form


def dehomogenize(ideal: Ideal, rng: random.Random, cuts=0):
    """The ideal on a seeded random affine chart, cut by ``cuts`` seeded
    random hyperplanes: (affine ring, affine generators, chart) as in
    :func:`affine_chart`, or None when its draws are dependent."""
    found = affine_chart(ideal.ring, rng, cuts=cuts)
    if found is None:
        return None
    aring, images, chart, _ = found
    return aring, [g.substitute(images, aring) for g in ideal.gens], chart


def zero_dim_slice(ideal: Ideal, cuts: int, rng: random.Random):
    """Restrict a projective ideal to ``cuts`` seeded random hyperplanes on a
    seeded random chart, by substituting the solved linear section, and
    return (grevlex basis, chart) when the affine slice is nonempty and
    zero-dimensional, else None (the slice or chart missed every point, or
    the slice was not generic)."""
    cut = dehomogenize(ideal, rng, cuts)
    if cut is None:
        return None
    aring, agens, chart = cut
    gb = groebner_basis(Ideal.of(aring, agens), GREVLEX)
    if gb.is_unit() or not is_zero_dimensional(gb):
        return None
    return gb, chart


# -- dimension, degree, span -----------------------------------------------------


def reduced_dim_degree(ideal: Ideal, seed: int) -> tuple[int, int]:
    """(projective dimension, set-theoretic degree) of V(I).

    Dimension from Hilbert invariants; reduced degree by slicing with
    dimension-many seeded hyperplanes and counting distinct points through the
    squarefree eliminant of a random linear coordinate.  Two seeds must agree;
    a third arbitrates; persistent mismatch is an error.
    """
    inv = hilbert_invariants(ideal)
    if inv.dimension < 0:
        return (-1, 0)
    if inv.dimension == 0:
        rng = seeded_rng((seed, "dim0"))
        return (0, count_on_slice(ideal, 0, rng))
    counts = []
    for round_idx in range(3):
        rng = seeded_rng((seed, "slice", round_idx))
        counts.append(count_on_slice(ideal, inv.dimension, rng))
        if round_idx == 1 and counts[0] == counts[1]:
            return (inv.dimension, counts[0])
    best = max(set(counts), key=counts.count)
    if counts.count(best) < 2:
        raise DegenerateInputError(f"slice degree arbitration failed: {counts}")
    return (inv.dimension, best)


def count_on_slice(ideal: Ideal, dim: int, rng: random.Random) -> int:
    """Distinct points of V(I) on a seeded random slice by ``dim`` hyperplanes
    (5 slices tried; DegenerateInputError when none is zero-dimensional)."""
    for _ in range(5):
        cut = zero_dim_slice(ideal, dim, rng)
        if cut is not None:
            return count_distinct_points(cut[0], rng)[0]
    raise DegenerateInputError("could not find a generic slice")


def span_form_rows(ideal: Ideal):
    """Rows of the independent linear forms vanishing on the scheme: the
    degree-1 part of the irrelevant saturation, or every form when the
    scheme is empty."""
    return graded_piece_rows(irrelevant_saturate(ideal), 1)[0]


def graded_piece_rows(ideal: Ideal, degree: int):
    """Basis of the degree-d part of the ideal as coefficient rows over the
    monomials of degree d (ordered by the ring's term order, descending)."""
    ring = ideal.ring
    field = ring.field
    monos = monomials_of_degree(ring.nvars, degree)
    monos.sort(key=ring.order.key, reverse=True)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.gens:
        e = g.total_degree()
        if not g.is_homogeneous() or e > degree:
            continue
        for shift in monomials_of_degree(ring.nvars, degree - e):
            row = [field.zero] * len(monos)
            for m, c in g.terms:
                mm = tuple(a + b for a, b in zip(m, shift))
                row[index[mm]] = c
            rows.append(row)
    red, piv = rref(rows, field)
    return [red[i] for i in range(len(piv))], monos


def slice_by_span(ideal: Ideal, span_rows) -> Ideal:
    """Restrict a homogeneous ideal to the linear span cut out by the given
    form rows, rewritten in intrinsic coordinates of the span: x is
    sum_j y_j * b_j over a kernel basis b_j of the rows."""
    if not span_rows:
        return ideal
    ring = ideal.ring
    point_basis = kernel_basis([list(r) for r in span_rows], ring.field)
    target = ambient_ring(len(point_basis) - 1, ring.field)
    images = [target.linear_form([b[i] for b in point_basis]) for i in range(ring.nvars)]
    return Ideal.of(target, [g.substitute(images, target) for g in ideal.gens])


# -- point sampling ---------------------------------------------------------------


def witness_points(X: ProjectiveVariety, rng: random.Random, want: int = 2):
    """Distinct F_p-rational points on an implicit variety, by slicing down to
    dimension zero and enumerating; retries slices until enough points split."""
    field = X.field
    if not isinstance(field, PrimeField):
        raise DegenerateInputError("witness sampling runs over a prime field")
    inv = hilbert_invariants(X.ideal)
    if inv.dimension < 0:
        raise DegenerateInputError("empty variety")
    found = []
    seen = set()
    for _ in range(12):
        cut = zero_dim_slice(X.ideal, inv.dimension, rng)
        if cut is None:
            continue
        gb, chart = cut
        pts = enumerate_points_prime_field(gb, rng, require_all=False)
        if not pts:
            continue
        for values in pts:
            pt = ProjectivePoint.make(field, chart(values))
            if pt.coords not in seen and X.contains_point(pt):
                seen.add(pt.coords)
                found.append(pt)
        if len(found) >= want:
            return found[:want]
    if found:
        return found
    raise DegenerateInputError("no rational witness points found")
