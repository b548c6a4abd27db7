"""Segre points of space curves, the quadric-pencil count for elliptic
quartics, and the pair test for curves with coinciding projections.

A point is a Segre point of a curve when projecting away from it drops the
reduced image degree below the curve degree (the projection is then a
non-trivial cover of its image).  For a smooth quartic complete-intersection
curve in P^3 the Segre points are the vertices of the singular members of its
quadric pencil: the distinct roots of the binary quartic det(l*A + m*B),
expanded by ``univar.u_det_pencil``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .geometry import (
    ProjectivePoint,
    ProjectiveVariety,
    graded_piece_rows,
    project_image,
    projection_frame,
    reduced_dim_degree,
)
from .kernel.errors import DegenerateInputError
from .kernel.fields import PrimeField
from .kernel.ideals import Ideal, radical_membership
from .kernel.linalg import kernel_basis, mat_inverse, rank
from .kernel.rng import seeded_rng
from .kernel.univar import u_degree, u_det_pencil, u_roots_prime_field, u_squarefree_part, u_trim


@dataclass(frozen=True)
class SegreVerdict:
    verdict: bool
    image_degree: int
    source_degree: int


@dataclass(frozen=True)
class QuadricPencil:
    a: tuple  # symmetric 4x4 matrix
    b: tuple
    det_form: tuple  # binary quartic coefficients: det(l*A + m*B), l-degree ascending
    field: object


def quadric_pencil(curve: ProjectiveVariety | Ideal) -> QuadricPencil:
    """Extract the pencil of quadrics through a curve in P^3 from the degree-2
    graded piece of its ideal; errors unless that piece is 2-dimensional."""
    ideal = curve.ideal if isinstance(curve, ProjectiveVariety) else curve
    ring = ideal.ring
    field = ring.field
    if ring.nvars != 4:
        raise DegenerateInputError("quadric pencils live in P^3")
    rows, monos = graded_piece_rows(ideal, 2)
    if len(rows) != 2:
        raise DegenerateInputError(f"pencil not 2-dimensional (got {len(rows)} quadrics)")
    mats = [_symmetric_matrix(row, monos, field) for row in rows]
    det_form = u_det_pencil(mats[1], mats[0], field)  # det(l*A + B), A = mats[0]
    det_form += [field.zero] * (5 - len(det_form))
    if all(c == field.zero for c in det_form):
        raise DegenerateInputError("pencil determinant form vanishes identically")
    return QuadricPencil(
        tuple(tuple(r) for r in mats[0]), tuple(tuple(r) for r in mats[1]), tuple(det_form), field
    )


def _symmetric_matrix(row, monos, field):
    m = [[field.zero] * 4 for _ in range(4)]
    half = field.inv(field.coerce(2))
    for coeff, mono in zip(row, monos):
        if coeff == field.zero:
            continue
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            i = support[0]
            if mono[i] == 2:
                m[i][i] = coeff
        else:
            i, j = support
            v = field.mul(coeff, half)
            m[i][j] = v
            m[j][i] = v
    return m


def pencil_det_distinct_roots(pencil: QuadricPencil) -> int:
    """Distinct projective roots of the binary determinant quartic."""
    field = pencil.field
    f = u_trim(list(pencil.det_form), field)
    if not f:
        raise DegenerateInputError("determinant form is zero")
    finite = u_degree(u_squarefree_part(f, field))
    at_infinity = 1 if u_degree(f) < 4 else 0  # root l:m = 1:0 when det(A) side collapses
    return finite + at_infinity


def pencil_vertices(pencil: QuadricPencil, rng: random.Random):
    """Vertices of the singular pencil members, when the determinant quartic
    splits over the prime field; None otherwise."""
    field = pencil.field
    if not isinstance(field, PrimeField):
        raise DegenerateInputError("vertex extraction runs over a prime field")
    f = u_trim(list(pencil.det_form), field)
    sf = u_squarefree_part(f, field)
    roots = u_roots_prime_field(sf, field, rng)
    if len(roots) != u_degree(sf):
        return None
    lam_mu = [(rt, field.one) for rt in roots]
    if u_degree(f) < 4:
        lam_mu.append((field.one, field.zero))
    vertices = []
    for l, m in lam_mu:
        mat = [
            [
                field.add(field.mul(l, pencil.a[i][j]), field.mul(m, pencil.b[i][j]))
                for j in range(4)
            ]
            for i in range(4)
        ]
        kb = kernel_basis(mat, field)
        if len(kb) != 1:
            raise DegenerateInputError("singular pencil member has a positive-dimensional vertex")
        vertices.append(ProjectivePoint.make(field, kb[0]))
    return vertices


def is_segre_point(
    Y: ProjectiveVariety, o: ProjectivePoint, seed: int = 0, source_degree: int | None = None
) -> SegreVerdict:
    """Does projection away from o identify points of the curve Y?  True when
    the reduced image degree falls below the curve degree."""
    if Y.contains_point(o):
        raise DegenerateInputError("candidate Segre point lies on the curve")
    if source_degree is None:
        source_degree = Y.meta.get("d")
    if source_degree is None:
        _, source_degree = reduced_dim_degree(Y.ideal, seed)
    image = project_image(Y, [o.coords])
    _, img_degree = reduced_dim_degree(image.ideal, seed)
    return SegreVerdict(img_degree < source_degree, img_degree, source_degree)


def segre_count_elliptic_quartic(C: ProjectiveVariety, seed: int = 0, want_vertices: bool = True):
    """Count (and over a splitting prime, the vertices) of the quadric cones
    through a degree-4 genus-1 complete-intersection curve in P^3."""
    dim, deg = reduced_dim_degree(C.ideal, seed)
    if (dim, deg) != (1, 4):
        raise DegenerateInputError(f"not a quartic curve: (dim, deg) = ({dim}, {deg})")
    pencil = quadric_pencil(C)
    count = pencil_det_distinct_roots(pencil)
    vertices = None
    if want_vertices and isinstance(C.field, PrimeField):
        vertices = pencil_vertices(pencil, seeded_rng(("vertices", seed)))
        if vertices is not None:
            checked = []
            for v in vertices:
                verdict = is_segre_point(C, v, seed, source_degree=4)
                if not verdict.verdict:
                    raise DegenerateInputError("pencil vertex failed the projection test")
                checked.append(v)
            vertices = checked
    return count, vertices


def union_span_is_ambient(Y: ProjectiveVariety, T: ProjectiveVariety) -> bool:
    """span(Y u T) = P^r: the span form spaces of the two curves meet only in
    0.  Each curve's span rows are independent (pivot rows, computed once and
    kept on the curve), so that holds exactly when all of them together are."""
    rows = Y.span_rows + T.span_rows
    return rank(rows, Y.field) == len(rows)


def pair_segre_test(Y: ProjectiveVariety, T: ProjectiveVariety, o: ProjectivePoint) -> bool:
    """True when the projections of T and Y away from o coincide as sets,
    tested through reduced containment of the image ideals J_Y and J_T.

    The forward containment V(J_T) subset V(J_Y) is decided on T's own ideal
    I_T, so T is projected only when it holds.  Lemma: with x = B y the frame
    of ``project_image``, J_T = I_T(B y) meet k[y_1..y_r], and for g in
    k[y_1..y_r],  g in rad(J_T)  <=>  g(B^-1 x) in rad(I_T).
    Proof: g^m lies in k[y_1..y_r], so g^m is in J_T exactly when it is in
    I_T(B y); and h(y) is in I_T(B y) exactly when h(B^-1 x) is in I_T.
    So the verdict is the one the two images give, on every input.

    Before any Groebner run, the pulled-back generators are evaluated at a
    few fixed points of V(I_T) (``T.fixed_points``): every element of
    rad(I_T) vanishes there, so one that does not refutes the containment
    exactly, and only a test that no point refutes runs the membership
    route.
    """
    if Y.ideal.gens == T.ideal.gens:
        raise DegenerateInputError("pair test needs two distinct curves")
    if Y.contains_point(o) or T.contains_point(o):
        raise DegenerateInputError("candidate point lies on one of the curves")
    if not union_span_is_ambient(Y, T):
        raise DegenerateInputError("the two curves do not span the ambient space")
    img_y = project_image(Y, [o.coords])
    # V(J_T) subset of V(J_Y): every generator of J_Y, pulled back to P^r,
    # vanishes on T
    field = T.field
    rows = mat_inverse(projection_frame(field, [o.coords], T.ambient + 1), field)[1:]
    for x in T.fixed_points:
        # the pulled-back generators at x are the generators at B^-1 x
        y = [field.coerce(sum(a * b for a, b in zip(row, x))) for row in rows]
        if any(g.evaluate(y) != field.zero for g in img_y.ideal.gens):
            return False  # rad(I_T) vanishes at x, and this one does not
    ys = [T.ring.linear_form(row) for row in rows]
    pulled = (g.substitute(ys, T.ring) for g in img_y.ideal.gens)
    if not all(radical_membership(f, T.ideal) for f in pulled):
        return False
    img_t = project_image(T, [o.coords])
    return all(radical_membership(g, img_y.ideal) for g in img_t.ideal.gens)
