"""Entry loci of generic-rank-2 varieties: the locus ideal, its invariants
(dimension, span, reduced degree, component count) and the two type
classifications (irreducible vs not; stable vs moving under span points).

The incidence construction fixes the base point q and writes the second
decomposition point as b = lam * a + q: with the second line coordinate fixed
to 1, the diagonal branch b ~ a never appears, and eliminating lam projects
onto the first factor in one Groebner run over one added variable
(``rank_secant.incidence_generators`` builds the system and proves that this
equals saturating by the second coordinate).

The entry locus is a closure, so every invariant is read off the ideal
saturated by the irrelevant ideal.  That saturation is
``kernel.ideals.irrelevant_saturate`` (re-exported here); the span is its
linear part, read once off the saturated locus's generators, and the
component count comes from one degree-checked plane model
(``component_count``), projected through ``geometry.project_image``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .geometry import (
    ProjectivePoint,
    ProjectiveVariety,
    dehomogenize,
    graded_piece_rows,
    project_image,
    random_point,
    reduced_dim_degree,
)
from .kernel.errors import BudgetExceededError, DegenerateInputError
from .kernel.factor import absolute_factor_count, bivariate_gcd, squarefree_part
from .kernel.fields import PrimeField
from .kernel.hilbert import hilbert_invariants
from .kernel.ideals import (
    Ideal,
    eliminate,
    groebner_basis,
    homogeneous_generators,
    ideal_contains,
    irrelevant_saturate,
)
from .kernel.linalg import identity, kernel_basis
from .kernel.orders import GREVLEX, Block
from .kernel.poly import Polynomial, RingContext
from .kernel.rng import random_scalar, seeded_rng
from .kernel.zerodim import random_linear_combination
from .rank_secant import incidence_generators, secant_dims


@dataclass
class EntryLocusReport:
    variety: str
    seed: int
    field: str
    q: tuple
    gamma: int
    ell: int
    reduced_degree: int
    component_count: int
    type_irreducibility: str  # "I" | "II"
    type_ab: str  # "A" | "B" | "undetermined"
    degree_formula: dict
    dimension_formula: dict
    genus_recomputed: int | None
    primes: list
    timings: dict = dc_field(default_factory=dict)
    # working artifacts for downstream checks; as_dict never emits them
    locus: Ideal | None = dc_field(default=None, repr=False, compare=False)
    span_rows: list | None = dc_field(default=None, repr=False, compare=False)
    plane_model: Polynomial | None = dc_field(default=None, repr=False, compare=False)

    def as_dict(self):
        return {
            "variety": self.variety,
            "seed": self.seed,
            "field": self.field,
            "q": [str(c) for c in self.q],
            "gamma": self.gamma,
            "ell": self.ell,
            "reduced_degree": self.reduced_degree,
            "component_count": self.component_count,
            "type_irreducibility": self.type_irreducibility,
            "type_ab": self.type_ab,
            "degree_formula": self.degree_formula,
            "dimension_formula": self.dimension_formula,
            "genus_recomputed": self.genus_recomputed,
            "primes": self.primes,
            "timings": self.timings,
        }


def entry_locus_ideal(X: ProjectiveVariety, q: ProjectivePoint) -> Ideal:
    """Homogeneous ideal whose zero set is the entry locus of q (r_gen = 2)."""
    if X.contains_point(q):
        raise DegenerateInputError("entry locus base point lies on the variety")
    return irrelevant_saturate(_implicit_entry_locus(X, q))


def _implicit_entry_locus(X: ProjectiveVariety, q: ProjectivePoint) -> Ideal:
    ring = X.ring
    big = RingContext(("lam_",) + ring.names, X.field, Block(1))
    a_vars = [big.variable(1 + i) for i in range(ring.nvars)]
    gens = incidence_generators(X, q, big, a_vars, big.variable(0))
    return homogeneous_generators(eliminate(Ideal.of(big, gens), 1).map_ring(ring))


# -- component counting ----------------------------------------------------------


def plane_model(curve: Ideal, rng: random.Random, expected_degree: int) -> Polynomial:
    """Squarefree affine plane model of degree ``expected_degree`` of a
    projective curve under a seeded random projection to P^2, redrawing the
    projection while the degree falls short (see :func:`component_count`).

    The projection defined by a random 3 x (r+1) matrix is the projection
    from its kernel, :func:`geometry.project_image`: a coordinate change
    adapted to the center, so the image arises from one small block
    elimination (the attached-graph construction computes the same image
    ideal but drags a junk component at the cone point).
    """
    ring = curve.ring
    field = ring.field
    n = ring.nvars
    for attempt in range(5):
        matrix = [[field.coerce(random_scalar(field, rng)) for _ in range(n)] for _ in range(3)]
        center_rows = kernel_basis(matrix, field)
        if len(center_rows) != n - 3:
            continue
        image = project_image(ProjectiveVariety(n - 1, curve, None, {}), center_rows).ideal
        if not image.gens:
            continue
        # a seeded random chart keeps every component affine w.h.p.
        aff_ring, aff_gens, _ = dehomogenize(image, rng)
        aff_gens = [g for g in aff_gens if not g.is_zero()]
        if not aff_gens:
            continue
        f = aff_gens[0]
        for g in aff_gens[1:]:
            f = bivariate_gcd(f, g)
        if f.total_degree() < 1:
            continue
        sf = squarefree_part(f)
        if sf.total_degree() != expected_degree:
            continue
        return sf
    raise DegenerateInputError("no non-collapsing plane projection found")


def component_count(curve: Ideal, seed: int, expected_degree: int) -> tuple[int, Polynomial]:
    """(number of geometric components, plane model) of a projective curve of
    reduced degree ``expected_degree``: the absolute factor count of the
    first seeded plane model that passes :func:`plane_model`'s degree check.

    One such model decides the count.  Let C_1..C_k be the components, with
    degrees summing to d.  A projection maps C_i onto a plane curve of degree
    deg pi(C_i) <= deg C_i, with equality exactly when the center misses C_i
    and pi restricted to C_i is birational.  The squarefree image has degree
    the sum of deg pi(C_i) over the distinct images, which is at most d, and
    equality holds exactly when every C_i maps birationally onto a curve of
    its own.  So at degree d the absolutely irreducible factors of the model
    correspond one to one with the components (a chart whose line at
    infinity is a component also drops the degree).  Later seeds run only
    when a projection fails the check.
    """
    for trial in range(3):
        rng = seeded_rng(("components", seed, trial))
        try:
            model = plane_model(curve, rng, expected_degree)
            return absolute_factor_count(model, rng), model
        except DegenerateInputError:
            continue
    raise DegenerateInputError("all plane projections collapsed")


# -- classification ----------------------------------------------------------------


def type_ab_test(
    X: ProjectiveVariety,
    q: ProjectivePoint,
    locus: Ideal,
    span_rows,
    trials: int = 3,
    seed: int = 0,
) -> str:
    """A / B / undetermined: does the entry locus stay the same for general
    points of its span (the kernel of the locus's ``span_rows``)?

    Both loci come from :func:`entry_locus_ideal`, so they are already
    saturated by the irrelevant ideal and scheme equality is plain ideal
    equality: mutual containment, tested on GREVLEX bases.  A B verdict needs
    containment to fail in both directions, and one B decides the test.
    """
    field = X.field
    span_basis = kernel_basis(span_rows, field) if span_rows else identity(X.ring.nvars, field)
    if len(span_basis) < 2:
        raise DegenerateInputError("entry locus span is a point")
    locus_gb = groebner_basis(locus, GREVLEX)
    stable = True
    for trial in range(trials):
        rng = seeded_rng(("typeab", X.meta.get("key"), seed, trial))
        o = None
        for _ in range(20):
            coeffs = [field.coerce(random_scalar(field, rng)) for _ in range(len(span_basis))]
            vec = [field.zero] * X.ring.nvars
            for c, row in zip(coeffs, span_basis):
                for i, x in enumerate(row):
                    vec[i] = field.add(vec[i], field.mul(c, x))
            if all(v == field.zero for v in vec):
                continue
            cand = ProjectivePoint.make(field, vec)
            if not X.contains_point(cand) and cand.coords != q.coords:
                o = cand
                break
        if o is None:
            stable = False
            continue
        try:
            other = entry_locus_ideal(X, o)
        except (DegenerateInputError, BudgetExceededError):
            stable = False
            continue
        fwd = ideal_contains(groebner_basis(other, GREVLEX), locus)
        bwd = ideal_contains(locus_gb, other)
        if not fwd and not bwd:
            return "B"
        stable = stable and fwd and bwd
    return "A" if stable else "undetermined"


def classify_entry_locus(X: ProjectiveVariety, seed: int, ab_trials: int = 3) -> EntryLocusReport:
    """Full entry-locus report for a catalog or file variety with r_gen = 2."""
    t0 = time.monotonic()
    field = X.field
    r = X.ambient
    n = X.meta.get("n")
    d = X.meta.get("d")
    timings = {}
    profile = secant_dims(X, 2, seed=seed)
    if profile.r_gen != 2:
        raise DegenerateInputError(f"generic rank is not 2: {profile.as_dict()}")
    dim_sigma1 = profile.dim(1)
    if n is None:
        n = dim_sigma1
    gamma_pred = dim_sigma1 + n + 1 - r
    timings["secant_profile_s"] = round(time.monotonic() - t0, 3)

    t1 = time.monotonic()
    locus = None
    q = None
    gamma = None
    for attempt in range(5):
        rng = seeded_rng(("entrylocus-q", X.meta.get("key"), seed, attempt))
        cand = random_point(field, rng, r + 1, off_coordinate_hyperplanes=True)
        if X.contains_point(cand):
            continue
        trial_locus = entry_locus_ideal(X, cand)
        inv = hilbert_invariants(trial_locus)
        if inv.dimension != gamma_pred:
            continue
        locus, q, gamma = trial_locus, cand, inv.dimension
        break
    if locus is None:
        raise DegenerateInputError("no sampled q passed the dimension sanity check")
    timings["entry_locus_ideal_s"] = round(time.monotonic() - t1, 3)

    t2 = time.monotonic()
    # the locus is saturated and generated by forms: its degree-1 part cuts out the span
    span_rows, _ = graded_piece_rows(locus, 1)
    ell = X.ring.nvars - 1 - len(span_rows)
    _, red_degree = reduced_dim_degree(locus, seed)
    timings["span_and_degree_s"] = round(time.monotonic() - t2, 3)

    t3 = time.monotonic()
    if gamma >= 1:
        comps, model = component_count(locus, seed, red_degree)
    else:
        comps, model = red_degree, None
    timings["components_s"] = round(time.monotonic() - t3, 3)

    genus_re = None
    degree_formula = {"applicable": False}
    if n == 2 and r == 4 and d is not None:
        rng = seeded_rng(("genus", X.meta.get("key"), seed))
        slice_gens = list(X.ideal.gens) + [random_linear_combination(X.ring, rng)]
        sl = hilbert_invariants(Ideal.of(X.ring, slice_gens))
        genus_re = sl.arithmetic_genus
        expected = (d - 1) * (d - 2) - 2 * genus_re
        degree_formula = {
            "applicable": True,
            "expected": expected,
            "computed": red_degree,
            "pass": expected == red_degree,
        }
    dimension_formula = {
        "expected": gamma_pred,
        "computed": gamma,
        "pass": gamma == gamma_pred,
    }

    t4 = time.monotonic()
    if gamma >= 1 and ell >= 1:
        ab = type_ab_test(X, q, locus, span_rows, trials=ab_trials, seed=seed)
    else:
        ab = "undetermined"
    timings["type_ab_s"] = round(time.monotonic() - t4, 3)
    timings["total_s"] = round(time.monotonic() - t0, 3)

    primes = [field.p] if isinstance(field, PrimeField) else []
    return EntryLocusReport(
        variety=X.meta.get("key", X.meta.get("name", "variety")),
        seed=seed,
        field=field.describe(),
        q=tuple(q.coords),
        gamma=gamma,
        ell=ell,
        reduced_degree=red_degree,
        component_count=comps,
        type_irreducibility="I" if comps == 1 else "II",
        type_ab=ab,
        degree_formula=degree_formula,
        dimension_formula=dimension_formula,
        genus_recomputed=genus_re,
        primes=primes,
        timings=timings,
        locus=locus,
        span_rows=span_rows,
        plane_model=model,
    )
