"""Secant dimensions by tangent-space stacking, generic rank, and enumeration
of length-2 decompositions of a point.

Secant dimensions use the classical tangent-span computation: the tangent
space to the s-th secant at a general point of the span of s general points is
the span of the tangent spaces at those points, so its dimension is the rank
of the stacked Jacobians.  Ranks are maximized over up to ``SECANT_TRIALS``
independent trials, since a special sample can only under-estimate; the
trials stop early once every step reaches the expected dimension
min(s(n+1) - 1, r), an upper bound on dim sigma_s (Terracini's lemma).
Decompositions are counted on seeded affine charts that also solve the
incidence generators linear in the point, and a one-sided certificate ends
the count after the first chart when it provably misses nothing
(:func:`two_decompositions`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .geometry import (
    ProjectivePoint,
    ProjectiveVariety,
    affine_chart,
    witness_points,
)
from .kernel.errors import DegenerateInputError
from .kernel.fields import PrimeField
from .kernel.hilbert import hilbert_invariants
from .kernel.ideals import Ideal, groebner_basis
from .kernel.linalg import kernel_basis, rank
from .kernel.orders import GREVLEX
from .kernel.poly import Polynomial
from .kernel.rng import random_coords, seeded_rng
from .kernel.univar import u_divmod
from .kernel.zerodim import (
    count_distinct_points,
    enumerate_points_prime_field,
    is_zero_dimensional,
    minimal_polynomial_of,
)


SECANT_TRIALS = 3  # at most this many independent samples; the secant ranks are maximized over them


@dataclass(frozen=True)
class SecantStep:
    s: int
    dim: int
    expected: int
    defective: bool


@dataclass(frozen=True)
class SecantProfile:
    steps: tuple
    r_gen: int | None  # None: undetermined up to s_max

    def dim(self, s: int) -> int:
        return self.steps[s - 1].dim

    def as_dict(self):
        return {
            "dims": [
                {"s": st.s, "dim": st.dim, "expected": st.expected, "defective": st.defective}
                for st in self.steps
            ],
            "r_gen": self.r_gen,
        }


@dataclass(frozen=True)
class DecompositionSet:
    positive_dimensional: bool
    count: int | None  # number of unordered pairs (None if positive-dimensional)
    pairs: tuple | None  # explicit pairs when rational over the field

    def as_dict(self):
        out = {
            "positive_dimensional": self.positive_dimensional,
            "count": self.count,
        }
        if self.pairs is not None:
            out["pairs"] = [
                [[str(c) for c in a.coords], [str(c) for c in b.coords]]
                for a, b in self.pairs
            ]
        return out


def _param_jacobian_rows(X: ProjectiveVariety, rng: random.Random):
    """Rows spanning the affine tangent space at a random parametrized point."""
    field = X.field
    nparams = X.param.nparams
    jac = X.param_jacobian
    for _ in range(20):
        values = random_coords(field, rng, nparams)
        rows = [[partials[i].evaluate(values) for partials in jac] for i in range(nparams)]
        if any(any(c != field.zero for c in row) for row in rows):
            return rows
    raise DegenerateInputError("degenerate parametrized sample")


def _implicit_tangent_rows(X: ProjectiveVariety, pt: ProjectivePoint):
    """Affine tangent space at a point of an implicit variety: the kernel of
    the generator Jacobian evaluated there."""
    rows = [[d.evaluate(pt.coords) for d in partials] for partials in X.jacobian]
    return kernel_basis(rows, X.field)


def secant_dims(X: ProjectiveVariety, s_max: int, seed: int = 0) -> SecantProfile:
    """Dimensions of the secants sigma_s for s = 1..s_max, and the generic rank.

    Parametrized varieties stack parametrization Jacobians at seeded random
    parameter points; implicit ones use generator-Jacobian kernels at rational
    witness points (prime fields only).  A trial in which every step reaches
    its expected dimension ends the sampling: by Terracini's lemma no sample
    of general points gives more, and each trial draws from its own seeded
    stream, so the trials run do not depend on the ones skipped.
    """
    field = X.field
    r = X.ambient
    n = X.meta.get("n")
    if n is None:
        n = hilbert_invariants(X.ideal).dimension
    expected = [min(s * (n + 1) - 1, r) for s in range(1, s_max + 1)]
    best = [0] * s_max
    for trial in range(SECANT_TRIALS):
        rng = seeded_rng(("terracini", X.meta.get("key"), seed, trial))
        if X.param is not None:
            blocks = [_param_jacobian_rows(X, rng) for _ in range(s_max)]
        else:
            pts = witness_points(X, rng, want=s_max)
            if len(pts) < s_max:
                raise DegenerateInputError("not enough witness points for the secant profile")
            blocks = [_implicit_tangent_rows(X, p) for p in pts]
        stacked = []
        for s in range(1, s_max + 1):
            stacked.extend(blocks[s - 1])
            dim_s = rank(stacked, field) - 1
            if dim_s > best[s - 1]:
                best[s - 1] = dim_s
        if best == expected:
            break  # every step is at its upper bound: later trials cannot raise it
    steps = []
    r_gen = None
    for s in range(1, s_max + 1):
        dim_s = best[s - 1]
        steps.append(SecantStep(s, dim_s, expected[s - 1], dim_s < expected[s - 1]))
        if r_gen is None and dim_s == r:
            r_gen = s
    return SecantProfile(tuple(steps), r_gen)


def incidence_generators(X: ProjectiveVariety, q: ProjectivePoint, ring, a_imgs, lam) -> list:
    """Generators of the rank-2 incidence system through q, the ideal of
    X(a) and X(lam * a + q); ``a_imgs`` are the images in ``ring`` of the
    coordinates of a (free of ``lam``) and ``lam`` is a variable of ``ring``.

    This is b = lam * a + mu * q at mu = 1.  As a is on X and q is not, b ~ a
    forces mu = 0, where X(lam * a) vanishes for every a on X: mu = 1 drops
    exactly that diagonal branch, and eliminating lam equals saturating by
    mu.  Proof: let J in R = k[a, lam, mu] be the system with mu kept (for
    the parametrized reference, phi(u) = lam * phi(s) + mu * q in
    k[s, u, lam, mu], with s as a).  J is homogeneous when lam and mu weigh
    e, the degree of the forms (e = 1 here), u weighs 1 and a weighs 0.  Over
    T = R_mu[nu]/(nu^e - mu), lam = nu^e * lam', u = nu * u' is an
    isomorphism onto A[nu, 1/nu], A = k[a, lam', u'], that fixes a and sends
    a generator of weight w to nu^w times its value at mu = 1.  T is free,
    hence faithfully flat, over R_mu, and so is A[nu, 1/nu] over A; so for f
    in k[a]: f in (J : mu^inf) iff f in J R_mu iff f in JT iff f in
    J|_{mu=1} (dehomogenization; Cox, Little and O'Shea, Ideals, Varieties,
    and Algorithms, section 8.4).

    The generators returned are smaller than the g(a), g(lam * a + q) they
    replace, but generate the same ideal, so every reduced Groebner basis
    of the system, under every order, is unchanged.  Proof: for each
    generator g of degree e >= 1, h = g(lam * a + q) - lam^e * g(a) differs
    from g(lam * a + q) by a multiple of the generator g(a), so the g(a) and
    the h generate the ideal.  Every term of h but its lam^0 term carries
    lam, and that term is the scalar c = g(q).  Let p be the first index
    with c_p != 0 (there is one, as q is not on X): h_p = lam * u + c_p, so
    lam * (-u / c_p) = 1 modulo the ideal, and lam is a unit there.  For
    j != p, w_j = c_p * h_j - c_j * h_p has no lam^0 term, so w_j / lam is
    a polynomial; it lies in the ideal because lam is a unit, and
    h_j = (lam * (w_j / lam) + c_j * h_p) / c_p is recovered from it.  So
    the g(a), h_p and the nonzero w_j / lam generate the same ideal.  For a
    variety cut by quadrics, h = lam * B(a, q) + g(q) with B the polar
    form, and w_j / lam = c_p * B_j(a, q) - c_j * B_p(a, q) is linear in a.
    """
    b_imgs = [lam * a + ring.constant(c) for a, c in zip(a_imgs, q.coords)]
    gens = [g.substitute(a_imgs, ring) for g in X.ideal.gens]
    hs = []
    for g, g_a in zip(X.ideal.gens, gens):
        e = g.total_degree()
        if e > 0:  # a constant g leaves h = 0
            hs.append(g.substitute(b_imgs, ring) - lam ** e * g_a)
    cs = [h.constant_value() for h in hs]
    p = next((i for i, c in enumerate(cs) if c != ring.field.zero), None)
    if p is None:
        raise DegenerateInputError("base point lies on the variety")
    h_p, c_p = hs[p], cs[p]
    li = lam.leading_monomial().index(1)
    out = gens + [h_p]
    for j, (h, c) in enumerate(zip(hs, cs)):
        if j == p:
            continue
        w = h.scale(c_p) - h_p.scale(c)
        if not w.is_zero():
            # dividing every term by lam keeps them in order
            out.append(Polynomial(ring, tuple(
                (m[:li] + (m[li] - 1,) + m[li + 1:], v) for m, v in w.terms
            )))
    return out


def _incidence_affine_system(X: ProjectiveVariety, q: ProjectivePoint, rng: random.Random):
    """Affine incidence system for rank-2 decompositions through q, with the
    a-block dehomogenized on a seeded random chart {c . a = 1} that also
    solves the linear generators (:func:`_linear_incidence_rows`).  Returns
    the system, the chart recovering a from a solution (whose last
    coordinate is lam) and c . q.

    A chart form that depends on the linear rows leaves no solution on the
    chart: the system is then the unit ideal, and c . q = 0, as q satisfies
    every linear row.
    """
    found = affine_chart(X.ring, rng, ("lam",), given=_linear_incidence_rows(X, q))
    if found is None:
        return Ideal.of(X.ring, [X.ring.one()]), None, X.field.zero
    aff, a_imgs, chart, form = found
    gens = incidence_generators(X, q, aff, a_imgs, aff.variable(aff.nvars - 1))
    return Ideal.of(aff, gens), chart, X.ring.linear_form(form).evaluate(q.coords)


def _linear_incidence_rows(X: ProjectiveVariety, q: ProjectivePoint):
    """Coefficient rows in a of the generators w_j / lam of
    :func:`incidence_generators` that are linear in a: when g_p is a
    quadric, c_p * B_j(a, q) - c_j * B_p(a, q) for each other quadric g_j,
    where h = lam * B(a, q) + g(q) with B(a, q) = grad g(q) . a, the polar
    form.  q satisfies every row, as B(q, q) = 2 g(q)."""
    field = X.field
    gens = [(g, partials) for g, partials in zip(X.ideal.gens, X.jacobian) if g.total_degree() > 0]
    cs = [g.evaluate(q.coords) for g, _ in gens]
    p = next((i for i, c in enumerate(cs) if c != field.zero), None)
    if p is None or gens[p][0].total_degree() != 2:
        return []

    def polar(partials):
        return [d.evaluate(q.coords) for d in partials]

    b_p, c_p = polar(gens[p][1]), cs[p]
    return [
        [field.sub(field.mul(c_p, x), field.mul(c, y)) for x, y in zip(polar(partials), b_p)]
        for j, ((g, partials), c) in enumerate(zip(gens, cs))
        if j != p and g.total_degree() == 2
    ]


def _misses_nothing(gb, count: int, cq) -> bool:
    """True when a chart's zero-dimensional system, with ``count`` distinct
    solutions, provably holds every decomposition, each once (conditions
    (i)-(iii) of :func:`two_decompositions`)."""
    field = gb.ring.field
    if cq == field.zero or count != len(gb.staircase):
        return False
    lam = gb.ring.variable(gb.ring.nvars - 1)
    mp = minimal_polynomial_of(lam, gb)[0]
    return bool(u_divmod(mp, [cq, field.one], field)[1])  # the remainder is mp(-cq)


def two_decompositions(X: ProjectiveVariety, q: ProjectivePoint, seed: int = 0) -> DecompositionSet:
    """The set S(X, q) of unordered pairs {a, b} on X with q in their span.

    Counting is chart- and field-robust (squarefree eliminant degree); explicit
    pairs are produced when the solution coordinates split over a prime field.

    Each round solves b = lam * a + q on a seeded chart {c . a = 1}; its
    distinct solutions are the ordered pairs (A, B) with c . A != 0, so a
    round can only undercount, and the count is the largest over up to three
    rounds (two that agree end it).  Round 0 is exact, and the later rounds
    are skipped, when (i) c . q != 0, (ii) its distinct-point count equals
    D = dim ring/I (the count never exceeds D, so it is then exact and the
    system radical) and (iii) m(-c . q) != 0 for the minimal polynomial m of
    lam on ring/I, whose roots are lam's values at the solutions.  Proof: a
    missed ordered pair (A, B) has c . A = 0; q = alpha * A + beta * B gives
    c . B = c . q / beta != 0, so (B, A) is a chart solution, and b = B /
    (c . B) with lam * b + q proportional to A forces lam = -beta * c . B =
    -c . q, which (iii) excludes.  A unit ideal with c . q != 0 certifies
    the count 0 the same way, and a positive-dimensional family of
    decompositions missed by the chart would put infinitely many solutions
    at lam = -c . q.  The later rounds can then only undercount, so the
    maximum is round 0's count and round 0's basis is the one enumerated.

    The chart also solves the generators that are linear in a, so a round's
    system has fewer variables (:func:`_incidence_affine_system`).  When
    the winning round's count reached D, the points are read from its
    counting form (the shape of ``count_distinct_points``); otherwise a
    fresh separating form enumerates them.  The pairs are returned as a
    sorted set, so they do not depend on the form or on the root draws.
    """
    if X.contains_point(q):
        raise DegenerateInputError("base point lies on the variety")
    field = X.field
    counts = []
    best = None
    for round_idx in range(3):
        rng = seeded_rng(("decomp", X.meta.get("key"), seed, round_idx))
        system, chart, cq = _incidence_affine_system(X, q, rng)
        gb = groebner_basis(system, GREVLEX)
        if gb.is_unit():
            counts.append(0)
            if round_idx == 0 and cq != field.zero:
                break
            continue
        if not is_zero_dimensional(gb):
            return DecompositionSet(True, None, None)
        c, shape = count_distinct_points(gb, rng)
        counts.append(c)
        if best is None or c > counts[best[0]]:
            best = (round_idx, gb, chart, rng, shape)
        if round_idx == 0 and _misses_nothing(gb, c, cq):
            break
        if round_idx == 1 and counts[0] == counts[1]:
            break
    solutions = max(counts)
    if solutions % 2 != 0:
        raise DegenerateInputError(f"odd ordered-solution count {solutions}")
    npairs = solutions // 2
    pairs = None
    if npairs and best is not None and isinstance(field, PrimeField):
        _, gb, chart, rng, shape = best
        raw = enumerate_points_prime_field(gb, rng, shape=shape)
        if raw is not None and len(raw) == solutions:
            seen = {}
            for values in raw:
                coords, lam = chart(values), values[-1]
                a = ProjectivePoint.make(field, coords)
                b_coords = [
                    field.add(field.mul(lam, c), qc) for c, qc in zip(coords, q.coords)
                ]
                b = ProjectivePoint.make(field, b_coords)
                key = tuple(sorted([a.coords, b.coords]))
                seen[key] = (a, b) if a.coords <= b.coords else (b, a)
            if len(seen) == npairs:
                pairs = tuple(seen[k] for k in sorted(seen))
    return DecompositionSet(False, npairs, pairs)
