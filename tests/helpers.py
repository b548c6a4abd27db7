"""Helpers that only the tests call: seeded points on a parametrized
variety, scheme equality of two homogeneous ideals, the variety-file writer,
a deterministic stream of large primes, polynomial predicates, and reference
copies of the repeated-trial routes that the library now ends early."""

from __future__ import annotations

import random

from entryloci import rank_secant
from entryloci.geometry import ProjectivePoint, ProjectiveVariety, witness_points
from entryloci.kernel import (
    GREVLEX,
    Budget,
    DegenerateInputError,
    Ideal,
    PrimeField,
    RingMismatchError,
    groebner_basis,
    irrelevant_saturate,
    next_prime,
)
from entryloci.kernel.fields import Rationals
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.ideals import same_ideal
from entryloci.kernel.linalg import rank
from entryloci.kernel.rng import random_coords, seeded_rng
from entryloci.kernel.univar import u_degree, u_squarefree_part
from entryloci.kernel.zerodim import (
    enumerate_points_prime_field,
    is_zero_dimensional,
    minimal_polynomial_of,
    random_linear_combination,
)


def sample_point(X: ProjectiveVariety, rng: random.Random) -> ProjectivePoint:
    """Seeded point on a parametrized variety."""
    if X.param is None:
        raise DegenerateInputError("sample_point needs a parametrization")
    field = X.field
    for _ in range(40):
        values = random_coords(field, rng, X.param.nparams)
        coords = X.param.evaluate(values)
        if any(c != field.zero for c in coords):
            return ProjectivePoint.make(field, coords)
    raise DegenerateInputError("parametrization kept hitting base points")


def same_saturation(a: Ideal, b: Ideal, budget: Budget | None = None) -> bool:
    """Scheme equality of two homogeneous ideals: their irrelevant-ideal
    saturations are equal."""
    return same_ideal(irrelevant_saturate(a, budget), irrelevant_saturate(b, budget), budget)


def write_variety(var: ProjectiveVariety) -> str:
    """The variety-file text that ``varfile.read_variety`` parses back."""
    lines = [f"ring {' '.join(var.ring.names)} over {var.field.describe()}"]
    if var.param is not None:
        lines.append(f"param {' '.join(var.param.ring.names)}")
    for g in var.ideal.gens:
        lines.append(f"gen: {g.to_string()}")
    if var.param is not None:
        for f in var.param.forms:
            lines.append(f"par: {f.to_string()}")
    meta_bits = []
    for key in ("name", "d", "g", "n"):
        if key in var.meta and var.meta[key] is not None:
            meta_bits.append(f"{key}={var.meta[key]}")
    if meta_bits:
        lines.append("meta: " + " ".join(meta_bits))
    return "\n".join(lines) + "\n"


def prime_stream(seed: int):
    """Deterministic stream of primes above 2^31, for searches over fields."""
    rng = seeded_rng(("prime-stream", seed))
    p = 2**31 + rng.randrange(2**22)
    while True:
        p = next_prime(p)
        yield p


# -- polynomial predicates ----------------------------------------------------


def num_terms(f) -> int:
    return len(f.terms)


def proportional_to(f, g) -> bool:
    """True if f = c * g for a nonzero constant c."""
    if f.ring != g.ring:
        raise RingMismatchError(f"rings differ: {f.ring} vs {g.ring}")
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if len(f.terms) != len(g.terms):
        return False
    field = f.ring.field
    ratio = field.div(f.leading_coeff(), g.leading_coeff())
    for (m1, c1), (m2, c2) in zip(f.terms, g.terms):
        if m1 != m2 or c1 != field.mul(ratio, c2):
            return False
    return True


def reduce_mod(f, target):
    """Image of a Q-polynomial in an F_p ring with the same variables."""
    if f.ring.names != target.names:
        raise RingMismatchError("variable mismatch in modular reduction")
    field = target.field
    out = {}
    for m, c in f.terms:
        if isinstance(f.ring.field, Rationals) and isinstance(field, PrimeField):
            v = field.from_rational(c.numerator, c.denominator)
        else:
            v = field.coerce(c)
        if v != field.zero:
            out[m] = v
    return target.from_dict(out)


# -- reference routes: every trial and every round, as before the early stops --


def _ref_count_distinct_points(gb, rng, trials=2, budget=None):
    """``count_distinct_points`` computing every trial."""
    best = 0
    for _ in range(trials):
        t = random_linear_combination(gb.ring, rng)
        mp = minimal_polynomial_of(t, gb, budget)
        sf = u_squarefree_part(mp, gb.ring.field)
        best = max(best, u_degree(sf))
    return best


def _ref_secant_dims(X, s_max, seed=0, budget=None):
    """``secant_dims`` running all ``SECANT_TRIALS`` trials."""
    field = X.field
    r = X.ambient
    n = X.meta.get("n")
    if n is None:
        n = hilbert_invariants(X.ideal, budget).dimension
    best = [0] * s_max
    for trial in range(rank_secant.SECANT_TRIALS):
        rng = seeded_rng(("terracini", X.meta.get("key"), seed, trial))
        if X.param is not None:
            blocks = [rank_secant._param_jacobian_rows(X, rng) for _ in range(s_max)]
        else:
            pts = witness_points(X, rng, want=s_max, budget=budget)
            if len(pts) < s_max:
                raise DegenerateInputError("not enough witness points for the secant profile")
            blocks = [rank_secant._implicit_tangent_rows(X, p) for p in pts]
        stacked = []
        for s in range(1, s_max + 1):
            stacked.extend(blocks[s - 1])
            best[s - 1] = max(best[s - 1], rank(stacked, field) - 1)
    steps = []
    r_gen = None
    for s in range(1, s_max + 1):
        expected = min(s * (n + 1) - 1, r)
        steps.append(rank_secant.SecantStep(s, best[s - 1], expected, best[s - 1] < expected))
        if r_gen is None and best[s - 1] == r:
            r_gen = s
    return rank_secant.SecantProfile(tuple(steps), r_gen)


def _ref_two_decompositions(X, q, seed=0, budget=None):
    """``two_decompositions`` as a vote of up to three rounds, with no
    certificate: two that agree end it, else the largest count wins."""
    if X.contains_point(q):
        raise DegenerateInputError("base point lies on the variety")
    field = X.field
    counts = []
    best = None
    for round_idx in range(3):
        rng = seeded_rng(("decomp", X.meta.get("key"), seed, round_idx))
        system, chart = rank_secant._incidence_affine_system(X, q, rng)[:2]
        gb = groebner_basis(system, GREVLEX, budget)
        if gb.is_unit():
            counts.append(0)
            continue
        if not is_zero_dimensional(gb):
            return rank_secant.DecompositionSet(True, None, None)
        c = _ref_count_distinct_points(gb, rng, trials=2, budget=budget)
        counts.append(c)
        if best is None or c > counts[best[0]]:
            best = (round_idx, gb, chart, rng)
        if round_idx == 1 and counts[0] == counts[1]:
            break
    solutions = max(counts)
    if solutions % 2 != 0:
        raise DegenerateInputError(f"odd ordered-solution count {solutions}")
    npairs = solutions // 2
    pairs = None
    if npairs and best is not None and isinstance(field, PrimeField):
        _, gb, chart, rng = best
        raw = enumerate_points_prime_field(gb, rng, budget)
        if raw is not None and len(raw) == solutions:
            seen = {}
            for values in raw:
                coords, lam = chart(values), values[-1]
                a = ProjectivePoint.make(field, coords)
                b_coords = [field.add(field.mul(lam, c), qc) for c, qc in zip(coords, q.coords)]
                b = ProjectivePoint.make(field, b_coords)
                key = tuple(sorted([a.coords, b.coords]))
                seen[key] = (a, b) if a.coords <= b.coords else (b, a)
            if len(seen) == npairs:
                pairs = tuple(seen[k] for k in sorted(seen))
    return rank_secant.DecompositionSet(False, npairs, pairs)
