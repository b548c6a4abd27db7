"""Helpers that only the tests call: seeded points on a parametrized
variety, scheme equality of two homogeneous ideals, the variety-file writer
and a deterministic stream of large primes."""

from __future__ import annotations

import random

from entryloci.geometry import ProjectivePoint, ProjectiveVariety
from entryloci.kernel import Budget, DegenerateInputError, Ideal, irrelevant_saturate, next_prime
from entryloci.kernel.ideals import same_ideal
from entryloci.kernel.rng import random_coords, seeded_rng


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
