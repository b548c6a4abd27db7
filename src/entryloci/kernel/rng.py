"""Deterministic seeding and seeded general choices.

``random.Random(obj)`` falls back to ``hash(obj)`` for tuples, and string
hashing is randomized per process; reports must instead be byte-identical for
identical run configurations.  All internal randomness therefore derives
integer seeds from a stable digest of the labelling data.  "General" scalars
and coordinates are uniform residues over F_p and small-height integers over Q.
"""

from __future__ import annotations

import hashlib
import random

from .fields import PrimeField

QQ_HEIGHT = 1000  # height bound for "general" rational choices


def derive_seed(*parts) -> int:
    blob = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def seeded_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def random_scalar(field, rng: random.Random):
    """A seeded general scalar: a residue mod p, or an integer of height <= QQ_HEIGHT."""
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return rng.randint(-QQ_HEIGHT, QQ_HEIGHT)


def random_coords(field, rng: random.Random, n: int):
    """n seeded general coordinates, redrawn until one is nonzero."""
    while True:
        coords = [field.coerce(random_scalar(field, rng)) for _ in range(n)]
        if any(c != field.zero for c in coords):
            return coords
