"""Deterministic seeding.

``random.Random(obj)`` falls back to ``hash(obj)`` for tuples, and string
hashing is randomized per process; reports must instead be byte-identical for
identical run configurations.  All internal randomness therefore derives
integer seeds from a stable digest of the labelling data.
"""

from __future__ import annotations

import hashlib
import random

QQ_HEIGHT = 1000  # height bound for "general" rational choices


def derive_seed(*parts) -> int:
    blob = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def seeded_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))
