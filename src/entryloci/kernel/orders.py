"""Monomial orders: grevlex, lex, and block elimination orders.

Every order exposes ``key(exponents) -> tuple[int, ...]`` such that comparing
keys with Python's tuple ordering realizes the monomial order.  Keys are flat
integer tuples, so they can also be negated componentwise to drive a min-heap
as a max-heap.

Grevlex keys, which block keys are made of, are memoized in one bounded
least-recently-used cache: one computation keys the same few hundred
monomials many times over, and the bound keeps the memory of a long process
flat.
"""

from __future__ import annotations

from functools import lru_cache

KEY_CACHE_SIZE = 4096  # grevlex keys memoized


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _grevlex_key(exps):
    # degree first; ties broken so the rightmost unequal exponent decides,
    # smaller exponent winning (classic grevlex).
    return (sum(exps),) + tuple(-e for e in reversed(exps))


class GrevLex:
    name = "grevlex"
    block_size = 0
    key = staticmethod(_grevlex_key)

    def __repr__(self):
        return "grevlex"

    def __eq__(self, other):
        return isinstance(other, GrevLex)

    def __hash__(self):
        return hash("grevlex")


class Lex:
    name = "lex"
    block_size = 0

    def key(self, exps):
        return tuple(exps)

    def __repr__(self):
        return "lex"

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash("lex")


class Block:
    """Eliminates the first k variables: any monomial involving them is larger
    than any monomial that does not; grevlex inside each block."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("block size must be nonnegative")
        self.k = k
        self.name = f"block:{k}"
        self.block_size = k

    def key(self, exps):
        k = self.k
        return _grevlex_key(exps[:k]) + _grevlex_key(exps[k:])

    def __repr__(self):
        return f"block({self.k})"

    def __eq__(self, other):
        return isinstance(other, Block) and other.k == self.k

    def __hash__(self):
        return hash(("block", self.k))


GREVLEX = GrevLex()
LEX = Lex()


def order_from_name(text: str, nvars: int):
    """The order named ``grevlex``, ``lex`` or ``block:k`` on ``nvars``
    variables; ``block:k`` needs 0 <= k <= nvars.  Raises ValueError."""
    t = text.strip().lower()
    if t == "grevlex":
        return GREVLEX
    if t == "lex":
        return LEX
    if t.startswith("block:"):
        k = t.split(":", 1)[1]
        if k.isdigit() and int(k) <= nvars:
            return Block(int(k))
        raise ValueError(f"block size in {text!r} must be an integer from 0 to {nvars}")
    raise ValueError(f"unknown monomial order {text!r}")
