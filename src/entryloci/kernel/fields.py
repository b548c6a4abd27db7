"""Coefficient fields: exact rationals (via fractions.Fraction) and prime fields.

Field element payloads are plain Python values: ``Fraction`` over Q, ``int``
residues in ``[0, p)`` over F_p.  Python integers never overflow, so products
of residues near 2^62 are exact before reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CoefficientError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^62 ceiling used here."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n += 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n


class Rationals:
    """The field Q.  A stateless singleton; all instances compare equal."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise CoefficientError(f"cannot coerce {value!r} into Q")

    def from_rational(self, num: int, den: int):
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.one / a

    def div(self, a, b):
        return self.coerce(a) / b

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def describe(self) -> str:
        return "Q"


class PrimeField:
    """F_p for a prime 3 <= p < 2^62.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not (3 <= p < 2**62):
            raise CoefficientError(f"prime {p} outside the supported range [3, 2^62)")
        if not is_prime(p):
            raise CoefficientError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator % self.p
            raise CoefficientError("rational literal not allowed in prime-field ring")
        raise CoefficientError(f"cannot coerce {value!r} into F_{self.p}")

    def from_rational(self, num: int, den: int):
        if den % self.p == 0:
            raise CoefficientError(f"denominator {den} not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def describe(self) -> str:
        return f"Fp:{self.p}"


QQ = Rationals()


def field_from_descriptor(text: str):
    """Parse 'Q' or 'Fp:<p>' into a field object."""
    t = text.strip()
    if t in ("Q", "q", "QQ"):
        return QQ
    low = t.lower()
    if low.startswith("fp:"):
        try:
            p = int(t.split(":", 1)[1])
        except ValueError:
            raise CoefficientError(f"field descriptor {text!r} needs an integer prime") from None
        return PrimeField(p)
    raise CoefficientError(f"unknown field descriptor {text!r}")
