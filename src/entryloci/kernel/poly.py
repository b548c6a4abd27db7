"""Sparse exact multivariate polynomials over Q or a prime field.

A :class:`RingContext` fixes the variable names, coefficient field and active
monomial order.  :class:`Polynomial` values are immutable; their term list is
kept sorted in descending order so the leading term is O(1).

Sums, differences, products, powers and substitution collect plain ``+``,
``-`` and ``c1 * c2`` results in an unsorted ``{monomial: coefficient}`` dict:
over F_p each output coefficient is reduced mod p once, and only the final
result is sorted.  Intermediate powers and partial products are unsorted
term lists, reduced mod p so their coefficients stay small.  Over Q
coefficients are ``Fraction`` throughout.
"""

from __future__ import annotations

import re
from operator import add

from .errors import CoefficientError, ParseError, RingMismatchError
from .fields import QQ, PrimeField
from .orders import GREVLEX

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*/^]))")


class RingContext:
    """An ordered polynomial ring k[x_0, ..., x_n] with an active monomial order."""

    __slots__ = ("names", "field", "order", "nvars", "_index", "_zero_mono")

    def __init__(self, names, field=QQ, order=GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad variable name {nm!r}")
        self.names = names
        self.field = field
        self.order = order
        self.nvars = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        self._zero_mono = (0,) * len(names)

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and self.names == other.names
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"RingContext({','.join(self.names)}; {self.field}; {self.order})"

    def with_order(self, order) -> "RingContext":
        return self if order == self.order else RingContext(self.names, self.field, order)

    def subring(self, start: int) -> "RingContext":
        """Ring in the variables from position ``start`` on (grevlex order)."""
        return RingContext(self.names[start:], self.field, GREVLEX)

    def extend(self, extra_names, front: bool = False) -> "RingContext":
        names = tuple(extra_names) + self.names if front else self.names + tuple(extra_names)
        return RingContext(names, self.field, self.order)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CoefficientError(f"unknown variable {name!r}") from None

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, ((self._zero_mono, c),))

    def variable(self, i) -> "Polynomial":
        if isinstance(i, str):
            i = self.var_index(i)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((mono, self.field.one),))

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        c = self.field.one if coeff is None else self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, ((exps, c),))

    def from_dict(self, data) -> "Polynomial":
        field = self.field
        cleaned = {}
        for mono, c in data.items():
            c = field.coerce(c)
            if c != field.zero:
                cleaned[tuple(mono)] = c
        return Polynomial(self, self.sorted_terms(cleaned.items()))

    def sorted_terms(self, terms) -> tuple:
        """``(monomial, coefficient)`` pairs in this ring's order, leading first."""
        key = self.order.key
        return tuple(sorted(terms, key=lambda t: key(t[0]), reverse=True))

    def from_string(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def linear_form(self, row) -> "Polynomial":
        """sum_i row[i] * x_i: the inverse of ``geometry.graded_piece_rows`` in
        degree 1, whose columns are x_0..x_{n-1} in this order."""
        n = self.nvars
        return self.from_dict({tuple(int(j == i) for j in range(n)): c for i, c in enumerate(row)})


class Polynomial:
    """Immutable sparse polynomial: sorted ((exponents, coefficient), ...)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext, terms):
        self.ring = ring
        self.terms = terms

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def constant_value(self):
        """Coefficient of the constant monomial (zero if absent)."""
        zero_mono = self.ring._zero_mono
        for mono, c in self.terms:
            if mono == zero_mono:
                return c
        return self.ring.field.zero

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(m[i] for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(m) == d for m, _ in self.terms)

    def homogeneous_components(self):
        """Split into homogeneous parts, highest degree first."""
        buckets = {}
        for m, c in self.terms:
            buckets.setdefault(sum(m), {})[m] = c
        return [self.ring.from_dict(buckets[d]) for d in sorted(buckets, reverse=True)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"rings differ: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        acc = dict(self.terms)
        get = acc.get
        for m, c in other.terms:
            prev = get(m)
            acc[m] = c if prev is None else prev + c
        return self._from_sum(acc)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((m, neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        acc = dict(self.terms)
        get = acc.get
        for m, c in other.terms:
            prev = get(m)
            acc[m] = -c if prev is None else prev - c
        return self._from_sum(acc)

    def _from_sum(self, acc):
        """The polynomial of a ``{monomial: coefficient}`` dict of plain sums
        and differences of canonical coefficients."""
        ring = self.ring
        return Polynomial(ring, ring.sorted_terms(_reduced(acc, ring.field.char)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        return Polynomial(ring, ring.sorted_terms(_product(self.terms, other.terms, ring.field.char)))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        field = self.ring.field
        c = field.coerce(c)
        if c == field.zero:
            return self.ring.zero()
        mul = field.mul
        return Polynomial(self.ring, tuple((m, mul(coef, c)) for m, coef in self.terms))

    def monic(self):
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return self.ring.one()
        ring = self.ring
        return Polynomial(ring, ring.sorted_terms(_power(self.terms, n, ring.field.char)))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- substitution / evaluation -----------------------------------------

    def evaluate(self, point):
        """Evaluate at a tuple of field elements, with plain int (over F_p)
        or ``Fraction`` (over Q) operators: over F_p each factor is reduced
        mod p once and the sum once at the end."""
        field = self.ring.field
        p = field.char
        point = [field.coerce(v) for v in point]
        total = field.zero
        for m, c in self.terms:
            for i, e in enumerate(m):
                if e:
                    x = point[i]
                    if p:
                        c = c * (x if e == 1 else pow(x, e, p)) % p
                    else:
                        c *= x if e == 1 else x**e
            total += c
        return total % p if p else total

    def substitute(self, images, target: RingContext | None = None) -> "Polynomial":
        """Map variable i to ``images[i]`` (a Polynomial of the target ring)."""
        target = target if target is not None else images[0].ring
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        field = target.field
        if field != self.ring.field:
            raise RingMismatchError("cannot move coefficients between different fields")
        p = field.char
        acc = {}
        # image powers as raw term lists, per variable and exponent
        powers = [{} for _ in images]
        one = ((target._zero_mono, field.one),)
        for m, c in self.terms:
            part = one
            for i, e in enumerate(m):
                if not e:
                    continue
                powed = powers[i].get(e)
                if powed is None:
                    powed = powers[i][e] = _power(images[i].terms, e, p)
                part = powed if part is one else _product(part, powed, p)
            for mono, d in part:
                prev = acc.get(mono)
                acc[mono] = c * d if prev is None else prev + c * d
        return Polynomial(target, target.sorted_terms(_reduced(acc, p)))

    def derivative(self, i: int) -> "Polynomial":
        field = self.ring.field
        out = {}
        for m, c in self.terms:
            e = m[i]
            if not e:
                continue
            new = list(m)
            new[i] = e - 1
            v = field.mul(c, field.coerce(e))
            if v != field.zero:
                out[tuple(new)] = v
        return self.ring.from_dict(out)

    # -- pretty printing ----------------------------------------------------

    def __repr__(self):
        return self.to_string()

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for m, c in self.terms:
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            cstr = str(c)
            if factors and cstr == "1":
                body = "*".join(factors)
            elif factors and cstr == "-1":
                body = "-" + "*".join(factors)
            elif factors:
                body = cstr + "*" + "*".join(factors)
            else:
                body = cstr
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out


def _product(terms1, terms2, p):
    """Terms of the product of two term lists, unsorted: each coefficient a
    sum of plain products, reduced mod ``p`` (0 over Q) once at the end."""
    acc = {}
    get = acc.get
    for m1, c1 in terms1:
        for m2, c2 in terms2:
            m = tuple(map(add, m1, m2))
            prev = get(m)
            acc[m] = c1 * c2 if prev is None else prev + c1 * c2
    return _reduced(acc, p)


def _reduced(acc, p):
    """Nonzero terms of the ``{monomial: coefficient}`` dict ``acc``,
    unsorted, reduced mod ``p`` (0 over Q)."""
    if p:
        return [(m, r) for m, c in acc.items() if (r := c % p)]
    return [(m, c) for m, c in acc.items() if c]


def _power(terms, n, p):
    """Term list of the n-th power (n >= 1) by repeated squaring, unsorted."""
    result = None
    while True:
        if n & 1:
            result = terms if result is None else _product(result, terms, p)
        n >>= 1
        if not n:
            return result
        terms = _product(terms, terms, p)


def monomials_of_degree(n: int, d: int):
    """Exponent vectors of degree d in n variables, first exponent ascending."""
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in monomials_of_degree(n - 1, d - e):
            out.append((e,) + rest)
    return out


# -- parsing ----------------------------------------------------------------


def parse_polynomial(text: str, ring: RingContext) -> Polynomial:
    """Parse ``text`` against the grammar

        poly   := ['+'|'-'] term (('+'|'-') term)*
        term   := coeff ('*' varpow)* | varpow ('*' varpow)*
        varpow := name ('^' uint)?
        coeff  := int | int '/' uint

    Rational literals are rejected in prime-field rings.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return _Parser(tokens, ring, len(text)).parse()


class _Parser:
    def __init__(self, tokens, ring, end):
        self.tokens = tokens
        self.ring = ring
        self.end = end
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.ring.zero()
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        elif kind is None:
            raise ParseError("empty polynomial", pos)
        while True:
            term = self.parse_term(pos)
            result = result + (term if sign == 1 else -term)
            kind, val, pos = self.peek()
            if kind is None:
                return result
            if kind != "op" or val not in "+-":
                raise ParseError(f"expected '+' or '-', found {val!r}", pos)
            self.next()
            sign = -1 if val == "-" else 1

    def parse_term(self, start_pos) -> Polynomial:
        kind, val, pos = self.peek()
        if kind == "int":
            factor = self.parse_coeff()
        elif kind == "name":
            factor = self.parse_varpow()
        else:
            raise ParseError("expected a coefficient or a variable", pos)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                factor = factor * self.parse_varpow()
            else:
                return factor

    def parse_coeff(self) -> Polynomial:
        kind, val, pos = self.next()
        num = int(val)
        kind2, val2, pos2 = self.peek()
        if kind2 == "op" and val2 == "/":
            self.next()
            kind3, val3, pos3 = self.next()
            if kind3 != "int":
                raise ParseError("expected an integer denominator", pos3)
            den = int(val3)
            if den == 0:
                raise ParseError("zero denominator", pos3)
            if isinstance(self.ring.field, PrimeField):
                raise ParseError("rational literal not allowed in prime-field ring", pos)
            return self.ring.constant(self.ring.field.from_rational(num, den))
        return self.ring.constant(num)

    def parse_varpow(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind != "name":
            raise ParseError("expected a variable name", pos)
        try:
            idx = self.ring.var_index(val)
        except CoefficientError:
            raise ParseError(f"unknown variable {val!r}", pos) from None
        kind2, val2, _ = self.peek()
        exp = 1
        if kind2 == "op" and val2 == "^":
            self.next()
            kind3, val3, pos3 = self.next()
            if kind3 != "int":
                raise ParseError("expected an integer exponent", pos3)
            exp = int(val3)
        mono = tuple(exp if j == idx else 0 for j in range(self.ring.nvars))
        return self.ring.monomial(mono)
