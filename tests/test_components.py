"""The factor stage against its former routes (``helpers._ref_*``): the line
certificate for squarefreeness, Gao's count by rank over F_p and modulo
primes over Q, and the factor degrees from one resultant."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci import entry_locus
from entryloci.catalog import build_catalog_variety
from entryloci.entry_locus import component_count, entry_locus_ideal
from entryloci.geometry import random_point, reduced_dim_degree
from entryloci.kernel import QQ, NotSquarefreeError, PrimeField, RingContext
from entryloci.kernel import factor
from entryloci.kernel.factor import (
    absolute_factor_count,
    absolute_factor_degrees,
    is_squarefree,
    squarefree_part,
)
from entryloci.kernel.rng import seeded_rng
from entryloci.suite import resolve_field
from helpers import (
    _ref_absolute_factor_degrees,
    _ref_factor_count,
    _ref_is_squarefree,
    _ref_pde_matrix,
    _ref_squarefree_part,
    reduce_mod,
)

FP = resolve_field("fp:auto", 1)
FIELDS = [FP, QQ]
FIELD_IDS = ["fp:auto", "Q"]

_LINE = [(1, 0), (0, 1), (0, 0)]
_CONIC = [(2, 0), (1, 1), (0, 2)] + _LINE


def _coefficient(field):
    if field.char:
        return st.integers(0, field.char - 1)
    small = st.integers(-5, 5)
    return st.one_of(small, st.builds(Fraction, small, st.integers(1, 7)))


def _planted(field):
    """(kind, coefficients, multiplicity): a line or a conic that is not
    constant, taken once or twice."""
    def factor_of(monos):
        return st.lists(_coefficient(field), min_size=len(monos), max_size=len(monos)).filter(
            lambda cs: any(c for c in cs[:-1])
        ).map(lambda cs: dict(zip(monos, cs)))

    return st.tuples(st.one_of(factor_of(_LINE), factor_of(_CONIC)), st.integers(1, 2))


def _product(ring, planted):
    f = ring.one()
    for terms, e in planted:
        f = f * ring.from_dict(terms) ** e
    return f


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_planted_products_match_the_former_routes(field, data):
    ring = RingContext(("x", "y"), field)
    planted = data.draw(st.lists(_planted(field), min_size=1, max_size=3))
    f = _product(ring, planted)
    if f.total_degree() > 6:
        return
    assert squarefree_part(f) == _ref_squarefree_part(f)
    assert is_squarefree(f) == _ref_is_squarefree(f)
    if not _ref_is_squarefree(f):
        with pytest.raises(NotSquarefreeError):
            absolute_factor_count(f)
        return
    if f.degree_in(0) >= 1 and f.degree_in(1) >= 1:
        _assert_same_gao_matrix(f)
    count = absolute_factor_count(f, seeded_rng("planted", 1))
    assert count == _ref_factor_count(f, seeded_rng("planted", 1))
    if all(len(terms) <= 3 and set(terms) <= set(_LINE) for terms, _ in planted):
        assert count == len(planted)  # distinct lines: one component each
    if field.char:
        degrees = absolute_factor_degrees(f, seeded_rng("planted", 2))
        assert degrees == _ref_absolute_factor_degrees(f, seeded_rng("planted", 2))
        assert sum(degrees) == f.total_degree() and len(degrees) == count


def _assert_same_gao_matrix(f):
    """The matrix written down from f's terms is the one the polynomial
    products give, up to row order and, over Q, one nonzero scale."""
    rows, unknowns = factor._gao_rows(f)
    matrix, g_monos, h_monos = _ref_pde_matrix(f)
    ref_unknowns = [(0, i, j) for i, j in g_monos] + [(1, i, j) for i, j in h_monos]
    ours = sorted(sorted((unknowns[j], x) for j, x in row.items()) for row in rows)
    theirs = sorted(sorted((u, x) for u, x in zip(ref_unknowns, row) if x) for row in matrix)
    if not f.ring.field.char:
        scale = Fraction(ours[0][0][1]) / theirs[0][0][1]
        theirs = sorted(sorted((u, x * scale) for u, x in row) for row in theirs)
    assert ours == theirs


# -- forced unlucky lines and primes ------------------------------------------


def _recording_chain(monkeypatch):
    chains = []
    real = factor._repeated_part
    monkeypatch.setattr(factor, "_repeated_part", lambda f: chains.append(f) or real(f))
    return chains


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_an_unlucky_line_falls_back_to_the_chain(field, monkeypatch):
    ring = RingContext(("x", "y"), field)
    chains = _recording_chain(monkeypatch)
    hyperbola = ring.from_string("x^2 - y^2 + x + 1")
    parabola = ring.from_string("y - x^2")
    assert factor._line_certifies(hyperbola) and factor._line_certifies(parabola)
    assert squarefree_part(hyperbola) == hyperbola.monic() and not chains
    # the top form x^2 - y^2 vanishes at slope 1: the restriction drops degree
    monkeypatch.setattr(factor, "_squarefree_line", lambda p: (1, 5))
    assert not factor._line_certifies(hyperbola)
    assert squarefree_part(hyperbola) == _ref_squarefree_part(hyperbola) == hyperbola.monic()
    assert is_squarefree(hyperbola) and len(chains) == 3  # one of them the reference's
    # y = 2t - 1 is tangent to y = x^2: the restriction is -(t - 1)^2
    monkeypatch.setattr(factor, "_squarefree_line", lambda p: (2, p - 1))
    assert not factor._line_certifies(parabola)
    assert squarefree_part(parabola) == _ref_squarefree_part(parabola) == parabola.monic()
    assert is_squarefree(parabola) and len(chains) == 6


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("line", [None, (1, 0), (3, 7)])
def test_the_line_never_certifies_a_square(field, line, monkeypatch):
    ring = RingContext(("x", "y"), field)
    if line is not None:
        monkeypatch.setattr(factor, "_squarefree_line", lambda p: line)
    for f in (
        ring.from_string("x - y + 3") ** 2 * ring.from_string("x + 2*y"),
        ring.from_string("x^2 + y^2 - 1") ** 2,
        ring.from_string("x*y - 1") * ring.from_string("y + 4") ** 3,
    ):
        assert not factor._line_certifies(f)
        assert squarefree_part(f) == _ref_squarefree_part(f)
        assert not is_squarefree(f)


def test_a_prime_dividing_a_denominator_is_skipped():
    ring = RingContext(("x", "y"), QQ)
    p0 = factor._large_prime(0)
    f = ring.from_dict({(2, 0): Fraction(1, p0), (0, 2): 1, (0, 0): -1})
    assert factor._line_field(f)[0].p == factor._large_prime(1)
    assert factor._line_certifies(f)
    assert squarefree_part(f) == _ref_squarefree_part(f)


def test_a_prime_dropping_the_degree_refuses(monkeypatch):
    ring = RingContext(("x", "y"), QQ)
    chains = _recording_chain(monkeypatch)
    f = ring.from_dict({(3, 0): factor._large_prime(0), (0, 2): 1, (0, 0): -1})
    assert not factor._line_certifies(f)
    assert squarefree_part(f) == f.monic() and len(chains) == 1
    assert _ref_squarefree_part(f) == f.monic()


@pytest.mark.parametrize("extra_lines, count", [(0, 1), (1, 2)])
def test_an_unlucky_count_prime_is_dropped(extra_lines, count, monkeypatch):
    # modulo 1000003 the hyperbola splits into two lines: the nullity there
    # is one too large, and the next prime's smaller nullity replaces it
    ring = RingContext(("x", "y"), QQ)
    f = ring.from_string("y^2 - x^2 - 1000003") * ring.from_string("x + 2*y + 3") ** extra_lines
    real = factor._large_prime
    seen = []
    monkeypatch.setattr(factor, "_large_prime", lambda k: seen.append(k) or (1000003 if k == 0 else real(k)))
    assert absolute_factor_count(f) == count == _ref_factor_count(f)
    assert absolute_factor_count(f) == count
    assert 0 in seen and 1 in seen


def test_pivot_columns_of_an_unlucky_prime_are_replaced(monkeypatch):
    # [q, 1, 0, 0] has its pivot in column 0 over Q but in column 1 modulo
    # q; the nullity is 3 either way, and the lift from the later prime's
    # pivots is the one that solves the system
    q = 1000003
    real = factor._large_prime
    monkeypatch.setattr(factor, "_large_prime", lambda k: q if k == 0 else real(k))
    assert factor._rational_nullity([{0: q, 1: 1}], 4) == 3
    assert factor._rational_nullity([{0: q, 1: 1}, {2: 2 * q, 3: q + 1}], 4) == 2
    # modulo q the first row vanishes: its exact lift e_0, e_2 fails the
    # check over Z, and the next prime's nullity 1 decides
    assert factor._rational_nullity([{0: q, 2: q}, {1: 1}], 3) == 1


def test_a_lift_is_checked_against_the_integer_system():
    assert factor._solves([{0: 2, 1: -1}], [1, 2])
    assert not factor._solves([{0: 2, 1: -1}], [1, Fraction(1, 2)])
    assert factor._rational(pow(3, -1, 10**9 + 7) * 2 % (10**9 + 7), 10**9 + 7) == Fraction(2, 3)


# -- every catalog model ------------------------------------------------------


def _seed1_model(key, field, monkeypatch):
    """(the plane polynomial handed to squarefree_part, the count, the model)
    of the seed-1 entry locus's component count."""
    var = build_catalog_variety(key, 1, field)
    rng = seeded_rng(("entrylocus-q", key, 1, 0))
    q = random_point(field, rng, var.ambient + 1, off_coordinate_hyperplanes=True)
    locus = entry_locus_ideal(var, q)
    degree = reduced_dim_degree(locus, 1)[1]
    inputs = []
    real = entry_locus.squarefree_part
    monkeypatch.setattr(entry_locus, "squarefree_part", lambda f: inputs.append(f) or real(f))
    count, model = component_count(locus, 1, degree)
    return inputs[-1], count, model


CATALOG_MODELS = [
    ("scroll12", FP, 1), ("cone_twisted_cubic", FP, 2), ("veronese_proj4", FP, 3),
    ("delpezzo4", FP, 1), ("k3_23", FP, 1),
    ("scroll12", QQ, 1), ("cone_twisted_cubic", QQ, 2), ("veronese_proj4", QQ, 3),
]


@pytest.mark.parametrize(
    "key, field, components", CATALOG_MODELS,
    ids=[f"{k}-{'Q' if f is QQ else 'fp:auto'}" for k, f, _ in CATALOG_MODELS],
)
def test_every_catalog_model_matches_the_former_routes(key, field, components, monkeypatch):
    chains = _recording_chain(monkeypatch)
    f, count, model = _seed1_model(key, field, monkeypatch)
    assert count == components
    assert model == squarefree_part(f) and factor._line_certifies(f) and not chains
    rng = seeded_rng("catalog-model", key)
    if key == "veronese_proj4" and field is QQ:
        # the former routes take about 45 s here (ROADMAP baseline); sympy
        # decides squarefreeness, and the reference counts modulo a prime
        x, y = sympy.symbols("x y")
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**a * y**b for (a, b), c in f.terms)
        assert [e for _, e in sympy.Poly(expr, x, y).sqf_list()[1]] == [1]
        reduced = reduce_mod(model, RingContext(model.ring.names, PrimeField(factor._large_prime(0))))
        assert _ref_factor_count(reduced, rng) == count
        return
    assert model == _ref_squarefree_part(f)
    assert count == _ref_factor_count(model, rng)
    if field.char and key != "k3_23":
        degrees = absolute_factor_degrees(model, seeded_rng("catalog-degrees", key))
        assert degrees == _ref_absolute_factor_degrees(model, seeded_rng("catalog-degrees", key))
