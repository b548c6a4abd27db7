import time
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci.kernel import QQ, DegenerateInputError, Ideal, PrimeField, RingContext, groebner_basis
from entryloci.kernel import ideals, zerodim
from entryloci.kernel.ideals import normal_form
from entryloci.kernel.linalg import rref
from entryloci.kernel.orders import GREVLEX
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_degree, u_roots_prime_field, u_squarefree_part

FP = PrimeField(2147483659)
RING = RingContext(("x", "y", "z"), FP)


def _pin_incrementally(gb, rng):
    """The former route: pin one coordinate at a time, adding x_i - root and
    recomputing the basis before reading the next coordinate."""
    ring = gb.ring
    field = ring.field
    gens = list(gb.basis)
    coords = []
    for i in range(ring.nvars):
        current = groebner_basis(Ideal.of(ring, gens), GREVLEX)
        if current.is_unit():
            raise DegenerateInputError("inconsistent system while pinning coordinates")
        mp = zerodim.minimal_polynomial_of(ring.variable(i), current)[0]
        sf = u_squarefree_part(mp, field)
        roots = u_roots_prime_field(sf, field, rng)
        if u_degree(sf) != 1 or len(roots) != 1:
            return None
        coords.append(roots[0])
        gens.append(ring.variable(i) - ring.constant(roots[0]))
    return coords


def _basis(*gens):
    return groebner_basis(Ideal.of(RING, [RING.from_string(g) for g in gens]), GREVLEX)


def _both_routes(gb, tag):
    """Pin with both routes on equal seeded streams; the streams must end in
    the same state (the same draws were made)."""
    new_rng, old_rng = seeded_rng(tag), seeded_rng(tag)
    new = zerodim._pin_coordinates(gb, new_rng)
    old = _pin_incrementally(gb, old_rng)
    assert new_rng.getstate() == old_rng.getstate()
    return new, old


# three rational points, separated by x: (1, 2, 0), (2, 5, -2), (3, 10, -6)
RADICAL = ("x^3 - 6*x^2 + 11*x - 6", "y - x^2 - 1", "z - x + y - 1")


@pytest.mark.parametrize("root", [1, 2, 3])
def test_pin_matches_incremental_route_on_radical_points(root):
    gb = _basis(*RADICAL, f"x - {root}")
    new, old = _both_routes(gb, ("pin-radical", root))
    assert new == old
    x = FP.coerce(root)
    y = FP.add(FP.mul(x, x), FP.one)
    assert new == [x, y, FP.add(FP.sub(x, y), FP.one)]


def test_enumeration_matches_incremental_route(monkeypatch):
    gb = _basis(*RADICAL)
    new = zerodim.enumerate_points_prime_field(gb, seeded_rng("pin-enum"))
    monkeypatch.setattr(zerodim, "_pin_coordinates", _pin_incrementally)
    old = zerodim.enumerate_points_prime_field(gb, seeded_rng("pin-enum"))
    assert new == old
    assert sorted(p[0] for p in new) == [FP.coerce(1), FP.coerce(2), FP.coerce(3)]


def test_pin_matches_incremental_route_on_double_point():
    # the point (1, 2, 3) with multiplicity 2: minimal polynomials are not
    # squarefree, their squarefree parts are linear
    gb = _basis("x^2 - 2*x + 1", "y - 2*x", "z - x - y")
    new, old = _both_routes(gb, "pin-double")
    assert new == old == [FP.coerce(1), FP.coerce(2), FP.coerce(3)]


def test_pin_refuses_two_points_in_both_routes():
    # a separating value that covers two points: x is shared, y is not
    gb = _basis("x - 3", "y^2 - 1", "z - y")
    new, old = _both_routes(gb, "pin-two")
    assert new is None and old is None


# -- the shape-position read-out against the per-root path --------------------

_PIN = zerodim._pin_coordinates


def _ref_enumerate(gb, rng, require_all):
    """The per-root path for every system: for each rational root tau of the
    separating form t, a Groebner basis of I + (t - tau), then its point
    pinned one coordinate at a time."""
    ring = gb.ring
    field = ring.field
    sep = zerodim.random_linear_combination(ring, rng)
    sf = u_squarefree_part(zerodim.minimal_polynomial_of(sep, gb)[0], field)
    roots = u_roots_prime_field(sf, field, rng)
    if require_all and len(roots) != u_degree(sf):
        return None
    points = []
    for tau in roots:
        sub = groebner_basis(Ideal.of(ring, list(gb.basis) + [sep - ring.constant(tau)]))
        coords = _PIN(sub, rng)
        if coords is None:
            if require_all:
                return None
            continue
        points.append(tuple(coords))
    return points


@pytest.fixture
def pin_calls(monkeypatch):
    """Count the calls of the per-root fallback inside the enumeration."""
    calls = []

    def counted(gb, rng):
        calls.append(gb)
        return _PIN(gb, rng)

    monkeypatch.setattr(zerodim, "_pin_coordinates", counted)
    return calls


def _against_reference(gb, tag, require_all):
    new_rng, ref_rng = seeded_rng(tag), seeded_rng(tag)
    new = zerodim.enumerate_points_prime_field(gb, new_rng, require_all)
    ref = _ref_enumerate(gb, ref_rng, require_all)
    assert new == ref
    assert new_rng.getstate() == ref_rng.getstate()
    return new


def _radical_basis(seed, irrational):
    """Distinct points in shape position along x (y = g(x), z = h(x)), x over
    random rational values and, with ``irrational``, over both roots of x^2 - a
    for a non-residue a; moved by a unitriangular change of coordinates so
    that no variable alone separates them."""
    rng = seeded_rng("radical-basis", seed, irrational)
    x, y, z = RING.gens()
    xs = rng.sample(range(-20, 20), rng.randint(1, 3))
    f = RING.one()
    for r in xs:
        f = f * (x - RING.constant(r))
    if irrational:
        p = FP.p
        a = next(a for a in range(2, 100) if pow(a, (p - 1) // 2, p) == p - 1)
        f = f * (x * x - RING.constant(a))
    deg = len(xs) + 2 * irrational

    def in_x():
        return sum((RING.constant(rng.randint(-9, 9)) * x**k for k in range(deg)), RING.zero())

    c = [RING.constant(rng.randint(1, 9)) for _ in range(3)]
    images = [x + c[0] * y + c[1] * z, y + c[2] * z, z]
    gens = [g.substitute(images, RING) for g in (f, y - in_x(), z - in_x())]
    return groebner_basis(Ideal.of(RING, gens), GREVLEX), deg, len(xs)


@pytest.mark.parametrize("require_all", [True, False])
@pytest.mark.parametrize("irrational", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shape_position_matches_per_root_path(seed, irrational, require_all, pin_calls):
    gb, deg, rational = _radical_basis(seed, irrational)
    assert len(gb.staircase) == deg
    points = _against_reference(gb, ("shape", seed, irrational, require_all), require_all)
    assert not pin_calls  # every point was read off the Krylov basis
    if require_all and irrational:
        assert points is None
    else:
        assert len(points) == rational
        assert all(g.evaluate(pt) == 0 for pt in points for g in gb.basis)


@pytest.mark.parametrize("require_all", [True, False])
def test_double_point_takes_the_per_root_path(require_all, pin_calls):
    gb = _basis("x^2 - 2*x + 1", "y - 2*x", "z - x - y")
    points = _against_reference(gb, ("double", require_all), require_all)
    assert points == [(FP.coerce(1), FP.coerce(2), FP.coerce(3))]
    assert len(pin_calls) == 1


@pytest.mark.parametrize("require_all", [True, False])
def test_form_that_does_not_separate_takes_the_per_root_path(
    require_all, pin_calls, monkeypatch
):
    # three points (1, 0, 0), (2, 1, 1), (2, -1, -1); the form x sees two values
    gb = _basis("x^2 - 3*x + 2", "x*y - 2*y", "y^2 - x + 1", "z - y")
    monkeypatch.setattr(zerodim, "random_linear_combination", lambda ring, _: ring.variable(0))
    points = _against_reference(gb, ("not-separating", require_all), require_all)
    assert points == (None if require_all else [(FP.coerce(1), 0, 0)])
    assert len(pin_calls) == 2


# -- the Krylov minimal polynomial against the former per-power solve ---------


def _ref_solve(rows, rhs, field):
    """One solution of A x = b (free variables zero), or None."""
    n = len(rows[0])
    red, piv = rref([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if piv and piv[-1] == n:
        return None
    x = [field.zero] * n
    for row_idx, pc in enumerate(piv):
        x[pc] = red[row_idx][n]
    return x


def _ref_krylov(f, gb, monos):
    """The former loop: one solve against the lower powers for every new
    power of f, until one depends on them."""
    field = gb.ring.field
    index = {m: i for i, m in enumerate(monos)}
    power = gb.ring.one()
    vectors = [zerodim._nf_vector(power, gb, index)]
    while True:
        power = normal_form(power * f, gb)
        vec = [field.zero] * len(monos)
        for m, c in power.terms:
            vec[index[m]] = c
        sol = _ref_solve(list(map(list, zip(*vectors))), vec, field)
        if sol is not None:
            return [field.neg(c) for c in sol] + [field.one], vectors
        vectors.append(vec)


@cache
def _krylov_systems():
    """The systems built above, and the three radical points over Q."""
    ring_q = RingContext(("x", "y", "z"), QQ)
    gbs = [
        _basis(*RADICAL),
        _basis("x^2 - 2*x + 1", "y - 2*x", "z - x - y"),
        _basis("x - 3", "y^2 - 1", "z - y"),
        _basis("x^2 - 3*x + 2", "x*y - 2*y", "y^2 - x + 1", "z - y"),
        groebner_basis(Ideal.of(ring_q, [ring_q.from_string(g) for g in RADICAL]), GREVLEX),
    ]
    gbs += [_radical_basis(seed, irr)[0] for seed in (1, 2, 3) for irr in (False, True)]
    return [(gb, gb.staircase) for gb in gbs]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_krylov_matches_per_power_solve(data):
    gb, monos = data.draw(st.sampled_from(_krylov_systems()))
    ring = gb.ring
    # a small polynomial of degree <= 2: the zero and constant elements included
    exponents = [(a, b, c) for a in range(3) for b in range(3 - a) for c in range(3 - a - b)]
    terms = data.draw(st.dictionaries(st.sampled_from(exponents), st.integers(-5, 5), max_size=4))
    f = ring.from_dict(terms)
    mp, vectors = zerodim.minimal_polynomial_of(f, gb)
    assert (mp, vectors) == _ref_krylov(f, gb, monos)
    assert len(mp) == len(vectors) + 1 <= len(monos) + 1


def test_krylov_of_each_variable_matches_per_power_solve():
    for gb, monos in _krylov_systems():
        for i in range(gb.ring.nvars):
            x = gb.ring.variable(i)
            assert zerodim.minimal_polynomial_of(x, gb) == _ref_krylov(x, gb, monos)


# -- quotient monomials --------------------------------------------------------


def _ref_quotient_monomials(gb):
    """The former box filter: every exponent below the pure-power bounds,
    kept unless a leading monomial divides it."""
    n = gb.ring.nvars
    lts = [g.leading_monomial() for g in gb.basis]
    if any(sum(m) == 0 for m in lts):
        return []
    bounds = [None] * n
    for m in lts:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        return None
    monos = [()]
    for b in bounds:
        monos = [m + (e,) for m in monos for e in range(b)]
    return [m for m in monos if not any(all(a >= b for a, b in zip(m, lt)) for lt in lts)]


def _monomial_basis(nvars, monomials):
    ring = RingContext(tuple(f"x{i}" for i in range(nvars)), FP)
    return groebner_basis(Ideal.of(ring, [ring.monomial(m) for m in monomials]), GREVLEX)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.none(), st.integers(1, 5)), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), max_size=4),
)))
def test_quotient_walk_matches_box_filter(case):
    powers, mixed = case
    n = len(powers)
    monomials = [tuple(b * (j == i) for j in range(n)) for i, b in enumerate(powers) if b]
    gb = _monomial_basis(n, monomials + [tuple(m) for m in mixed])
    assert gb.staircase == _ref_quotient_monomials(gb)


def test_quotient_walk_prunes_before_the_box():
    # x_i^10 and x_i*x_j in 6 variables: 55 monomials in a box of 10^6
    n = 6
    monomials = [tuple(10 * (j == i) for j in range(n)) for i in range(n)]
    monomials += [tuple(int(k in (i, j)) for k in range(n)) for i in range(n) for j in range(i)]
    gb = _monomial_basis(n, monomials)
    start = time.perf_counter()
    monos = gb.staircase
    assert time.perf_counter() - start < 0.1
    assert len(monos) == 55 and monos == sorted(monos)


def test_quotient_over_the_cap_raises_while_walking():
    # x_i^20 in 6 variables: 64M monomials, far over QUOTIENT_CAP
    gb = _monomial_basis(6, [tuple(20 * (j == i) for j in range(6)) for i in range(6)])
    start = time.perf_counter()
    with pytest.raises(DegenerateInputError):
        gb.staircase
    assert time.perf_counter() - start < 1.0
    # the cap is exact: x^cap has cap monomials below it, x^(cap + 1) one more
    cap = ideals.QUOTIENT_CAP
    assert len(_monomial_basis(1, [(cap,)]).staircase) == cap
    with pytest.raises(DegenerateInputError):
        _monomial_basis(1, [(cap + 1,)]).staircase
