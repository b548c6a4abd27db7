import pytest

from entryloci.kernel import DegenerateInputError, Ideal, PrimeField, RingContext, groebner_basis
from entryloci.kernel import zerodim
from entryloci.kernel.orders import GREVLEX
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_degree, u_roots_prime_field, u_squarefree_part

FP = PrimeField(2147483659)
RING = RingContext(("x", "y", "z"), FP)


def _pin_incrementally(gb, rng, budget=None):
    """The former route: pin one coordinate at a time, adding x_i - root and
    recomputing the basis before reading the next coordinate."""
    ring = gb.ring
    field = ring.field
    gens = list(gb.source.gens)
    coords = []
    for i in range(ring.nvars):
        current = groebner_basis(Ideal.of(ring, gens), GREVLEX, budget)
        if current.is_unit():
            raise DegenerateInputError("inconsistent system while pinning coordinates")
        mp = zerodim.minimal_polynomial_of(ring.variable(i), current, budget)
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
    new = zerodim._pin_coordinates(gb, new_rng, None)
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
