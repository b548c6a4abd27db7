import pytest

from entryloci.kernel import (
    QQ,
    Ideal,
    RingContext,
    eliminate,
    groebner_basis,
    ideal_contains,
    in_irrelevant_saturation,
    intersect,
    radical_membership,
    saturate,
    saturate_single,
    saturate_wrt_variable,
)
from entryloci.kernel import ideals
from entryloci.kernel.orders import GREVLEX, Block
from helpers import same_saturation


@pytest.fixture
def rxyz():
    return RingContext(("x", "y", "z"), QQ)


def test_saturate_component_removal(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x*y")])
    J = Ideal.of(rxyz, [rxyz.from_string("x")])
    out = saturate(I, J)
    assert [g.to_string() for g in out.gens] == ["y"]


def test_saturate_kills_embedded_power(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x^2")])
    J = Ideal.of(rxyz, [rxyz.from_string("x")])
    out = saturate(I, J)
    assert [g.to_string() for g in out.gens] == ["1"]


def test_saturate_removes_plane(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x*z"), rxyz.from_string("y*z")])
    J = Ideal.of(rxyz, [rxyz.from_string("z")])
    out = saturate(I, J)
    assert sorted(g.to_string() for g in out.gens) == ["x", "y"]


def test_saturation_contains_and_idempotent(rxyz):
    I = Ideal.of(
        rxyz,
        [rxyz.from_string("x*z"), rxyz.from_string("y*z"), rxyz.from_string("x^2*y")],
    )
    J = Ideal.of(rxyz, [rxyz.from_string("z"), rxyz.from_string("x")])
    s1 = saturate(I, J)
    gb1 = groebner_basis(s1)
    # saturate(I, J) contains I
    assert ideal_contains(gb1, I)
    s2 = saturate(s1, J)
    gb2 = groebner_basis(s2)
    assert ideal_contains(gb1, s2) and ideal_contains(gb2, s1)


def test_eliminate_identity_case(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x^2 - y"), rxyz.from_string("z - x")])
    out = eliminate(I, 0)
    gb = groebner_basis(I, GREVLEX)
    assert set(g.to_string() for g in out.gens) == set(g.to_string() for g in gb.basis)


def test_eliminate_membership(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x - y^2"), rxyz.from_string("z - y^3")])
    # eliminate y... reorder so the eliminated variable comes first
    ring = RingContext(("y", "x", "z"), QQ)
    I2 = Ideal.of(ring, [ring.from_string("x - y^2"), ring.from_string("z - y^3")])
    out = eliminate(I2, 1)
    gb_full = groebner_basis(I2)
    lifted = Ideal.of(
        ring, [ring.from_dict({(0,) + m: c for m, c in g.terms}) for g in out.gens]
    )
    assert ideal_contains(gb_full, lifted)


def test_intersect_two_point_ideals(rxyz):
    a = Ideal.of(rxyz, [rxyz.from_string("x"), rxyz.from_string("y")])
    b = Ideal.of(rxyz, [rxyz.from_string("x"), rxyz.from_string("z")])
    both = intersect(a, b)
    gb = groebner_basis(both)
    from entryloci.kernel import normal_form

    assert normal_form(rxyz.from_string("x"), gb).is_zero()
    assert normal_form(rxyz.from_string("y*z"), gb).is_zero()
    assert not normal_form(rxyz.from_string("y"), gb).is_zero()


def test_saturate_wrt_variable_matches_generic_saturation(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x*z"), rxyz.from_string("y*z^2")])
    bayer = saturate_wrt_variable(I, 2)
    generic = saturate_single(I, rxyz.from_string("z"))
    assert same_saturation(bayer, generic)
    gb = groebner_basis(bayer)
    assert ideal_contains(gb, generic)


def test_irrelevant_saturation_membership():
    # in k[x, y], (x^2, x*y) has an embedded origin component: saturating by
    # the irrelevant ideal exposes x (but in k[x, y, z] the embedded piece is
    # the whole z-axis and survives)
    rxy = RingContext(("x", "y"), QQ)
    I = Ideal.of(rxy, [rxy.from_string("x^2"), rxy.from_string("x*y")])
    assert in_irrelevant_saturation(rxy.from_string("x"), I)
    assert not in_irrelevant_saturation(rxy.from_string("y"), I)
    rxyz = RingContext(("x", "y", "z"), QQ)
    J = Ideal.of(rxyz, [rxyz.from_string("x^2"), rxyz.from_string("x*y")])
    assert not in_irrelevant_saturation(rxyz.from_string("x"), J)


def test_radical_membership(rxyz):
    I = Ideal.of(rxyz, [rxyz.from_string("x^2")])
    assert radical_membership(rxyz.from_string("x"), I)
    assert not radical_membership(rxyz.from_string("y"), I)


def test_generators_from_another_order_are_resorted(rxyz):
    # y^3 leads in grevlex; under block(1), which eliminates x, x leads
    f = rxyz.from_string("y^3 + x - 2*z")
    block = rxyz.with_order(Block(1))
    want = block.from_dict(dict(f.terms))
    assert f.leading_monomial() == (0, 3, 0) and want.leading_monomial() == (1, 0, 0)
    for ideal in (Ideal.of(block, [f]), Ideal.of(rxyz, [f]).map_ring(block)):
        (g,) = ideal.gens
        assert g.ring == block and g.terms == want.terms
    assert Ideal.of(rxyz, [f]).gens[0] is f


def test_groebner_basis_hands_buchberger_generators_in_ring_order(rxyz, monkeypatch):
    # grevlex generators of an ideal reach a Block(1) buchberger with their
    # terms in Block(1) order, and in the order the grevlex terms sort them
    gens = [rxyz.from_string(t) for t in ("y^3 + x - 2*z", "x*z - y^2", "z^2 + y + 3")]
    seen = []
    real = ideals.buchberger

    def recording(polys, ring):
        seen.append((list(polys), ring))
        return real(polys, ring)

    monkeypatch.setattr(ideals, "buchberger", recording)
    block = rxyz.with_order(Block(1))
    gb = groebner_basis(Ideal.of(rxyz, gens), Block(1))
    ((polys, ring),) = seen
    assert ring == block
    for g in polys:
        assert g.ring == block and g.terms == block.sorted_terms(g.terms)
    order = sorted(gens, key=lambda g: (g.total_degree(), g.terms))
    assert [dict(g.terms) for g in polys] == [dict(g.terms) for g in order]
    assert list(gb.basis) == real([block.from_dict(dict(g.terms)) for g in gens], block)
