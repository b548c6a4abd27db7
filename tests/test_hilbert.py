from fractions import Fraction

import pytest

from entryloci.kernel import QQ, HomogeneityError, Ideal, PrimeField, RingContext
from entryloci.kernel.hilbert import hilbert_invariants
from entryloci.kernel.rng import seeded_rng
from helpers import reduce_mod


def twisted_cubic(ring):
    x0, x1, x2, x3 = ring.gens()
    return Ideal.of(ring, [x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3])


def test_twisted_cubic_invariants():
    ring = RingContext(("x0", "x1", "x2", "x3"), QQ)
    inv = hilbert_invariants(twisted_cubic(ring))
    assert (inv.dimension, inv.degree, inv.arithmetic_genus) == (1, 3, 0)
    assert inv.hilbert_polynomial == (Fraction(1), Fraction(3))


def test_complete_intersection_of_two_quadrics():
    # Koszul oracle: HS = (1 - t^2)^2 / (1 - t)^4 = (1 + t)^2 / (1 - t)^2,
    # so HF(k) = 4k for large k and HP has constant term 0, genus 1
    ring = RingContext(("x0", "x1", "x2", "x3"), QQ)
    rng = seeded_rng("hilbert-ci", 3)
    from entryloci.catalog import _random_form

    inv = hilbert_invariants(
        Ideal.of(ring, [_random_form(ring, 2, rng), _random_form(ring, 2, rng)])
    )
    assert (inv.dimension, inv.degree) == (1, 4)
    assert inv.hilbert_polynomial == (Fraction(0), Fraction(4))
    assert inv.arithmetic_genus == 1


def test_irrelevant_ideal_is_empty():
    ring = RingContext(("x0", "x1", "x2"), QQ)
    inv = hilbert_invariants(Ideal.of(ring, ring.gens()))
    assert (inv.dimension, inv.degree) == (-1, 0)


def test_double_line_scheme_degree():
    ring = RingContext(("x0", "x1", "x2"), QQ)
    inv = hilbert_invariants(Ideal.of(ring, [ring.from_string("x0^2")]))
    assert (inv.dimension, inv.degree) == (1, 2)


def test_rejects_inhomogeneous_input():
    ring = RingContext(("x0", "x1"), QQ)
    with pytest.raises(HomogeneityError):
        hilbert_invariants(Ideal.of(ring, [ring.from_string("x0^2 - x1")]))


def test_invariance_under_coordinate_change():
    ring = RingContext(("x0", "x1", "x2", "x3"), QQ)
    base = twisted_cubic(ring)
    inv0 = hilbert_invariants(base)
    from entryloci.geometry import apply_linear_substitution, random_invertible_matrix

    rng = seeded_rng("hilbert-change", 1)
    for _ in range(3):
        m = random_invertible_matrix(QQ, rng, 4)
        inv1 = hilbert_invariants(apply_linear_substitution(base, m))
        assert (inv1.dimension, inv1.degree, inv1.hilbert_polynomial) == (
            inv0.dimension,
            inv0.degree,
            inv0.hilbert_polynomial,
        )


def test_rational_and_modular_invariants_agree():
    ring_q = RingContext(("x0", "x1", "x2", "x3"), QQ)
    base = twisted_cubic(ring_q)
    inv_q = hilbert_invariants(base)
    for p in (2147483659, 2147484043):
        ring_p = RingContext(ring_q.names, PrimeField(p))
        mod = Ideal.of(ring_p, [reduce_mod(g, ring_p) for g in base.gens])
        inv_p = hilbert_invariants(mod)
        assert (inv_p.dimension, inv_p.degree, inv_p.hilbert_polynomial) == (
            inv_q.dimension,
            inv_q.degree,
            inv_q.hilbert_polynomial,
        )
