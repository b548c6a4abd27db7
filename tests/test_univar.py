"""Modular powering over F_p in plain ints against the field-method route,
and closed-form quadratic roots against Cantor-Zassenhaus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entryloci.kernel import PrimeField
from entryloci.kernel.rng import seeded_rng
from entryloci.kernel.univar import u_divmod, u_mul, u_pow_mod, u_roots_prime_field, u_trim
from helpers import _ref_u_roots_prime_field

PRIMES = (3, 65537, 2**31 - 1, 2**61 - 1)


def _ref_u_pow_mod(base, e, mod, field):
    """base^e mod ``mod`` by field-method products and divisions."""
    result = [field.one]
    base = u_divmod(base, mod, field)[1]
    while e:
        if e & 1:
            result = u_divmod(u_mul(result, base, field), mod, field)[1]
        e >>= 1
        if e:
            base = u_divmod(u_mul(base, base, field), mod, field)[1]
    return result


@st.composite
def _cases(draw):
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    deg = draw(st.integers(1, 8))
    # the leading coefficient need not be 1
    mod = draw(st.lists(coeff, min_size=deg, max_size=deg)) + [draw(st.integers(1, p - 1))]
    base = u_trim(draw(st.lists(coeff, max_size=deg + 5)), PrimeField(p))
    e = draw(st.one_of(
        st.sampled_from((0, 1, p, (p - 1) // 2)),
        st.integers(0, 2**70),
    ))
    return p, base, e, mod


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cases())
def test_pow_mod_matches_field_method_reference(case):
    p, base, e, mod = case
    field = PrimeField(p)
    ours = u_pow_mod(base, e, mod, field)
    assert ours == _ref_u_pow_mod(base, e, mod, field)
    assert all(type(c) is int and 0 <= c < p for c in ours) and (not ours or ours[-1])
    assert len(ours) < len(mod) or e == 0


@pytest.mark.parametrize("p", PRIMES)
def test_zeroth_power_is_one_unreduced(p):
    field = PrimeField(p)
    # e = 0 gives the empty product [1] whatever the modulus, even a constant
    # one, modulo which every positive power is the remainder []
    assert u_pow_mod([2, 1], 0, [1, 1], field) == [1]
    assert u_pow_mod([2, 1], 0, [2], field) == [1]
    assert u_pow_mod([2, 1], 1, [2], field) == []
    assert u_pow_mod([], 0, [0, 1], field) == [1]
    with pytest.raises(ZeroDivisionError):
        u_pow_mod([1], 1, [], field)


# p = 2^31 - 1 and 2^61 - 1 are 3 mod 4; 65537 - 1 = 2^16, the longest
# Tonelli-Shanks loop; 97 - 1 = 2^5 * 3
ROOT_PRIMES = (3, 7, 97, 65537, 2**31 - 1, 2**61 - 1)


@st.composite
def _quadratics(draw):
    p = draw(st.sampled_from(ROOT_PRIMES))
    coeff = st.integers(0, p - 1)
    shape = draw(st.sampled_from(("split", "square", "any", "linear", "constant")))
    if shape == "split":  # two rational roots, maybe equal
        r, s = draw(coeff), draw(coeff)
        f = [r * s % p, -(r + s) % p, 1]
    elif shape == "square":  # no rational root: x^2 - n for a non-square n
        n = draw(coeff.filter(lambda n: n and pow(n, (p - 1) // 2, p) != 1))
        f = [-n % p, 0, 1]
    elif shape == "any":
        f = [draw(coeff), draw(coeff), 1]
    elif shape == "linear":
        f = [draw(coeff), 1]
    else:
        f = [1]
    # a scaled copy: the roots see the squarefree part of a non-monic input
    lead = draw(st.integers(1, p - 1))
    return p, [c * lead % p for c in f], draw(st.integers(0, 2**32))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_quadratics())
def test_quadratic_roots_match_cantor_zassenhaus_and_its_draws(case):
    p, f, seed = case
    field = PrimeField(p)
    ours, ref = seeded_rng("quadratic-roots", seed), seeded_rng("quadratic-roots", seed)
    assert u_roots_prime_field(f, field, ours) == _ref_u_roots_prime_field(f, field, ref)
    assert ours.getstate() == ref.getstate()


def test_cubics_keep_the_splitting_route():
    field = PrimeField(65537)
    f = [(-6) % 65537, 11, (-6) % 65537, 1]  # (x - 1)(x - 2)(x - 3)
    ours, ref = seeded_rng("cubic-roots"), seeded_rng("cubic-roots")
    assert u_roots_prime_field(f, field, ours) == _ref_u_roots_prime_field(f, field, ref) == [1, 2, 3]
    assert ours.getstate() == ref.getstate()
