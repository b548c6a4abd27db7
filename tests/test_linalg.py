from fractions import Fraction

from entryloci.kernel import QQ, PrimeField
from entryloci.kernel.linalg import (
    det,
    identity,
    kernel_basis,
    mat_inverse,
    rank,
    rref,
)
from helpers import row_space_intersection


def F(x):
    return Fraction(x)


def test_kernel_of_identity_is_empty():
    rows = identity(3, QQ)
    assert kernel_basis(rows, QQ) == []
    assert rank(rows, QQ) == 3


def test_kernel_of_zero_matrix_is_full():
    rows = [[F(0)] * 4 for _ in range(2)]
    basis = kernel_basis(rows, QQ)
    assert len(basis) == 4


def test_kernel_of_proportional_rows():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    basis = kernel_basis(rows, QQ)
    assert rank(rows, QQ) == 1
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 2 == 0  # proportional to (2, -1)


def test_solve_and_inverse():
    rows = [[F(2), F(1)], [F(1), F(3)]]
    inv = mat_inverse(rows, QQ)
    assert inv == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    assert det(rows, QQ) == 5


def test_rational_rows_of_ints_stay_exact():
    rows = [[2, 1], [1, 3]]
    red, piv = rref(rows, QQ)
    assert red == [[1, 0], [0, 1]] and piv == [0, 1]
    assert all(type(x) is Fraction for row in red for x in row)
    d = det(rows, QQ)
    assert d == Fraction(5) and type(d) is Fraction


def test_prime_field_rref_and_kernel():
    K = PrimeField(10007)
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert rank(rows, K) == 2
    for v in kernel_basis(rows, K):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % 10007 == 0


def test_row_space_intersection():
    u = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    v = [[F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    both = row_space_intersection(u, v, QQ)
    assert len(both) == 1
    assert both[0][0] == 0 and both[0][2] == 0 and both[0][1] != 0
