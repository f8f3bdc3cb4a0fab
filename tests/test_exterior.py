"""Exterior algebra combinatorics."""

from math import comb

from algebroid.exterior import (
    alternating_binomial_sum,
    basis_tuples,
    sort_sign,
    wedge_matrix,
)


def test_basis_counts():
    for n in range(13):
        for p in range(n + 2):
            assert len(basis_tuples(n, p)) == comb(n, p)


def test_basis_is_lexicographic():
    idx = basis_tuples(4, 2)
    assert idx == sorted(idx)
    assert idx[0] == (0, 1) and idx[-1] == (2, 3)


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_sign((1, 0, 2)) == (-1, (0, 1, 2))
    assert sort_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_sign((0, 0)) is None


def test_wedge_golden():
    # the wedge of basis forms a and b is sort_sign(a + b)
    a, b = (0,), (1, 2)
    sign, out = sort_sign(a + b)
    assert sign == 1 and out == (0, 1, 2)
    sign, out = sort_sign(b + a)
    assert sign == 1 and out == (0, 1, 2)  # two transpositions
    assert sort_sign(a + (0, 1)) is None


def test_wedge_graded_commutativity():
    n = 5
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for a in basis_tuples(n, p):
                for b in basis_tuples(n, q):
                    left = sort_sign(a + b)
                    right = sort_sign(b + a)
                    if left is None:
                        assert right is None
                        continue
                    ls, lw = left
                    rs, rw = right
                    assert lw == rw
                    assert ls == (-1) ** (p * q) * rs


def test_wedge_matrix_golden():
    # e^1 wedge - : Lambda^1(Q^3) -> Lambda^2, e^0 -> -e^01, e^2 -> e^12
    m = wedge_matrix(3, 1, 1)
    assert m.rows == 3 and m.cols == 3
    cols = [m.column(j) for j in range(3)]
    assert cols[0] == [-1, 0, 0]   # e^01 row
    assert cols[1] == [0, 0, 0]
    assert cols[2] == [0, 0, 1]    # e^12 row


def test_wedge_matrix_squares_to_zero():
    for n in range(1, 5):
        for i in range(n):
            for p in range(n):
                up = wedge_matrix(n, p + 1, i) @ wedge_matrix(n, p, i)
                assert up.is_zero()


def test_alternating_binomial_sum():
    assert alternating_binomial_sum(0) == 1
    for r in range(1, 65):
        assert alternating_binomial_sum(r) == 0
        assert alternating_binomial_sum(r) == sum(
            (-1) ** j * comb(r, j) for j in range(r + 1))
