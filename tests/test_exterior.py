"""Exterior algebra combinatorics."""

from math import comb

import oracle
from fixtures import alternating_binomial_sum, basis_tuples, coalgebra_matrices
from algebroid.exterior import (
    basis_index,
    basis_masks,
    wedge,
    wedge_matrix,
)
from algebroid.hopf import addition_coproduct
from algebroid.liealg import LieAlgebra
from oracle import matrix_column, sort_sign


def mask(t: tuple[int, ...]) -> int:
    return sum(1 << i for i in t)


def indices(m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def tuple_wedge(a: tuple[int, ...], b: tuple[int, ...]):
    """`wedge` on the masks of index tuples, read back as (sign, tuple) or None."""
    merged = wedge(mask(a), mask(b))
    return None if merged is None else (merged[0], indices(merged[1]))


def test_basis_counts():
    for n in range(13):
        for p in range(n + 2):
            assert len(basis_tuples(n, p)) == comb(n, p)


def test_basis_is_lexicographic():
    idx = basis_tuples(4, 2)
    assert idx == sorted(idx)
    assert idx[0] == (0, 1) and idx[-1] == (2, 3)


def test_basis_masks_are_the_lex_tuples():
    for n in range(10):
        for p in range(n + 2):
            assert basis_masks(n, p) == [mask(t) for t in basis_tuples(n, p)]
            assert basis_index(n, p) == {mask(t): r for r, t in enumerate(basis_tuples(n, p))}


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_sign((1, 0, 2)) == (-1, (0, 1, 2))
    assert sort_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_sign((0, 0)) is None


def test_wedge_golden():
    a, b = mask((0,)), mask((1, 2))
    sign, out = wedge(a, b)
    assert sign == 1 and out == mask((0, 1, 2))
    sign, out = wedge(b, a)
    assert sign == 1 and out == mask((0, 1, 2))  # two transpositions
    assert wedge(a, mask((0, 1))) is None


def test_wedge_graded_commutativity():
    n = 5
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for a in basis_masks(n, p):
                for b in basis_masks(n, q):
                    left = wedge(a, b)
                    right = wedge(b, a)
                    if left is None:
                        assert right is None
                        continue
                    ls, lw = left
                    rs, rw = right
                    assert lw == rw
                    assert ls == (-1) ** (p * q) * rs


def test_wedge_counts_the_sign_sort_sign_sorts():
    # every pair of basis forms for n <= 6, shared indices included
    for n in range(7):
        forms = [t for p in range(n + 1) for t in basis_tuples(n, p)]
        for a in forms:
            for b in forms:
                assert tuple_wedge(a, b) == sort_sign(a + b), (a, b)


def wedge_products(n: int) -> dict:
    """The products of the addition coproduct on dim n, as matrices
    Lambda^p (x) Lambda^q -> Lambda^{p+q}, left index major."""
    return coalgebra_matrices(addition_coproduct(LieAlgebra(n)))[1]


def test_wedge_product_columns_are_wedges():
    n = 4
    products = wedge_products(n)
    for p in range(n + 1):
        for q in range(n + 1 - p):
            m = products[(p, q)]
            left, right, out = basis_tuples(n, p), basis_tuples(n, q), basis_tuples(n, p + q)
            assert (m.rows, m.cols) == (len(out), len(left) * len(right))
            for ia, a in enumerate(left):
                for ib, b in enumerate(right):
                    merged = tuple_wedge(a, b)
                    want = [0] * len(out)
                    if merged is not None:
                        want[out.index(merged[1])] = merged[0]
                    assert matrix_column(m, ia * len(right) + ib) == want


def test_wedge_matrix_golden():
    # e^1 wedge - : Lambda^1(Q^3) -> Lambda^2, e^0 -> -e^01, e^2 -> e^12
    m = wedge_matrix(3, 1, 1)
    assert m.rows == 3 and m.cols == 3
    cols = [matrix_column(m, j) for j in range(3)]
    assert cols[0] == [-1, 0, 0]   # e^01 row
    assert cols[1] == [0, 0, 0]
    assert cols[2] == [0, 0, 1]    # e^12 row


def test_wedge_matrix_squares_to_zero():
    for n in range(1, 5):
        for i in range(n):
            for p in range(n):
                up = oracle.dense_product(oracle.matrix_rows(wedge_matrix(n, p + 1, i)),
                                          oracle.matrix_rows(wedge_matrix(n, p, i)))
                assert not any(map(any, up))


def test_wedge_builders_store_the_tuple_reference_rows():
    for n in range(7):
        products = wedge_products(n)
        for p in range(n + 1):
            for q in range(n + 1 - p):
                m, ref = products[(p, q)], oracle.wedge_product(n, p, q)
                assert (m.rows, m.cols, m._num, m._den) == (ref.rows, ref.cols, ref._num, ref._den)
            for i in range(n):
                m, ref = wedge_matrix(n, p, i), oracle.wedge_matrix(n, p, i)
                assert (m.rows, m.cols, m._num, m._den) == (ref.rows, ref.cols, ref._num, ref._den)


def test_alternating_binomial_sum():
    assert alternating_binomial_sum(0) == 1
    for r in range(1, 65):
        assert alternating_binomial_sum(r) == 0
        assert alternating_binomial_sum(r) == sum(
            (-1) ** j * comb(r, j) for j in range(r + 1))
