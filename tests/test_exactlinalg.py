"""Exact linear algebra: rank, kernels, complexes."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from algebroid.errors import ChainConditionError
from algebroid.exactlinalg import (
    CochainComplex,
    RationalMatrix,
    as_fraction,
    block_matrix,
    cokernel_dim,
    complex_cohomology,
    inverse,
    kernel_basis,
    kernel_dim,
    rank,
    rank_modular,
)

small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


def matrices(max_side=6):
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_side).flatmap(
            lambda c: st.lists(
                st.lists(small_fraction, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(RationalMatrix.from_rows)
        )
    )


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(7) == Fraction(7)


def test_construction_and_entries():
    m = RationalMatrix.from_rows([[1, "1/2"], [0, -3]])
    assert m.rows == 2 and m.cols == 2
    assert m[0, 1] == Fraction(1, 2)
    assert m.row(1) == [Fraction(0), Fraction(-3)]
    assert m.column(0) == [Fraction(1), Fraction(0)]
    assert RationalMatrix.identity(3)[2, 2] == 1
    assert RationalMatrix.zeros(2, 5).is_zero()
    with pytest.raises(IndexError):
        m[0, m.cols]
    with pytest.raises(IndexError):
        m[m.rows, 0]


def test_from_entries_sums_drops_and_rejects():
    m = RationalMatrix.from_entries(2, 3, [((0, 1), 2), ((0, 1), "1/2"), ((1, 2), 1),
                                           ((1, 2), -1), ((1, 0), 0)])
    assert m == RationalMatrix.from_rows([[0, "5/2", 0], [0, 0, 0]])
    assert RationalMatrix.from_entries(2, 2, [((0, 0), 1), ((0, 0), -1)]) == \
        RationalMatrix.zeros(2, 2)
    for bad in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            RationalMatrix.from_entries(2, 3, [(bad, 1)])


def test_only_exactlinalg_touches_storage():
    package = Path(__file__).resolve().parent.parent / "src" / "algebroid"
    offenders = [p.name for p in sorted(package.glob("*.py"))
                 if p.name != "exactlinalg.py" and "._e" in p.read_text(encoding="utf-8")]
    assert offenders == []


def test_arithmetic():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert (-a) + a == RationalMatrix.zeros(2, 2)
    assert a.scaled("1/2")[1, 1] == 2
    assert (a @ b).to_rows() == [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]
    assert a.apply([1, 0]) == [Fraction(1), Fraction(3)]
    assert a.transpose().to_rows() == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]


def test_kron_block_order():
    # left factor is the coarse index: (A kron B)[i*p + k, j*q + l] = A[i,j] B[k,l]
    a = RationalMatrix.from_rows([[1, 2]])
    b = RationalMatrix.from_rows([[3], [4]])
    k = a.kron(b)
    assert k.rows == 2 and k.cols == 2
    assert k.to_rows() == [[Fraction(3), Fraction(6)], [Fraction(4), Fraction(8)]]


def test_block_matrix_assembly():
    blocks = {(0, 0): RationalMatrix.identity(2), (1, 1): RationalMatrix.from_rows([[5]])}
    m = block_matrix([2, 1], [2, 1], blocks)
    assert m.to_rows() == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(5)],
    ]


def test_rank_golden_cases():
    assert rank(RationalMatrix.zeros(3, 4)) == 0
    assert rank(RationalMatrix.identity(5)) == 5
    assert rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1
    # empty matrices are legal and have rank 0
    assert rank(RationalMatrix.zeros(0, 3)) == 0
    assert rank(RationalMatrix.zeros(3, 0)) == 0
    assert rank(RationalMatrix.zeros(0, 0)) == 0


@settings(max_examples=60)
@given(matrices())
def test_cancellation_leaves_no_stored_zeros(a):
    assert a + (-a) == RationalMatrix.zeros(a.rows, a.cols)
    assert (a - a).is_zero()


@settings(max_examples=60)
@given(matrices())
def test_rank_matches_oracle(m):
    assert rank(m) == oracle.gauss_rank(oracle.matrix_rows(m))


@settings(max_examples=60)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_dim(m) == m.cols
    assert rank(m) + cokernel_dim(m) == m.rows


@settings(max_examples=40)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_row_permutation_invariant(m, rng):
    rows = m.to_rows()
    rng.shuffle(rows)
    assert rank(RationalMatrix.from_rows(rows)) == rank(m)


@settings(max_examples=60)
@given(matrices())
def test_kernel_basis_annihilated(m):
    basis = kernel_basis(m)
    assert len(basis) == kernel_dim(m)
    for v in basis:
        assert all(x == 0 for x in m.apply(v))
    # basis vectors are linearly independent
    if basis:
        stacked = RationalMatrix.from_rows(basis)
        assert rank(stacked) == len(basis)


@settings(max_examples=60)
@given(matrices())
def test_modular_rank_agrees(m):
    assert rank_modular(m) == rank(m)


def test_modular_rank_skips_bad_primes():
    p = 1000000007
    m = RationalMatrix.from_rows([[Fraction(1, p)]])
    assert rank_modular(m) == 1


def test_inverse():
    m = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert m @ inverse(m) == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(RationalMatrix.from_rows([[1, 2], [2, 4]]))


def test_sin_window_golden_rank():
    # multiplication by sin t after d/dt, window 2 into window 3: the 7x5
    # matrix has rank 4 and three-dimensional cokernel.
    from algebroid.circle import TrigPoly, derivative_matrix, multiplication_matrix

    m = multiplication_matrix(TrigPoly.sin(1), 2, 3) @ derivative_matrix(2)
    assert (m.rows, m.cols) == (7, 5)
    assert rank(m) == 4
    assert cokernel_dim(m) == 3
    assert oracle.gauss_rank(oracle.matrix_rows(m)) == 4


def test_complex_validation():
    d0 = RationalMatrix.from_rows([[1], [0]])
    d1 = RationalMatrix.from_rows([[1, 0]])
    with pytest.raises(ChainConditionError) as err:
        complex_cohomology(CochainComplex(degrees=(1, 2, 1), differentials=(d0, d1)))
    assert err.value.degree == 0
    with pytest.raises(ValueError):
        CochainComplex(degrees=(1, 2), differentials=(RationalMatrix.zeros(3, 1),))


def test_complex_cohomology_exact_sequence():
    # 0 -> Q -> Q^2 -> Q -> 0 with the evident maps is exact
    d0 = RationalMatrix.from_rows([[1], [1]])
    d1 = RationalMatrix.from_rows([[1, -1]])
    rep = complex_cohomology(CochainComplex(degrees=(1, 2, 1), differentials=(d0, d1)))
    assert rep.betti == (0, 0, 0)
    assert rep.euler == 0


def test_complex_cohomology_zero_maps():
    rep = complex_cohomology(CochainComplex(
        degrees=(2, 3), differentials=(RationalMatrix.zeros(3, 2),)))
    assert rep.betti == (2, 3)
    assert rep.euler == -1
