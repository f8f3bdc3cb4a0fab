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
    cokernel_dim,
    complex_cohomology,
    inverse,
    kernel_basis,
    kernel_dim,
    kron_sum,
    rank,
    rank_modular,
)

_ZERO = Fraction(0)

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


def test_kron_sum_block_order():
    # left factor is the coarse index: (A kron B)[i*p + k, j*q + l] = A[i,j] B[k,l]
    a = RationalMatrix.from_rows([[1, 2]])
    b = RationalMatrix.from_rows([[3], [4]])
    k = kron_sum(2, 2, [(0, 0, a, b)])
    assert k.rows == 2 and k.cols == 2
    assert k.to_rows() == [[Fraction(3), Fraction(6)], [Fraction(4), Fraction(8)]]


def test_kron_sum_block_assembly():
    one = RationalMatrix.identity(1)
    m = kron_sum(3, 3, [(0, 0, one, RationalMatrix.identity(2)),
                        (2, 2, one, RationalMatrix.from_rows([[5]]))])
    assert m.to_rows() == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(5)],
    ]


@st.composite
def kron_terms(draw):
    """A shape and placed terms that overlap, often with a cancelling copy."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
                             Fraction(1), Fraction(3)])

    def block(r, c):
        return RationalMatrix.from_rows(draw(st.lists(
            st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)))

    terms = []
    for _ in range(draw(st.integers(0, 4))):
        ar, ac = draw(st.integers(1, rows)), draw(st.integers(1, cols))
        br, bc = draw(st.integers(1, rows // ar)), draw(st.integers(1, cols // ac))
        r0 = draw(st.integers(0, rows - ar * br))
        c0 = draw(st.integers(0, cols - ac * bc))
        a, b = block(ar, ac), block(br, bc)
        terms.append((r0, c0, a, b))
        if draw(st.booleans()):
            terms.append((r0, c0, -a, b))
    return rows, cols, terms


@settings(max_examples=80)
@given(kron_terms())
def test_kron_sum_matches_dense_reference(case):
    rows, cols, terms = case
    raw = [(r0, c0, oracle.matrix_rows(a), oracle.matrix_rows(b)) for r0, c0, a, b in terms]
    dense = oracle.kron_sum_dense(rows, cols, raw)
    # from_rows stores no zeros, so == also checks that cancelled entries are dropped
    assert kron_sum(rows, cols, terms) == RationalMatrix.from_rows(dense)


def test_kron_sum_rejects_terms_that_do_not_fit():
    one, two = RationalMatrix.identity(1), RationalMatrix.identity(2)
    for r0, c0 in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            kron_sum(2, 2, [(r0, c0, one, two)])
    with pytest.raises(ValueError):
        kron_sum(3, 4, [(0, 0, two, two)])
    assert kron_sum(4, 4, [(0, 0, two, two)]) == RationalMatrix.identity(4)


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


def sparse(rows, cols, max_entries):
    """A rows x cols matrix of small fractions from at most `max_entries`
    scattered entries."""
    if not rows or not cols:
        return st.just(RationalMatrix.zeros(rows, cols))
    entry = st.tuples(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                      small_fraction)
    return st.lists(entry, max_size=max_entries).map(
        lambda pairs: RationalMatrix.from_entries(rows, cols, pairs))


@st.composite
def rank_deficient(draw):
    """A sparse matrix of at most 24 x 24, about 15% dense, built to have
    dependent rows: a product L R through an inner dimension k, then scaled
    copies of its rows, then a row shuffle.  Numerators and denominators
    go up to 10^6."""
    rng = draw(st.randoms(use_true_random=True))
    r, c = rng.randint(1, 18), rng.randint(1, 24)
    k = rng.randint(1, min(r, c))

    def value():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))

    # one or two entries in each row of L, one plus about 5% in each row of
    # R: the product is about 15% dense
    left = [((i, rng.randrange(k)), value()) for i in range(r) for _ in range(rng.randint(1, 2))]
    right = [((t, j), value()) for t in range(k) for j in range(c) if rng.random() < 0.05]
    right += [((t, rng.randrange(c)), value()) for t in range(k)]
    rows = (RationalMatrix.from_entries(r, k, left)
            @ RationalMatrix.from_entries(k, c, right)).to_rows()
    for _ in range(rng.randint(0, 24 - r)):
        scale = value()
        rows.append([scale * x for x in rng.choice(rows)])
    rng.shuffle(rows)
    return RationalMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(rank_deficient())
def test_sparse_rank_matches_oracle_on_dependent_rows(m):
    want = oracle.gauss_rank(oracle.matrix_rows(m))
    assert rank(m) == want
    assert rank(m.transpose()) == want


@st.composite
def two_differentials(draw):
    """(A, B) with B A = 0 by construction (A maps into the first k
    coordinates of C^1, B kills them), then possibly one entry changed, and
    then a change of basis of C^1 by elementary operations, so that B A = 0
    holds by cancellation of fractions rather than by a block of zeros."""
    n0, n1, n2 = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    k = draw(st.integers(min_value=0, max_value=n1))
    a = draw(sparse(k, n0, 2 * n0)).to_rows() + [[_ZERO] * n0 for _ in range(n1 - k)]
    b = [[_ZERO] * k + row for row in draw(sparse(n2, n1 - k, 2 * n2)).to_rows()]
    change = draw(st.none() | st.tuples(st.booleans(), st.integers(0, 35), st.integers(0, 35),
                                        small_fraction))
    if change is not None:
        in_a, i, j, x = change
        target = a if in_a else b
        target[i % len(target)][j % len(target[0])] += x
    # with E = I + x e_ij: row i of E A gains x * row j of A, and column j
    # of B E^-1 loses x * column i of B
    ops = st.tuples(st.integers(0, n1 - 1), st.integers(0, n1 - 1), small_fraction)
    for i, j, x in draw(st.lists(ops, max_size=2 * n1)):
        if i != j:
            a[i] = [y + x * z for y, z in zip(a[i], a[j])]
            for row in b:
                row[j] -= x * row[i]
    return RationalMatrix.from_rows(a), RationalMatrix.from_rows(b)


@settings(max_examples=150, deadline=None)
@given(two_differentials())
def test_chain_defect_matches_fraction_product(ab):
    a, b = ab
    c = CochainComplex(degrees=(a.cols, a.rows, b.rows), differentials=(a, b))
    assert c.chain_defect() == (None if (b @ a).is_zero() else 0)


def test_chain_defect_on_fractional_entries():
    # B A = 2/3 * 1/2 - 1 * 1/3 = 0, although no entry is an integer
    a = RationalMatrix.from_rows([["1/2"], ["1/3"]])
    b = RationalMatrix.from_rows([["2/3", -1]])
    assert CochainComplex(degrees=(1, 2, 1), differentials=(a, b)).chain_defect() is None
    # d1 d0 = 0 as above; d2 d1 = (1/2 - 2/3, -3/4 + 1) != 0 is found at degree 1
    d1 = RationalMatrix.from_rows([["2/3", -1], ["4/3", -2]])
    d2 = RationalMatrix.from_rows([["3/4", "-1/2"]])
    assert CochainComplex(degrees=(1, 2, 2, 1), differentials=(a, d1, d2)).chain_defect() == 1


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
