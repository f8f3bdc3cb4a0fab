"""Exact linear algebra: rank, kernels, complexes."""

import re
from copy import deepcopy
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from fixtures import dense_apply
from oracle import MODULAR_PRIMES, cokernel_dim, from_rows, inverse, kernel_dim, kron_sum, \
    matrix_column, matrix_entry, matrix_row, pivot_columns, rank_modular
from algebroid import catalog
from algebroid.errors import ChainConditionError
from algebroid.exactlinalg import (
    CochainComplex,
    RationalMatrix,
    _reduce,
    as_fraction,
    complex_cohomology,
    kernel_basis,
    rank,
)
from algebroid.liealg import adjoint_representation, ce_complex, trivial_representation

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
            ).map(from_rows)
        )
    )


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(7) == Fraction(7)


def test_construction_and_entries():
    m = from_rows([[1, "1/2"], [0, -3]])
    assert m.rows == 2 and m.cols == 2
    assert matrix_entry(m, 0, 1) == Fraction(1, 2)
    assert matrix_row(m, 1) == [Fraction(0), Fraction(-3)]
    assert matrix_column(m, 0) == [Fraction(1), Fraction(0)]
    assert matrix_entry(RationalMatrix.identity(3), 2, 2) == 1
    assert RationalMatrix.zeros(2, 5).is_zero()
    with pytest.raises(IndexError):
        matrix_entry(m, 0, m.cols)
    with pytest.raises(IndexError):
        matrix_entry(m, m.rows, 0)


def test_constructor_drops_zeros_and_divides_out_the_gcd():
    m = RationalMatrix(3, 2, [{0: 4, 2: 0}, {1: -6}], 8)
    assert m == from_rows([[Fraction(1, 2), 0], [0, Fraction(-3, 4)], [0, 0]])
    assert (m._num, m._den) == ([{0: 2}, {1: -3}], 4)
    assert RationalMatrix(2, 1, [{0: 0, 1: 3}]) == from_rows([[0], [3]])
    assert RationalMatrix(2, 2, [{}, {}], 6) == RationalMatrix.zeros(2, 2)
    for bad in (lambda: RationalMatrix.zeros(-1, 2), lambda: RationalMatrix.identity(-1),
                lambda: RationalMatrix(2, 2, [{}])):
        with pytest.raises(ValueError):
            bad()


def test_from_entries_sums_drops_and_rejects():
    m = RationalMatrix.from_entries(2, 3, [((0, 1), 2), ((0, 1), "1/2"), ((1, 2), 1),
                                           ((1, 2), -1), ((1, 0), 0)])
    assert m == from_rows([[0, "5/2", 0], [0, 0, 0]])
    assert RationalMatrix.from_entries(2, 2, [((0, 0), 1), ((0, 0), -1)]) == \
        RationalMatrix.zeros(2, 2)
    for bad in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            RationalMatrix.from_entries(2, 3, [(bad, 1)])


def test_only_exactlinalg_touches_storage():
    # the private slots are the integer columns and their common denominator
    private = [name for name in RationalMatrix.__slots__ if name.startswith("_")]
    assert len(private) == 2
    touches = re.compile(r"\.(?:%s)\b" % "|".join(private))
    package = Path(__file__).resolve().parent.parent / "src" / "algebroid"
    offenders = [p.name for p in sorted(package.glob("*.py"))
                 if p.name != "exactlinalg.py" and touches.search(p.read_text(encoding="utf-8"))]
    assert offenders == []


@st.composite
def operands(draw):
    """Dense A and B of one shape, C with as many rows as A has columns, a
    scalar, and entry pairs that sum to A through split and cancelling
    repeats."""
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))

    def dense(rows, cols):
        return draw(st.lists(st.lists(small_fraction, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    a, b, m = dense(r, k), dense(r, k), dense(k, c)
    pairs = []
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            y, z = draw(small_fraction), draw(small_fraction)
            pairs += [((i, j), y), ((i, j), z), ((i, j), x - y), ((i, j), -z)]
    return a, b, m, draw(small_fraction), draw(st.permutations(pairs))


@settings(max_examples=120)
@given(operands())
def test_storage_is_canonical(case):
    a, b, c, x, pairs = case
    ma, mb, mc = map(from_rows, (a, b, c))
    built = [
        (ma, a),
        (RationalMatrix.from_entries(len(a), len(a[0]), pairs), a),
        (RationalMatrix.from_entries(len(a), len(a[0]), _pairs(a, 1) + _pairs(b, -1)),
         oracle.dense_lincomb(1, a, -1, b)),
        (RationalMatrix.from_entries(len(a), len(a[0]), _pairs(a, x)),
         oracle.dense_lincomb(x, a, 0, a)),
        (RationalMatrix.from_entries(len(a), len(c[0]), [
            ((i, j), y * z) for i, row in enumerate(a) for k, y in enumerate(row)
            for j, z in enumerate(c[k])]), oracle.dense_product(a, c)),
        (oracle.transpose(ma), oracle.dense_transpose(a)),
        (kron_sum(len(a) * len(c), len(a[0]) * len(c[0]), [(0, 0, ma, mc), (0, 0, mb, mc)]),
         oracle.kron_sum_dense(len(a) * len(c), len(a[0]) * len(c[0]),
                               [(0, 0, a, c), (0, 0, b, c)])),
    ]
    for m, want in built:
        # one storage per matrix, so == compares values
        assert m == from_rows(want)
        assert m == from_rows(m.to_rows())


def _pairs(rows, s) -> list:
    """((i, j), s * x) for every entry x of dense rows, zeros included."""
    return [((i, j), s * x) for i, row in enumerate(rows) for j, x in enumerate(row)]


def test_arithmetic():
    # a matrix has no operators; sums and multiples are summed entries
    a = from_rows([[1, 2], [3, 4]])
    b = [[0, 1], [1, 0]]
    assert RationalMatrix.from_entries(2, 2, _pairs(a.to_rows(), 1) + _pairs(b, 1)
                                       + _pairs(b, -1)) == a
    assert matrix_entry(RationalMatrix.from_entries(2, 2, _pairs(a.to_rows(), Fraction(1, 2))),
                        1, 1) == 2
    assert oracle.transpose(a).to_rows() == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]


def test_kron_sum_block_order():
    # left factor is the coarse index: (A kron B)[i*p + k, j*q + l] = A[i,j] B[k,l]
    a = from_rows([[1, 2]])
    b = from_rows([[3], [4]])
    k = kron_sum(2, 2, [(0, 0, a, b)])
    assert k.rows == 2 and k.cols == 2
    assert k.to_rows() == [[Fraction(3), Fraction(6)], [Fraction(4), Fraction(8)]]


def test_kron_sum_block_assembly():
    one = RationalMatrix.identity(1)
    m = kron_sum(3, 3, [(0, 0, one, RationalMatrix.identity(2)),
                        (2, 2, one, from_rows([[5]]))])
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
        return from_rows(draw(st.lists(
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
            negated = [[-x for x in row] for row in oracle.matrix_rows(a)]
            terms.append((r0, c0, from_rows(negated), b))
    return rows, cols, terms


@settings(max_examples=80)
@given(kron_terms())
def test_kron_sum_matches_dense_reference(case):
    rows, cols, terms = case
    raw = [(r0, c0, oracle.matrix_rows(a), oracle.matrix_rows(b)) for r0, c0, a, b in terms]
    dense = oracle.kron_sum_dense(rows, cols, raw)
    # from_rows stores no zeros, so == also checks that cancelled entries are dropped
    assert kron_sum(rows, cols, terms) == from_rows(dense)


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
    assert rank(from_rows([[1, 2], [2, 4]])) == 1
    # empty matrices are legal and have rank 0
    assert rank(RationalMatrix.zeros(0, 3)) == 0
    assert rank(RationalMatrix.zeros(3, 0)) == 0
    assert rank(RationalMatrix.zeros(0, 0)) == 0


@settings(max_examples=60)
@given(matrices())
def test_cancellation_leaves_no_stored_zeros(a):
    pairs = [((i, j), x) for i, j, x in a.entries()]
    cancelled = RationalMatrix.from_entries(a.rows, a.cols, pairs + [(ij, -x) for ij, x in pairs])
    assert cancelled == RationalMatrix.zeros(a.rows, a.cols)
    assert cancelled.is_zero()


@settings(max_examples=60)
@given(matrices())
def test_rank_matches_oracle(m):
    assert rank(m) == oracle.gauss_rank(oracle.matrix_rows(m))


@st.composite
def ordered_integer_matrices(draw):
    """A small integer matrix, zeros frequent so that columns depend, and a column order."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    m = from_rows(draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                               min_size=r, max_size=r)))
    return m, draw(st.permutations(range(c)))


@settings(max_examples=80)
@given(ordered_integer_matrices())
def test_pivot_columns_count_the_rank_of_every_prefix(case):
    m, order = case
    pivots = pivot_columns(m, order)
    assert pivots == [c for c in order if c in pivots]  # taken in order
    rows = oracle.matrix_rows(m)
    for k in range(m.cols + 1):
        prefix = order[:k]
        assert len(set(pivots) & set(prefix)) == \
            oracle.gauss_rank([[row[j] for j in prefix] for row in rows])
    assert pivot_columns(m) == pivot_columns(m, range(m.cols))
    assert rank(m) == len(pivot_columns(m)) == oracle.gauss_rank(rows)


@settings(max_examples=60)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(oracle.transpose(m))


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
    assert rank(from_rows(rows)) == rank(m)


@settings(max_examples=60)
@given(matrices())
def test_kernel_basis_annihilated(m):
    basis = kernel_basis(m)
    assert len(basis) == kernel_dim(m)
    for v in basis:
        assert all(x == 0 for x in dense_apply(m, v))
    # basis vectors are linearly independent
    if basis:
        stacked = from_rows(basis)
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
    rows = oracle.dense_product(RationalMatrix.from_entries(r, k, left).to_rows(),
                                RationalMatrix.from_entries(k, c, right).to_rows())
    for _ in range(rng.randint(0, 24 - r)):
        scale = value()
        rows.append([scale * x for x in rng.choice(rows)])
    rng.shuffle(rows)
    return from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(rank_deficient())
def test_sparse_rank_matches_oracle_on_dependent_rows(m):
    want = oracle.gauss_rank(oracle.matrix_rows(m))
    assert rank(m) == want
    assert rank(oracle.transpose(m)) == want


def empty_matrices():
    return st.integers(0, 6).flatmap(lambda n: st.sampled_from(
        [RationalMatrix.zeros(0, n), RationalMatrix.zeros(n, 0)]))


def assert_kernel_is_the_rref_basis(m):
    """The back-substituted kernel basis is the RREF one entry for entry,
    in the same order and as Fractions, and the pivots are the RREF's."""
    got = kernel_basis(m)
    assert got == oracle.kernel_basis(m)
    assert all(type(x) is Fraction for v in got for x in v)
    assert pivot_columns(m) == oracle.rref(oracle.matrix_rows(m), m.cols)[1]


@settings(max_examples=200)
@given(matrices() | empty_matrices())
@example(from_rows([[0, 1, 2], [0, 3, 4]]))  # a zero first column, free before any pivot
@example(from_rows([[1, 2, 3, 0], [0, 0, 0, 1]]))  # two adjacent free columns
# c2 = c0 + c1, met through c1 after c1 was reduced against c0 and its markers filled in
@example(from_rows([[1, 1, 2], [1, 0, 1], [0, 1, 1]]))
@example(from_rows([[Fraction(1, 2), Fraction(-2, 3), 1]]))  # a stored denominator of 6
def test_kernel_basis_equals_the_rref_basis(m):
    assert_kernel_is_the_rref_basis(m)


@settings(max_examples=30, deadline=None)
@given(rank_deficient())
def test_kernel_basis_equals_the_rref_basis_on_dependent_rows(m):
    assert_kernel_is_the_rref_basis(m)


def test_kernel_basis_equals_the_rref_basis_on_catalog_ce_differentials():
    checked = 0
    for name in ("zero",) + catalog.ALGEBRA_NAMES:
        g = catalog.algebra(name)
        for rep in (trivial_representation(g), adjoint_representation(g)):
            for d in ce_complex(rep).differentials:
                assert_kernel_is_the_rref_basis(d)
                checked += 1
    # every d_p of both complexes: 2 * dim g per algebra
    assert checked == 2 * sum(catalog.algebra(n).dim for n in catalog.ALGEBRA_NAMES)


@st.composite
def integer_columns(draw):
    """Sparse integer columns of at most 7 rows: random ones with entries up
    to 10^6 in size or in -3..3, duplicates, and combinations of two earlier
    columns with multipliers in -3..3."""
    rows = draw(st.integers(0, 7))
    entry = draw(st.sampled_from([st.integers(-10**6, 10**6),
                                  st.sampled_from([0, 0, 0, 1, -1, 2, -3])]))
    cols: list[dict[int, int]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "duplicate", "dependent"])) if cols else "random"
        if kind == "random":
            col = {i: draw(entry) for i in range(rows)}
        elif kind == "duplicate":
            col = dict(draw(st.sampled_from(cols)))
        else:
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            col = {i: s * a.get(i, 0) + t * b.get(i, 0) for i in range(rows)}
        cols.append({i: x for i, x in col.items() if x})
    return rows, cols


@settings(max_examples=300, deadline=None)
@given(integer_columns())
def test_the_column_reduction_bounds_its_entries_and_writes_no_input(case):
    rows, cols = case
    m = RationalMatrix(rows, len(cols), cols)
    dense = oracle.matrix_rows(m)
    pivots = _reduce(deepcopy(cols))
    assert len(pivots) == oracle.gauss_rank(dense)
    # each reduced column is nonzero at its low and vanishes above it; the
    # lows are the rows independent of the rows above them, and the pivot
    # indices the columns independent of the columns before them
    assert all(min(col) == low for low, (_, col) in pivots.items())
    assert sorted(pivots) == oracle.rref(oracle.matrix_rows(oracle.transpose(m)), rows)[1]
    assert sorted(j for j, _ in pivots.values()) == oracle.rref(dense, len(cols))[1]
    hadamard2 = prod(max(1, sum(x * x for x in col.values())) for col in cols)
    assert all(x * x <= hadamard2 for _, col in pivots.values() for x in col.values())
    # d_0 = a kernel basis of m, so m d_0 = 0 and the pass clears m at the
    # lows of d_0
    kernel = kernel_basis(m)
    d0 = RationalMatrix.from_entries(len(cols), len(kernel), (
        ((i, k), x) for k, v in enumerate(kernel) for i, x in enumerate(v)))
    c = CochainComplex((len(kernel), len(cols), rows), (d0, m))
    before = deepcopy((d0._num, m._num))
    assert rank(m) == len(pivots)
    assert len(kernel_basis(m)) == len(cols) - len(pivots)
    assert (d0._num, m._num) == before
    assert list(complex_cohomology(c).betti) == oracle.complex_betti(c)
    assert (d0._num, m._num) == before


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
    return from_rows(a), from_rows(b)


@settings(max_examples=150, deadline=None)
@given(two_differentials())
def test_chain_defect_matches_fraction_product(ab):
    a, b = ab
    c = CochainComplex(degrees=(a.cols, a.rows, b.rows), differentials=(a, b))
    product = oracle.dense_product(oracle.matrix_rows(b), oracle.matrix_rows(a))
    assert c.chain_defect() == (0 if any(map(any, product)) else None)


def test_chain_defect_on_fractional_entries():
    # B A = 2/3 * 1/2 - 1 * 1/3 = 0, although no entry is an integer
    a = from_rows([["1/2"], ["1/3"]])
    b = from_rows([["2/3", -1]])
    assert CochainComplex(degrees=(1, 2, 1), differentials=(a, b)).chain_defect() is None
    # d1 d0 = 0 as above; d2 d1 = (1/2 - 2/3, -3/4 + 1) != 0 is found at degree 1
    d1 = from_rows([["2/3", -1], ["4/3", -2]])
    d2 = from_rows([["3/4", "-1/2"]])
    assert CochainComplex(degrees=(1, 2, 2, 1), differentials=(a, d1, d2)).chain_defect() == 1


@st.composite
def small_complexes(draw):
    """Integer complexes of 3 to 5 degrees, dims <= 4, entries in -2..2.

    A random complex draws every entry.  An exact one draws a set S_p of
    coordinates per degree and lets d_p map only the coordinates outside S_p,
    only into S_{p+1}, so d_{p+1} d_p = 0.  A defect one is exact but for one
    entry of d_{q+1} in a column c of S_{q+1}, at a drawn q, and d_q has a
    nonzero entry in row c, so its defect is at q.
    """
    kind = draw(st.sampled_from(["random", "exact", "defect"]))
    dims = draw(st.lists(st.integers(kind == "defect", 4), min_size=3, max_size=5))
    q = draw(st.integers(0, len(dims) - 3))
    image = [{i for i in range(dim) if kind != "random" and draw(st.booleans())} for dim in dims]
    if kind == "defect":  # so that S_{q+1} and the columns d_q may map are not empty
        image[q].discard(0)
        image[q + 1].add(0)
    entry = st.integers(-2, 2)
    diffs = [[((i, j), draw(entry)) for i in range(rows) for j in range(cols)
              if kind == "random" or (i in image[p + 1] and j not in image[p])]
             for p, (cols, rows) in enumerate(zip(dims, dims[1:]))]
    if kind == "defect":
        c, nonzero = draw(st.sampled_from(sorted(image[q + 1]))), st.sampled_from([-2, -1, 1, 2])
        at = (c, draw(st.sampled_from([j for j in range(dims[q]) if j not in image[q]])))
        diffs[q] = [e for e in diffs[q] if e[0] != at] + [(at, draw(nonzero))]
        diffs[q + 1].append(((draw(st.integers(0, dims[q + 2] - 1)), c), draw(nonzero)))
    return CochainComplex(tuple(dims), tuple(RationalMatrix.from_entries(rows, cols, pairs)
                                             for cols, rows, pairs in zip(dims, dims[1:], diffs)))


@settings(max_examples=400, deadline=None)
@given(small_complexes())
def test_the_elimination_pass_checks_d2_where_chain_defect_does(c):
    # the pass checks d_{p+1} on the pivot columns of d_p only; chain_defect on all
    ds = [(d.rows, d.cols, oracle.matrix_rows(d)) for d in c.differentials]
    defect = next((p for p, ((_, cols, a), (rows, _, b)) in enumerate(zip(ds, ds[1:]))
                   if any(sum(b[i][k] * a[k][j] for k in range(len(a))) for i in range(rows)
                          for j in range(cols))), None)
    assert c.chain_defect() == defect
    if defect is None:
        assert list(complex_cohomology(c).betti) == oracle.complex_betti(c)
    else:
        with pytest.raises(ChainConditionError) as err:
            complex_cohomology(c)
        assert err.value.degree == defect


def test_modular_rank_skips_bad_primes(monkeypatch):
    used = []
    mod_p = oracle._rank_mod_p
    monkeypatch.setattr(oracle, "_rank_mod_p",
                        lambda a, nr, nc, p: used.append(p) or mod_p(a, nr, nc, p))
    p = MODULAR_PRIMES[0]
    assert rank_modular(from_rows([[Fraction(1, p)]])) == 1
    # the common denominator is p; the third row is the sum of the others
    m = from_rows([[Fraction(1, p), 1, 0], [0, 2, 1], [Fraction(1, p), 3, 1]])
    used.clear()
    assert rank_modular(m) == rank(m) == 2
    assert used == list(MODULAR_PRIMES[1:])
    # every prime divides the denominator: the exact rank is used
    every = from_rows([[Fraction(1, prod(MODULAR_PRIMES)), 1], [0, 1]])
    used.clear()
    assert rank_modular(every) == rank(every) == 2
    assert used == []


def test_inverse():
    m = from_rows([[2, 1], [1, 1]])
    assert oracle.dense_product(m.to_rows(), inverse(m).to_rows()) == \
        RationalMatrix.identity(2).to_rows()
    with pytest.raises(ValueError):
        inverse(from_rows([[1, 2], [2, 4]]))


def test_sin_window_golden_rank():
    # multiplication by sin t after d/dt, window 2 into window 3: the 7x5
    # matrix has rank 4 and three-dimensional cokernel.
    from algebroid.circle import TrigPoly, field_matrix

    m = field_matrix(TrigPoly.sin(1), 2, 3)
    assert (m.rows, m.cols) == (7, 5)
    assert rank(m) == 4
    assert cokernel_dim(m) == 3
    assert oracle.gauss_rank(oracle.matrix_rows(m)) == 4


def test_complex_validation():
    d0 = from_rows([[1], [0]])
    d1 = from_rows([[1, 0]])
    with pytest.raises(ChainConditionError) as err:
        complex_cohomology(CochainComplex(degrees=(1, 2, 1), differentials=(d0, d1)))
    assert err.value.degree == 0
    with pytest.raises(ValueError):
        CochainComplex(degrees=(1, 2), differentials=(RationalMatrix.zeros(3, 1),))


def test_complex_cohomology_exact_sequence():
    # 0 -> Q -> Q^2 -> Q -> 0 with the evident maps is exact
    d0 = from_rows([[1], [1]])
    d1 = from_rows([[1, -1]])
    rep = complex_cohomology(CochainComplex(degrees=(1, 2, 1), differentials=(d0, d1)))
    assert rep.betti == (0, 0, 0)
    assert rep.euler == 0


def test_complex_cohomology_zero_maps():
    rep = complex_cohomology(CochainComplex(
        degrees=(2, 3), differentials=(RationalMatrix.zeros(3, 2),)))
    assert rep.betti == (2, 3)
    assert rep.euler == -1
