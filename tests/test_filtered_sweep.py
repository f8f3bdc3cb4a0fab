"""A sweep is computed from small complexes: window 0 when a field has
degree d >= 1, one CE complex per harmonic when d = 0.  It must agree with
eliminating every window on its own, both by the package and by dense rank
on the oracle's window complexes, and it must assemble no window but window
0.  A product with a Lie algebra is swept the same way, and Kunneth must
hold at every window.  The oracle's filtered sweep, which eliminates the
widest window once with clearing, must give every window's rank, as one
differential at a time in level order and dense elimination of each window
do."""

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from unittest.mock import patch

from hypothesis import assume, given, settings, strategies as st

import oracle
from oracle import TruncatedComplex, change_basis, from_rows, pivot_levels, trig_lincomb, \
    truncated_complex
from algebroid import catalog
from algebroid.circle import (
    ActionAlgebroid,
    Rank1Anchor,
    TrigPoly,
    stabilized_cohomology,
)
from algebroid.exactlinalg import CochainComplex, CohomologyReport, RationalMatrix, \
    cohomology_from_ranks, complex_cohomology
from algebroid.kunneth import product_with_lie_algebra
from algebroid.liealg import (
    LieAlgebra,
    adjoint_representation,
    ce_complex,
    lie_cohomology,
    trivial_representation,
)

small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def trig_polys(draw):
    """Trig degree <= 2 with small rational coefficients."""
    deg = draw(st.integers(0, 2))
    coeffs = [draw(small_rational) for _ in range(2 * deg + 1)]
    return TrigPoly.make(coeffs[0], coeffs[1::2], coeffs[2::2])


def rank1_anchors():
    return trig_polys().map(Rank1Anchor)


@st.composite
def zero_field_algebroids(draw):
    """aff1, h3 or r2 acting through its first basis vector alone, phi = (f, 0, ...).
    The zero fields span a subalgebra, so only the first slot moves a window."""
    g = catalog.algebra(draw(st.sampled_from(["aff1", "h3", "r2"])))
    return ActionAlgebroid(g, (draw(trig_polys()),) + (TrigPoly(),) * (g.dim - 1))


@st.composite
def changed_catalog_algebroids(draw):
    """A catalog algebroid in a basis e'_j = s_j e_perm[j] (a permutation times a
    diagonal); the vector fields follow the basis, phi'_j = s_j phi_perm[j]."""
    a, _ = catalog.algebroid(draw(st.sampled_from(catalog.ALGEBROID_NAMES)))
    n = a.algebra.dim
    perm = draw(st.permutations(range(n)))
    scales = [draw(small_rational.filter(bool)) for _ in range(n)]
    p = RationalMatrix.from_entries(n, n, [((perm[j], j), scales[j]) for j in range(n)])
    return ActionAlgebroid(change_basis(a.algebra, p),
                           tuple(trig_lincomb([(scales[j], a.phi[perm[j]])]) for j in range(n)))


@st.composite
def sweeps(draw):
    a = draw(st.one_of(rank1_anchors(), changed_catalog_algebroids(), zero_field_algebroids()))
    h = draw(st.sampled_from([None, "su2", "aff1", "h3"]))
    if h is not None:
        a = product_with_lie_algebra(a, catalog.algebra(h))
    lo = draw(st.integers(0, 3))
    return a, lo, lo + draw(st.integers(2, 3))


@contextmanager
def counted_windows():
    """The list of the windows that `_truncated_complex` assembles while open."""
    calls, real = [], ActionAlgebroid._truncated_complex

    def counted(self, n: int):
        calls.append(n)
        return real(self, n)

    with patch.object(ActionAlgebroid, "_truncated_complex", counted):
        yield calls


def per_window_sweep(a, lo: int, hi: int):
    """Reference: every window assembled and eliminated on its own."""
    reports = [complex_cohomology(truncated_complex(a, n).complex) for n in range(lo, hi + 1)]
    per_n = tuple((n, rep.betti) for n, rep in zip(range(lo, hi + 1), reports))
    tail = [b for _, b in per_n[-3:]]
    return per_n, reports[-1], tail[0] == tail[1] == tail[2]


@settings(max_examples=40, deadline=None)
@given(sweeps())
def test_filtered_sweep_equals_per_window_elimination(case):
    a, lo, hi = case
    with counted_windows() as calls:
        sweep = stabilized_cohomology(a, lo, hi)
    assert calls == ([0] if a.anchor_degree() else [])
    assert (sweep.per_n, sweep.report, sweep.stabilized) == per_window_sweep(a, lo, hi)
    filtered = oracle.filtered_sweep(a, lo, hi)  # the widest window, eliminated by levels
    assert (filtered.per_n, filtered.report, filtered.stabilized) == per_window_sweep(a, lo, hi)


def test_catalog_sweeps_assemble_once():
    # d >= 1 assembles window 0 alone; d = 0 (const1, r_action) assembles no window
    for name in catalog.ALGEBROID_NAMES:
        a, (lo, hi) = catalog.algebroid(name)
        for x in (a, product_with_lie_algebra(a, catalog.algebra("su2"))):
            with counted_windows() as calls:
                sweep = stabilized_cohomology(x, lo, min(hi, lo + 3))
            assert calls == ([0] if x.anchor_degree() else []), name
            assert (sweep.per_n, sweep.report, sweep.stabilized) == \
                per_window_sweep(x, lo, min(hi, lo + 3))


def dense_sweep(a, lo: int, hi: int):
    """Reference: every window built by `oracle.window_complex` and ranked
    by dense Fraction elimination."""
    reports = []
    for n in range(lo, hi + 1):
        degrees, _, diffs = oracle.window_complex(a, n)
        betti = tuple(oracle.betti_numbers(list(degrees), list(map(oracle.matrix_rows, diffs))))
        reports.append(CohomologyReport(degrees, betti, oracle.euler(betti)))
    per_n = tuple((n, rep.betti) for n, rep in zip(range(lo, hi + 1), reports))
    return per_n, reports[-1], len({b for _, b in per_n[-3:]}) == 1


@st.composite
def rotation_characters(draw):
    """R acting on Q^2k (k <= 2) by rotation blocks of integer speeds 1..4,
    [e0, e_{2j+1}] = w_j e_{2j+2} and [e0, e_{2j+2}] = -w_j e_{2j+1}, through
    the constant field c on e0 and zero fields on the ideal.  Harmonic n adds
    cohomology exactly when n c is a signed sum of some of the speeds."""
    speeds = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    table = {}
    for j, w in enumerate(speeds):
        table[(0, 2 * j + 1)], table[(0, 2 * j + 2)] = {2 * j + 2: w}, {2 * j + 1: -w}
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(1, 3)]))
    a = ActionAlgebroid(LieAlgebra.make(1 + 2 * len(speeds), table),
                        (TrigPoly.make(c),) + (TrigPoly(),) * (2 * len(speeds)))
    lo = draw(st.integers(0, 2))
    return a, lo, lo + draw(st.integers(2, 6 - lo if len(speeds) == 1 else 2))


@st.composite
def all_zero_fields(draw):
    """An algebra acting by zero fields alone: window N is V_N (x) H(g)."""
    g = catalog.algebra(draw(st.sampled_from(["r1", "r2", "aff1", "h3", "su2", "sl2"])))
    lo = draw(st.integers(0, 3))
    return ActionAlgebroid(g, (TrigPoly(),) * g.dim), lo, lo + draw(st.integers(2, 3))


@settings(max_examples=60, deadline=None)
@given(sweeps() | rotation_characters() | all_zero_fields())
def test_sweep_equals_dense_ranks_of_every_window(case):
    a, lo, hi = case
    assume(max(truncated_complex(a, hi).complex.degrees) <= 120)  # dense ranks stay quick
    sweep = stabilized_cohomology(a, lo, hi)
    assert (sweep.per_n, sweep.report, sweep.stabilized) == dense_sweep(a, lo, hi)


def assert_reference_windows(a, n: int):
    # degrees, levels and stored rows of the mask builder against the kron_sum reference
    tc = truncated_complex(a, n)
    degrees, levels, diffs = oracle.window_complex(a, n)
    assert (tc.complex.degrees, tc.levels) == (degrees, levels), n
    assert [(d.rows, d.cols, d._num, d._den) for d in tc.complex.differentials] == \
        [(d.rows, d.cols, d._num, d._den) for d in diffs], n


def test_window_complexes_store_the_reference_rows():
    g = LieAlgebra.make(4, {(0, 1): {2: 1, 3: -1}})  # zero fields that span no subalgebra
    cases = [(ActionAlgebroid(g, (TrigPoly(), TrigPoly(), TrigPoly.sin(1), TrigPoly.sin(1))), 6)]
    for name in catalog.ALGEBROID_NAMES:
        a, (_, hi) = catalog.algebroid(name)
        cases.append((a, hi + 1))
        cases += [(product_with_lie_algebra(a, catalog.algebra(h)), hi + 1)
                  for h in ("su2", "aff1", "h3", "r2", "zero")]
    for a, top in cases:
        for n in range(top + 1):
            assert_reference_windows(a, n)


@settings(max_examples=40, deadline=None)
@given(sweeps())
def test_swept_window_complexes_store_the_reference_rows(case):
    a, lo, hi = case
    for n in (lo, hi):
        assert_reference_windows(a, n)


def convolve(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(st.one_of(rank1_anchors(), changed_catalog_algebroids(), zero_field_algebroids()),
       st.sampled_from(["su2", "aff1", "h3", "r2", "zero"]), st.integers(0, 3))
def test_kunneth_holds_at_every_window(a, name, lo):
    h = catalog.algebra(name)
    product = product_with_lie_algebra(a, h)
    h_betti = lie_cohomology(trivial_representation(h)).betti
    forms = tuple(comb(h.dim, q) for q in range(h.dim + 1))
    factor_sweep = stabilized_cohomology(a, lo, lo + 2)
    product_sweep = stabilized_cohomology(product, lo, lo + 2)
    assert [n for n, _ in product_sweep.per_n] == [n for n, _ in factor_sweep.per_n]
    for (n, betti), (_, product_betti) in zip(factor_sweep.per_n, product_sweep.per_n):
        assert product_betti == convolve(betti, h_betti)
        assert truncated_complex(product, n).complex.degrees == \
            convolve(truncated_complex(a, n).complex.degrees, forms)


# -- one-pass elimination with clearing ---------------------------------------

def assert_pivot_levels_count_every_window(c, levels=None):
    """Per-level pivot counts of `pivot_levels` against each differential
    eliminated on its own with its columns in level order, and against the
    dense rank of d_p on every window."""
    got = pivot_levels(c, levels)
    levels = levels or [[0] * n for n in c.degrees]
    for p, d in enumerate(c.differentials):
        rows, cols = levels[p + 1], levels[p]
        in_level_order = sorted(range(d.cols), key=cols.__getitem__)
        assert sorted(got[p]) == sorted(cols[j] for j in oracle.pivot_columns(d, in_level_order)), p
        dense = oracle.matrix_rows(d)
        for n in sorted(set(cols)):
            window = [[x for x, level in zip(row, cols) if level <= n]
                      for row, row_level in zip(dense, rows) if row_level <= n]
            assert sum(level <= n for level in got[p]) == oracle.gauss_rank(window), (p, n)


@settings(max_examples=30, deadline=None)
@given(sweeps())
def test_pivot_levels_count_every_window_of_a_sweep(case):
    a, _, hi = case
    tc = truncated_complex(a, hi)
    assume(max(tc.complex.degrees) <= 120)  # dense ranks of larger windows take seconds
    assert_pivot_levels_count_every_window(tc.complex, tc.levels)


def test_pivot_levels_count_every_window_of_catalog_products():
    # window 2 keeps the dense ranks of sl2_action x su2 (degrees up to 220) quick
    for name in catalog.ALGEBROID_NAMES:
        a, _ = catalog.algebroid(name)
        tc = truncated_complex(product_with_lie_algebra(a, catalog.algebra("su2")), 2)
        assert_pivot_levels_count_every_window(tc.complex, tc.levels)


@st.composite
def semidirect_ce_complexes(draw):
    """The trivial or adjoint CE complex of R acting on Q^m (m <= 4) by a
    small integer matrix A: [e0, ei] = sum_k A[k][i] ek."""
    m = draw(st.integers(0, 4))
    a = [[draw(st.sampled_from([0, 0, 1, -1, 2])) for _ in range(m)] for _ in range(m)]
    g = LieAlgebra.make(m + 1, {(0, i + 1): {k + 1: a[k][i] for k in range(m)}
                                for i in range(m)})
    rep = draw(st.sampled_from([trivial_representation, adjoint_representation]))
    return ce_complex(rep(g))


@settings(max_examples=40, deadline=None)
@given(semidirect_ce_complexes())
def test_pivot_levels_count_the_ranks_of_a_ce_complex(c):
    assert_pivot_levels_count_every_window(c)
    # the package's pass with clearing, rows top to bottom, gives the same ranks
    ranks = list(map(len, pivot_levels(c)))
    assert complex_cohomology(c) == cohomology_from_ranks(c.degrees, ranks)


@dataclass(frozen=True)
class _Fixed:
    """A filtered complex handed to a sweep as its widest window."""

    complex: CochainComplex
    levels: tuple

    def _truncated_complex(self, n: int):
        return TruncatedComplex(n, self.complex, self.levels)


def test_the_pivot_row_of_lowest_level_is_taken():
    # C^0 = <e, e'> at levels 1 and 0, both mapped onto f at level 0.  The two
    # rows of d_0 transposed are equal, so a level-blind pivot takes e (the
    # lower index) and window 0 would lose the rank that e' gives it.
    c = CochainComplex((2, 1), (from_rows([[1, 1]]),))
    levels = ((1, 0), (0,))
    assert pivot_levels(c, levels) == [[0]]
    assert_pivot_levels_count_every_window(c, levels)
    sweep = oracle.filtered_sweep(_Fixed(c, levels), 0, 2)
    assert sweep.per_n == ((0, (0, 0)), (1, (1, 0)), (2, (1, 0)))


def test_columns_are_taken_by_descending_level():
    # d_0 e = a + b with e, b at level 1 and a at level 0; d_1 sends a to c and
    # b to -c.  Column b comes first, so the low of d_0 is b, and a stays to
    # give d_1 its rank on window 0.  Taking a first would clear a.
    c = CochainComplex((1, 2, 1), (from_rows([[1], [1]]),
                                   from_rows([[1, -1]])))
    levels = ((1,), (0, 1), (0,))
    assert pivot_levels(c, levels) == [[1], [0]]
    assert_pivot_levels_count_every_window(c, levels)
    sweep = oracle.filtered_sweep(_Fixed(c, levels), 0, 2)
    assert sweep.per_n == ((0, (0, 0, 0)), (1, (0, 0, 0)), (2, (0, 0, 0)))
