"""A sweep is one filtered complex: it must agree with eliminating every
window on its own, and it must assemble only the widest window.  A product
with a Lie algebra is swept the same way, and Kunneth must hold at every
window."""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

import oracle
from oracle import change_basis
from algebroid import catalog
from algebroid.circle import (
    ActionAlgebroid,
    Rank1Anchor,
    TrigPoly,
    stabilized_cohomology,
    truncated_complex,
)
from algebroid.exactlinalg import RationalMatrix, complex_cohomology
from algebroid.kunneth import product_with_lie_algebra
from algebroid.liealg import LieAlgebra, lie_cohomology, trivial_representation

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
                           tuple(a.phi[perm[j]].scaled(scales[j]) for j in range(n)))


@st.composite
def sweeps(draw):
    a = draw(st.one_of(rank1_anchors(), changed_catalog_algebroids(), zero_field_algebroids()))
    h = draw(st.sampled_from([None, "su2", "aff1", "h3"]))
    if h is not None:
        a = product_with_lie_algebra(a, catalog.algebra(h))
    lo = draw(st.integers(0, 3))
    return a, lo, lo + draw(st.integers(2, 3))


@dataclass
class _Counted:
    """Passes window requests through and records them."""

    inner: object
    calls: list = field(default_factory=list)

    def _truncated_complex(self, n: int):
        self.calls.append(n)
        return self.inner._truncated_complex(n)


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
    counted = _Counted(a)
    sweep = stabilized_cohomology(counted, lo, hi, strict=False)
    assert counted.calls == [hi]
    assert (sweep.per_n, sweep.report, sweep.stabilized) == per_window_sweep(a, lo, hi)


def test_catalog_sweeps_assemble_once():
    for name in catalog.ALGEBROID_NAMES:
        a, (lo, hi) = catalog.algebroid(name)
        for x in (a, product_with_lie_algebra(a, catalog.algebra("su2"))):
            counted = _Counted(x)
            sweep = stabilized_cohomology(counted, lo, min(hi, lo + 3), strict=False)
            assert counted.calls == [min(hi, lo + 3)]
            assert (sweep.per_n, sweep.report, sweep.stabilized) == \
                per_window_sweep(x, lo, min(hi, lo + 3))


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
    factor_sweep = stabilized_cohomology(a, lo, lo + 2, strict=False)
    product_sweep = stabilized_cohomology(product, lo, lo + 2, strict=False)
    assert [n for n, _ in product_sweep.per_n] == [n for n, _ in factor_sweep.per_n]
    for (n, betti), (_, product_betti) in zip(factor_sweep.per_n, product_sweep.per_n):
        assert product_betti == convolve(betti, h_betti)
        assert truncated_complex(product, n).complex.degrees == \
            convolve(truncated_complex(a, n).complex.degrees, forms)
