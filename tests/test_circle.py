"""Trigonometric polynomials, windows, and circle algebroids."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from fixtures import const, dense_apply, value_at_quarter
from oracle import TruncatedComplex, cokernel_dim, filtered_sweep, from_rows, inclusion_matrix, \
    kernel_dim, matrix_column, pivot_levels, trig_lincomb, trig_mul, truncated_complex, vf_bracket
from algebroid import catalog, circle
from algebroid.circle import (
    ActionAlgebroid,
    Rank1Anchor,
    TrigPoly,
    action_violation,
    check_action,
    count_simple_zeros,
    field_matrix,
    has_zero_on_circle,
    is_transitive,
    stabilized_cohomology,
    weierstrass_numerator,
    window_coords,
    window_dim,
)
from algebroid.errors import (
    ChainConditionError,
    NonsimpleZeroError,
    ValidationError,
)
from algebroid.exactlinalg import (
    CochainComplex,
    RationalMatrix,
    complex_cohomology,
    rank,
)
from algebroid.kunneth import product_with_lie_algebra
from algebroid.liealg import LieAlgebra

F = Fraction


# -- trig polynomial arithmetic ----------------------------------------------
# Products and brackets of trig polynomials are the oracle's; the package's
# one product, u -> f u', is `field_matrix`.

def derivative(f: TrigPoly) -> TrigPoly:
    """f' through the package's d/dt, u -> 1 u'."""
    coords = dense_apply(field_matrix(const(1), f.deg, f.deg), window_coords(f, f.deg))
    return TrigPoly.make(coords[0], coords[1::2], coords[2::2])


def test_normalization():
    assert TrigPoly.make(0, [0, 0], [0, 0]) == const(0)
    assert TrigPoly.make(1, [1, 0], [0, 0]).deg == 1
    with pytest.raises(ValueError):
        TrigPoly(constant=F(0), cos_coeffs=(F(0),), sin_coeffs=(F(0),))
    with pytest.raises(ValueError):
        TrigPoly.cos(0)


def test_product_to_sum_goldens():
    s1, c1 = TrigPoly.sin(1), TrigPoly.cos(1)
    c2, s2 = TrigPoly.cos(2), TrigPoly.sin(2)
    # sin^2 = 1/2 - cos 2t / 2
    assert trig_mul(s1, s1) == TrigPoly.make(F(1, 2), [0, F(-1, 2)], [0, 0])
    # cos^2 = 1/2 + cos 2t / 2
    assert trig_mul(c1, c1) == TrigPoly.make(F(1, 2), [0, F(1, 2)], [0, 0])
    # sin cos = sin 2t / 2
    assert trig_mul(s1, c1) == TrigPoly.make(0, [0, 0], [0, F(1, 2)])
    # cos t cos 2t = cos t / 2 + cos 3t / 2
    assert trig_mul(c1, c2) == TrigPoly.make(0, [F(1, 2), 0, F(1, 2)], [0, 0, 0])
    # sin t sin 2t = cos t / 2 - cos 3t / 2
    assert trig_mul(s1, s2) == TrigPoly.make(0, [F(1, 2), 0, F(-1, 2)], [0, 0, 0])
    # sin 2t cos t = sin t / 2 + sin 3t / 2
    assert trig_mul(s2, c1) == TrigPoly.make(0, [0, 0, 0], [F(1, 2), 0, F(1, 2)])
    assert trig_mul(const(0), c2).is_zero()


def test_multiplication_is_commutative_and_degree_additive():
    f = TrigPoly.make(1, [2, 0], [F(-1, 3), 1])
    g = TrigPoly.make(F(1, 2), [0, 0, 4], [1, 0, 0])
    assert trig_mul(f, g) == trig_mul(g, f)
    assert trig_mul(f, g).deg == f.deg + g.deg


def test_derivative():
    f = TrigPoly.make(5, [1, 0], [0, 2])
    # d/dt (5 + cos t + 2 sin 2t) = -sin t + 4 cos 2t
    assert derivative(f) == TrigPoly.make(0, [0, 4], [-1, 0])


small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
trig_polys = st.builds(TrigPoly.make, small_fraction,
                       st.lists(small_fraction, max_size=3),
                       st.lists(small_fraction, max_size=3))


@settings(max_examples=150, deadline=None)
@given(trig_polys, trig_polys)
def test_product_and_derivative_match_half_angle_substitution(f, g):
    # An independent reference for the oracle's product-to-sum table, which
    # `trig_mul` and `derivative` read, and for d/dt: under u = tan(t/2),
    # W(f) = f (1+u^2)^deg f turns trig products into polynomial products,
    # and d/dt into ((1+u^2) d/du - 2 deg f u) / 2.  The package's
    # `field_matrix` is checked against that table entry for entry.
    w = weierstrass_numerator
    assert oracle.trim(w(trig_mul(f, g))) == oracle.trim(oracle.mul(w(f), w(g)))
    d = f.deg
    assume(d >= 1)
    p = w(f)
    expected = oracle.scale(oracle.sub(
        oracle.mul([F(1), F(0), F(1)], oracle.derivative(p)),
        oracle.mul([F(0), F(2 * d)], p)), F(1, 2))
    assert oracle.trim(w(derivative(f))) == oracle.trim(expected)


def test_vector_field_brackets():
    one, c2, s2 = const(1), TrigPoly.cos(2), TrigPoly.sin(2)
    assert vf_bracket(one, c2) == TrigPoly.sin(2, -2)
    assert vf_bracket(c2, s2) == const(2)
    assert vf_bracket(s2, one) == TrigPoly.cos(2, -2)
    # antisymmetry on a messier pair
    f = TrigPoly.make(1, [1], [0])
    g = TrigPoly.make(0, [0, 1], [2, 0])
    assert vf_bracket(f, g) == trig_lincomb([(-1, vf_bracket(g, f))])
    # the package's bracket, through the action check: e_0, e_1, e_2 -> 1, cos 2t, sin 2t
    sl2 = LieAlgebra.make(3, {(0, 1): {2: -2}, (0, 2): {1: 2}, (1, 2): {0: 2}})
    assert action_violation(ActionAlgebroid(sl2, (one, c2, s2))) is None
    assert action_violation(ActionAlgebroid(sl2, (one, c2, TrigPoly.sin(2, 2)))) == (0, 1)


def test_value_at_quarter():
    f = TrigPoly.make(F(1, 2), [1], [0])   # 1/2 + cos t
    assert value_at_quarter(f, 0) == F(3, 2)
    assert value_at_quarter(f, 1) == F(1, 2)
    assert value_at_quarter(f, 2) == F(-1, 2)
    assert value_at_quarter(TrigPoly.sin(1), 1) == 1
    assert value_at_quarter(TrigPoly.cos(2), 1) == -1


# -- zero counting on the circle ---------------------------------------------

def test_weierstrass_numerator_golden():
    # cos t = (1 - u^2) / (1 + u^2), numerator 1 - u^2
    assert weierstrass_numerator(TrigPoly.cos(1)) == [F(1), F(0), F(-1)]
    # sin t = 2u / (1 + u^2)
    assert weierstrass_numerator(TrigPoly.sin(1)) == [F(0), F(2)]


def test_zero_detection():
    assert has_zero_on_circle(TrigPoly.sin(1))
    assert has_zero_on_circle(TrigPoly.make(-1, [1], [0]))   # cos t - 1
    assert not has_zero_on_circle(TrigPoly.make(2, [0], [1]))  # 2 + sin t
    assert not has_zero_on_circle(const(1))
    assert has_zero_on_circle(const(0))


def test_count_simple_zeros():
    assert count_simple_zeros(TrigPoly.sin(1)) == 2
    assert count_simple_zeros(TrigPoly.cos(1)) == 2
    assert count_simple_zeros(TrigPoly.sin(2)) == 4
    assert count_simple_zeros(TrigPoly.sin(3)) == 6
    assert count_simple_zeros(TrigPoly.make(2, [0], [1])) == 0
    # 1 + cos t vanishes at t = pi together with its derivative
    with pytest.raises(NonsimpleZeroError):
        count_simple_zeros(TrigPoly.make(1, [1], [0]))
    # 1 - sin t: nonsimple zero away from t = pi
    with pytest.raises(NonsimpleZeroError):
        count_simple_zeros(TrigPoly.make(1, [0], [-1]))
    with pytest.raises(ValueError):
        count_simple_zeros(const(0))


numerator_polys = st.builds(TrigPoly.make, small_fraction,
                            st.lists(small_fraction, max_size=12),
                            st.lists(small_fraction, max_size=12))


@settings(max_examples=80, deadline=None)
@given(numerator_polys)
def test_weierstrass_numerator_matches_the_binomial_expansion(f):
    # angle addition and Horner in 1 + u^2 against powers of (1 + iu) and of 1 + u^2
    p = weierstrass_numerator(f)
    assert p == oracle.weierstrass_numerator(f)
    assert all(type(x) is Fraction for x in p)


def test_weierstrass_numerator_at_the_degree_cap():
    for f in (TrigPoly.cos(64), TrigPoly.make(F(1, 3), [0] * 63 + [1], [0] * 62 + [2, 0])):
        assert weierstrass_numerator(f) == oracle.weierstrass_numerator(f)


# Multiples of 1 + cos kt put double zeros on the circle, at t = pi for odd k;
# sin t and cos t - 1 put simple and double zeros at 0 and pi.
zero_factors = st.sampled_from([
    TrigPoly.make(1, [1], [0]), TrigPoly.make(1, [0, 1], [0, 0]),
    TrigPoly.make(1, [0, 0, 1], [0, 0, 0]), TrigPoly.sin(1), TrigPoly.make(-1, [1], [0]),
    TrigPoly.make(0, [1], [1]), const(1)]) | trig_polys


@st.composite
def circle_polys(draw):
    f = draw(trig_polys)
    for _ in range(draw(st.integers(0, 2))):
        f = trig_mul(f, draw(zero_factors))
    return f


@settings(max_examples=120, deadline=None)
@given(circle_polys())
def test_count_simple_zeros_matches_the_values_at_pi(f):
    # the multiplicity at pi read off the numerator's degree, against f(pi) and f'(pi)
    assert oracle.outcome(count_simple_zeros, f) == oracle.outcome(oracle.count_simple_zeros, f)
    assert is_transitive(Rank1Anchor(f)) == (not oracle.has_zero_on_circle(f))


@settings(max_examples=100, deadline=None)
@given(st.lists(circle_polys(), min_size=1, max_size=3), zero_factors, st.integers(0, 4))
def test_has_zero_on_circle_matches_the_values_at_pi(fs, factor, share):
    if share < 2:  # 2 in 5 draws share a factor
        fs = [trig_mul(f, factor) for f in fs]
    assert has_zero_on_circle(*fs) == oracle.has_zero_on_circle(*fs)


# -- windows -----------------------------------------------------------------

# the pinned basis order of V_2
BASIS_2 = [const(1), TrigPoly.cos(1), TrigPoly.sin(1),
           TrigPoly.cos(2), TrigPoly.sin(2)]


def test_window_dims_and_basis():
    assert [window_dim(m) for m in range(4)] == [1, 3, 5, 7]
    for i, b in enumerate(BASIS_2):
        assert window_coords(b, 2) == [F(int(i == k)) for k in range(5)]


def test_window_coords_roundtrip():
    f = TrigPoly.make(3, [0, F(1, 2)], [-1, 0])
    coords = window_coords(f, 2)
    assert trig_lincomb(zip(coords, BASIS_2)) == f
    assert window_coords(f, 3) == coords + [0, 0]
    with pytest.raises(ValueError):
        window_coords(f, 1)  # window too small


def test_derivative_matrix_golden():
    m = field_matrix(const(1), 1, 1)
    # basis (1, cos t, sin t): d/dt sends cos -> -sin, sin -> cos
    assert m.to_rows() == [
        [F(0), F(0), F(0)],
        [F(0), F(0), F(1)],
        [F(0), F(-1), F(0)],
    ]
    with pytest.raises(ValueError):
        field_matrix(TrigPoly.sin(1), 1, 1)  # window too small for sin t u'


def test_multiplication_matrix_golden():
    m = oracle.multiplication_matrix(TrigPoly.sin(1), 0, 1)
    assert matrix_column(m, 0) == [F(0), F(0), F(1)]
    with pytest.raises(ValueError):
        oracle.multiplication_matrix(TrigPoly.sin(1), 1, 1)


def test_multiplication_matrix_matches_trig_mul():
    f = TrigPoly.make(1, [1, 0], [0, -2])
    m = oracle.multiplication_matrix(f, 2, 4)
    for j, b in enumerate(BASIS_2):
        assert matrix_column(m, j) == window_coords(trig_mul(f, b), 4)


window_polys = st.builds(TrigPoly.make, small_fraction,
                        st.lists(small_fraction, max_size=4),
                        st.lists(small_fraction, max_size=4))


@settings(max_examples=100, deadline=None)
@given(window_polys, st.integers(0, 6), st.integers(0, 2))
def test_fused_derivative_matches_composition(f, m, extra):
    # u -> f u' in one pass equals the oracle's multiplication by f after d/dt,
    # entry for entry; `==` also fails on a stored zero.
    t = m + f.deg + extra
    d = field_matrix(const(1), m, m)
    fused = field_matrix(f, m, t)
    assert fused == from_rows(oracle.dense_product(
        oracle.matrix_rows(oracle.multiplication_matrix(f, m, t)), oracle.matrix_rows(d)))


def stored(m):
    return m.rows, m.cols, m._num, m._den


@settings(max_examples=200, deadline=None)
@given(window_polys, st.integers(0, 6), st.integers(0, 3))
@example(f=TrigPoly.make(F(1, 3), [0] * 63 + [1], [0] * 62 + [2]), m=64, extra=0)
def test_multiplication_matrix_stores_the_reference_rows(f, m, extra):
    # u -> f u' from the package's closed formula on coefficient pairs, as
    # integer terms over 2 lcm(f's denominators), against the oracle's own
    # product-to-sum table, half-terms through from_entries; the example is
    # the degree cap, 1/3 + 2 sin 63t + cos 64t on windows (64, 128)
    t = m + f.deg + extra
    assert stored(field_matrix(f, m, t)) == \
        stored(oracle.multiplication_matrix(f, m, t, derivative=True))


def test_inclusion_matrix_stores_the_reference_rows():
    # the window reference's inclusion stores what the package's window
    # complexes write for it: the integer identity columns over 1
    for s in range(8):
        for t in range(s, 12):
            assert stored(inclusion_matrix(s, t)) == (
                window_dim(t), window_dim(s), [{i: 1} for i in range(window_dim(s))], 1), (s, t)


def test_inclusion_matrix():
    inc = inclusion_matrix(1, 2)
    assert inc.rows == 5 and inc.cols == 3
    assert rank(inc) == 3
    with pytest.raises(ValueError):
        inclusion_matrix(2, 1)
    # the identity on shared coordinates, zero below them
    for s in range(6):
        for t in range(s, s + 4):
            inc = inclusion_matrix(s, t)
            assert inc.to_rows() == [[F(int(i == j)) for j in range(window_dim(s))]
                                     for i in range(window_dim(t))], (s, t)


# -- rank-1 anchors ----------------------------------------------------------

def test_rank1_window_complex_shape():
    a = Rank1Anchor(TrigPoly.sin(1))
    tc = truncated_complex(a, 2)
    assert isinstance(tc, TruncatedComplex)
    assert tc.complex.degrees == (5, 7)
    assert rank(tc.complex.differentials[0]) == 4
    assert cokernel_dim(tc.complex.differentials[0]) == 3


def test_rank1_constant_anchor():
    a = Rank1Anchor(const(1))
    tc = truncated_complex(a, 3)
    d = tc.complex.differentials[0]
    assert (d.rows, d.cols) == (7, 7)
    assert kernel_dim(d) == 1 and cokernel_dim(d) == 1
    assert complex_cohomology(tc.complex).betti == (1, 1)


def test_rank1_sweeps():
    cases = [
        (const(1), (1, 1), 0),
        (TrigPoly.sin(1), (1, 3), -2),
        (TrigPoly.sin(2), (1, 5), -4),
        (TrigPoly.cos(3), (1, 7), -6),
    ]
    for p, betti, euler in cases:
        sweep = stabilized_cohomology(Rank1Anchor(p), 3, 8)
        assert sweep.stabilized
        assert sweep.report.betti == betti, p
        assert sweep.report.euler == euler, p
        assert all(b == betti for _, b in sweep.per_n)


# Factors with zeros on the circle: sin t and sin 2t (zero at pi among others),
# cos t - 1 (a double zero at 0) and sin t + cos t (zeros only away from pi).
shared_factors = st.sampled_from([TrigPoly.sin(1), TrigPoly.make(-1, [1], [0]),
                                  TrigPoly.make(0, [1], [1]), TrigPoly.sin(2)]) | trig_polys


@settings(max_examples=100, deadline=None)
@given(st.lists(trig_polys, min_size=1, max_size=3), shared_factors,
       st.integers(0, 4))
def test_shared_zero_matches_the_sum_of_squares(fs, factor, share):
    # the fields share a zero exactly where the sum of their squares vanishes;
    # 2 in 5 draws multiply every field by one factor
    if share < 2:
        fs = [trig_mul(f, factor) for f in fs]
    squares = trig_lincomb((1, trig_mul(f, f)) for f in fs)
    shared = has_zero_on_circle(squares)
    assert has_zero_on_circle(*fs) == shared
    assert is_transitive(ActionAlgebroid(LieAlgebra(len(fs)), tuple(fs))) == (not shared)


def test_shared_zero_detection():
    one, s1, c1 = const(1), TrigPoly.sin(1), TrigPoly.cos(1)
    assert not has_zero_on_circle(s1, c1)
    assert has_zero_on_circle(s1, TrigPoly.sin(2))                   # 0 and pi
    assert has_zero_on_circle(TrigPoly.make(1, [1], [0]), s1)        # 1 + cos t and sin t at pi
    assert has_zero_on_circle(const(0), const(0))
    assert has_zero_on_circle(const(0), s1)
    assert not has_zero_on_circle(const(0), one)
    assert not has_zero_on_circle(TrigPoly.make(-1, [1], [0]), TrigPoly.make(1, [1], [0]))


def test_rank1_transitivity():
    assert is_transitive(Rank1Anchor(const(1)))
    assert is_transitive(Rank1Anchor(TrigPoly.make(2, [0], [1])))
    assert not is_transitive(Rank1Anchor(TrigPoly.sin(1)))
    assert not is_transitive(Rank1Anchor(const(0)))


def test_rank1_betti_match_oracle():
    for p in (TrigPoly.sin(1), TrigPoly.sin(2), const(1)):
        cx = truncated_complex(Rank1Anchor(p), 4).complex
        assert complex_cohomology(cx).betti == tuple(oracle.complex_betti(cx))


@st.composite
def anchors_of_degree(draw):
    """(d, a nonzero trig polynomial of degree exactly d), d in 0..5."""
    d = draw(st.integers(0, 5))
    coeffs = st.lists(small_fraction, min_size=d, max_size=d)
    p = TrigPoly.make(draw(small_fraction), draw(coeffs), draw(coeffs))
    assume(p.deg == d and not p.is_zero())
    return d, p


@settings(max_examples=60, deadline=None)
@given(anchors_of_degree(), st.sampled_from([0, 1, 3, 6]))
def test_rank1_window_gives_the_closed_form(anchor, n):
    # trig polynomials form a domain, so p d/dt on V_N has only the constants
    # as kernel and rank 2N: window H^1 is dim V_{N+d} - 2N = 2d + 1 at every N
    d, p = anchor
    tc = truncated_complex(Rank1Anchor(p), n)
    assert complex_cohomology(tc.complex).betti == (1, 2 * d + 1)


# -- action algebroids -------------------------------------------------------

def sl2_action():
    a, _ = catalog.algebroid("sl2_action")
    return a


def test_check_action():
    assert check_action(sl2_action())
    su2 = catalog.algebra("su2")
    bad = ActionAlgebroid(algebra=su2,
                          phi=(const(1), TrigPoly.cos(2), TrigPoly.sin(2)))
    assert not check_action(bad)
    with pytest.raises(ValidationError):
        truncated_complex(bad, 3)


def test_action_violation_names_the_pair():
    # r3 is abelian, but [1 d/dt, sin t d/dt] = cos t d/dt: the pair (0, 2) fails
    bad = ActionAlgebroid(algebra=catalog.algebra("r3"),
                          phi=(const(1), const(1), TrigPoly.sin(1)))
    assert action_violation(bad) == (0, 2)
    assert action_violation(sl2_action()) is None
    with pytest.raises(ValidationError, match=r"on basis pair \(0, 2\)"):
        truncated_complex(bad, 2)


nonzero_fraction = small_fraction.filter(bool)


@st.composite
def perturbed_actions(draw):
    """sl2_action in a rescaled basis (fractional structure constants) in
    half the draws, else a catalog action algebroid or r3 or h3 acting by
    zero fields; some fields are replaced by zero or by a random trig
    polynomial, and in 4 of 5 draws one window coordinate of one field is
    changed.  About 60% of the draws break the bracket."""
    name = draw(st.sampled_from([*catalog.ALGEBROID_NAMES, "r3", "h3"]) | st.just("rescaled"))
    if name in ("r3", "h3"):
        g = catalog.algebra(name)
        phi = [TrigPoly()] * g.dim
    elif name == "rescaled":  # e'_j = s_j e_j, phi'_j = s_j phi_j
        a = sl2_action()
        scales = [draw(nonzero_fraction) for _ in range(3)]
        g = oracle.change_basis(a.algebra, RationalMatrix.from_entries(
            3, 3, [((j, j), x) for j, x in enumerate(scales)]))
        phi = [trig_lincomb([(x, f)]) for f, x in zip(a.phi, scales)]
    else:
        a, _ = catalog.algebroid(name)
        g, phi = a.algebra, list(a.phi)
    for i in range(g.dim):
        phi[i] = draw(st.sampled_from([phi[i], phi[i], TrigPoly()]) | trig_polys)
    if draw(st.integers(0, 4)):
        i, k = draw(st.integers(0, g.dim - 1)), draw(st.integers(0, 6))
        coords = [F(0)] * 7
        coords[k] = draw(nonzero_fraction)
        phi[i] = trig_lincomb([(1, phi[i]), (1, oracle._from_coords(coords))])
    return ActionAlgebroid(g, tuple(phi))


@settings(max_examples=80, deadline=None)
@given(perturbed_actions())
def test_action_violation_matches_the_bracket_of_every_pair(a):
    # integer field blocks against the Fraction bracket of every pair: the same first pair
    assert action_violation(a) == oracle.action_violation(a)
    assert check_action(a) == (oracle.action_violation(a) is None)


def test_action_validates_phi_length():
    bad = ActionAlgebroid(algebra=catalog.algebra("r2"), phi=(const(1),))
    with pytest.raises(ValidationError):
        truncated_complex(bad, 3)
    assert not check_action(bad)


def test_action_matches_rank1_for_line_algebra():
    r1 = catalog.algebra("r1")
    anchors = (TrigPoly.sin(1), TrigPoly.sin(2), const(1),
               TrigPoly.make(0, [0, 0], [2, F(1, 2)]), const(0))
    for p in anchors:
        act = ActionAlgebroid(algebra=r1, phi=(p,))
        anc = Rank1Anchor(p)
        assert isinstance(anc, ActionAlgebroid) and anc.p == p
        assert is_transitive(anc) == is_transitive(act)
        for n in range(6):
            ca = truncated_complex(act, n)
            cb = truncated_complex(anc, n)
            assert ca.complex.degrees == cb.complex.degrees
            assert ca.complex.differentials == cb.complex.differentials


def test_sl2_action_complex():
    a = sl2_action()
    assert a.anchor_degree() == 2
    assert is_transitive(a)
    tc = truncated_complex(a, 4)
    assert tc.complex.degrees == (9, 3 * 13, 3 * 17, 21)
    assert tc.complex.chain_defect() is None
    sweep = stabilized_cohomology(a, 4, 10)
    assert sweep.stabilized
    assert sweep.report.euler == 0


@pytest.mark.parametrize("make, calls", [
    (sl2_action, 6),  # three for the action check, one block per field for the complex
    (lambda: product_with_lie_algebra(sl2_action(), catalog.algebra("su2")), 6),
    (lambda: catalog.algebroid("sin_t")[0], 1),
    (lambda: catalog.algebroid("const1")[0], 1),
    (lambda: ActionAlgebroid(catalog.algebra("r2"), (TrigPoly(), TrigPoly())), 0),
    (lambda: Rank1Anchor(TrigPoly()), 0),
], ids=["sl2_action", "sl2_action x su2", "sin_t", "const1", "r2 by zero", "zero anchor"])
def test_each_field_block_is_built_once_per_complex(make, calls, monkeypatch):
    # Every narrower window's block is cut from the one on the widest window.
    a, built = make(), []
    real = circle.field_matrix
    monkeypatch.setattr(circle, "field_matrix", lambda *args: built.append(args) or real(*args))
    a._truncated_complex(5)
    assert len(built) == calls


def test_zero_fields_keep_their_forms_windows():
    # aff1 acting by (sin t, 0): slot 1 does not move, so at N = 2 degree 1 is
    # V_3 + V_2 and degree 2 is V_3, and d^2 = 0 still holds on the nose.
    # Harmonic k of a form of window w enters at N = max(0, k - (w - 2)).
    a = ActionAlgebroid(catalog.algebra("aff1"), (TrigPoly.sin(1), TrigPoly()))
    tc = truncated_complex(a, 2)
    assert tc.complex.degrees == (5, 7 + 5, 7)
    assert tc.complex.chain_defect() is None
    assert tc.levels[1] == (0, 0, 0, 1, 1, 2, 2) + (0, 1, 1, 2, 2)


def test_zero_fields_outside_a_subalgebra_move_every_slot():
    # The zero fields of e0 and e1 span no subalgebra: [e0, e1] = e2 - e3.  So
    # every slot moves its window, as for an algebroid with no zero field.
    g = LieAlgebra.make(4, {(0, 1): {2: 1, 3: -1}})
    a = ActionAlgebroid(g, (TrigPoly(), TrigPoly(), TrigPoly.sin(1), TrigPoly.sin(1)))
    sweep = stabilized_cohomology(a, 0, 6)
    assert sweep.per_n == tuple((n, (1, 5, 8, 7, 3)) for n in range(7))
    assert truncated_complex(a, 2).complex.degrees == (5, 28, 54, 44, 13)


def test_abelian_action_with_kernel():
    # R^2 acting through dependent fields: the anchor has a kernel line, and
    # the alternating sum of Betti numbers still vanishes.
    r2 = catalog.algebra("r2")
    act = ActionAlgebroid(algebra=r2, phi=(TrigPoly.sin(1), TrigPoly.sin(1, 2)))
    assert check_action(act)
    assert not is_transitive(act)
    sweep = stabilized_cohomology(act, 3, 6)
    assert sweep.stabilized
    assert sweep.report.euler == 0
    cx = truncated_complex(act, 3).complex
    assert complex_cohomology(cx).betti == tuple(oracle.complex_betti(cx))


def test_truncated_window_euler_is_dimension_bound():
    # For an action algebroid of dim >= 2 the alternating degree sum is zero
    # at every window, so the Euler characteristic vanishes identically.
    a = sl2_action()
    for n in (4, 5, 6):
        cx = truncated_complex(a, n).complex
        assert sum((-1) ** p * d for p, d in enumerate(cx.degrees)) == 0


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        truncated_complex(Rank1Anchor(TrigPoly.sin(1)), -1)


# -- sweep mechanics ----------------------------------------------------------

@dataclass(frozen=True)
class _DriftingStub:
    """Fake algebroid whose Betti numbers never settle: coordinate i of its
    one degree enters at N = i, so window N has N + 1 cochains."""

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        cx = CochainComplex(degrees=(n + 1,),
                            differentials=())
        return TruncatedComplex(N=n, complex=cx, levels=(tuple(range(n + 1)),))


@dataclass(frozen=True)
class _FixedStub:
    """Fake algebroid whose widest complex is one given differential."""

    d: tuple
    levels: tuple

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        m = from_rows(self.d)
        cx = CochainComplex(degrees=(m.cols, m.rows), differentials=(m,))
        return TruncatedComplex(N=n, complex=cx, levels=self.levels)


def test_sweep_requires_three_windows():
    with pytest.raises(ValueError):
        stabilized_cohomology(Rank1Anchor(TrigPoly.sin(1)), 3, 4)


def test_sweep_not_stabilized_strict():
    table = filtered_sweep(_DriftingStub(), 1, 4).per_n
    assert [n for n, _ in table] == [1, 2, 3, 4]
    assert [b for _, b in table] == [(2,), (3,), (4,), (5,)]


def test_sweep_not_stabilized_relaxed():
    sweep = filtered_sweep(_DriftingStub(), 1, 4)
    assert not sweep.stabilized
    assert sweep.report.betti == (5,)


def test_sweep_rejects_negative_window():
    with pytest.raises(ValueError, match="nonnegative windows"):
        stabilized_cohomology(Rank1Anchor(TrigPoly.sin(1)), -1, 3)


def test_sweep_asserts_nested_windows():
    # Column 1 enters at level 1 but maps into row 0, which enters at level 2.
    stub = _FixedStub(d=((0, 1), (0, 0)), levels=((0, 1), (2, 0)))
    pair = r"d_0 maps column 1 \(level 1\) into row 0 \(level 2\)"
    with pytest.raises(ValidationError, match=pair):
        filtered_sweep(stub, 0, 2)
    nested = _FixedStub(d=((0, 1), (0, 0)), levels=((0, 2), (1, 0)))
    assert [b for _, b in filtered_sweep(nested, 0, 2).per_n] == \
        [(1, 1), (1, 2), (1, 1)]


def test_sweep_checks_chain_condition_on_widest_window():
    @dataclass(frozen=True)
    class _Curved:
        def _truncated_complex(self, n: int) -> TruncatedComplex:
            one = RationalMatrix.identity(1)
            cx = CochainComplex(degrees=(1, 1, 1), differentials=(one, one))
            return TruncatedComplex(N=n, complex=cx, levels=((n,), (n,), (n,)))

    with pytest.raises(ChainConditionError) as err:
        filtered_sweep(_Curved(), 0, 2)
    assert err.value.degree == 0


def test_sweep_checks_chain_condition_on_the_complexes_it_builds(monkeypatch):
    # d >= 1 builds window 0, d = 0 one CE complex per harmonic: each is d^2-checked
    one = RationalMatrix.identity(1)
    curved = CochainComplex(degrees=(1, 1, 1), differentials=(one, one))
    with monkeypatch.context() as m:
        m.setattr(ActionAlgebroid, "_truncated_complex", lambda self, n: curved)
        with pytest.raises(ChainConditionError) as err:
            stabilized_cohomology(sl2_action(), 4, 6)
        assert err.value.degree == 0
    # d_1 d_0 has the entry 1 at (0, 0) on every harmonic of r2 + constant fields
    def curved_ce(g, action, layouts):
        dims = [sum(fibers) for _, fibers, _, _ in layouts]
        return CochainComplex(tuple(dims), tuple(RationalMatrix.from_entries(
            dims[p + 1], dims[p], [((0, 0), 1)]) for p in range(2)))

    monkeypatch.setattr(circle, "form_columns", curved_ce)
    with pytest.raises(ChainConditionError) as err:
        stabilized_cohomology(ActionAlgebroid(catalog.algebra("r2"), (const(1), const(2))), 0, 2)
    assert err.value.degree == 0


def test_a_late_resonance_is_swept_from_its_harmonics():
    # diamond4 with the constant field 1/5 on e0 and zero fields on e1..e3:
    # harmonic 5 is resonant, so windows 0..4 agree and window 5 jumps.  The
    # three-equal rule's verdict on N = 0..4 is not asserted here.
    g = catalog.algebra("diamond4")
    a = ActionAlgebroid(g, (TrigPoly.make(F(1, 5)),) + (TrigPoly(),) * 3)
    sweep = stabilized_cohomology(a, 0, 8)
    assert sweep.per_n == tuple((n, (1, 1, 0, 1, 1) if n <= 4 else (1, 3, 4, 3, 1))
                                for n in range(9))
    assert stabilized_cohomology(a, 0, 4).per_n == sweep.per_n[:5]


def test_pivot_levels_checks_its_own_preconditions():
    one = RationalMatrix.identity(1)
    curved = CochainComplex(degrees=(1, 1, 1), differentials=(one, one))
    for levels in (None, ((0,), (0,), (0,))):
        with pytest.raises(ChainConditionError) as err:
            pivot_levels(curved, levels)
        assert err.value.degree == 0
    stub = _FixedStub(d=((0, 1), (0, 0)), levels=((0, 1), (2, 0)))
    tc = stub._truncated_complex(2)
    with pytest.raises(ValidationError) as err:
        pivot_levels(tc.complex, tc.levels)
    assert str(err.value) == \
        "windows are not nested: d_0 maps column 1 (level 1) into row 0 (level 2)"
    # curved and not nested (d_0 maps level 0 into level 1): d^2 is checked first
    with pytest.raises(ChainConditionError):
        pivot_levels(curved, ((0,), (1,), (0,)))


def test_truncated_complex_levels_match_degrees():
    cx = CochainComplex(degrees=(2,), differentials=())
    with pytest.raises(ValueError, match="one level per coordinate"):
        TruncatedComplex(N=0, complex=cx, levels=((0,),))


def test_window_levels_give_every_narrower_window():
    # The coordinates of level <= N number the window-N complex's degrees.
    anchor = Rank1Anchor(TrigPoly.make(1, [0, 2], [1, 0]))
    for a in (sl2_action(), anchor, product_with_lie_algebra(anchor, catalog.algebra("aff1"))):
        wide = truncated_complex(a, 6)
        for n in range(7):
            narrow = truncated_complex(a, n).complex
            assert tuple(sum(lv <= n for lv in deg) for deg in wide.levels) == narrow.degrees
