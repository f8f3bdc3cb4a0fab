"""Trigonometric polynomials, windows, and circle algebroids."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle
from algebroid import catalog, polyroots
from algebroid.circle import (
    ActionAlgebroid,
    Rank1Anchor,
    TrigPoly,
    TruncatedComplex,
    action_violation,
    check_action,
    count_simple_zeros,
    derivative_matrix,
    has_zero_on_circle,
    inclusion_matrix,
    is_transitive,
    multiplication_matrix,
    stabilized_cohomology,
    trig_derivative,
    trig_mul,
    truncated_complex,
    vf_bracket,
    weierstrass_numerator,
    window_coords,
    window_dim,
)
from algebroid.errors import NonsimpleZeroError, NotStabilizedError, ValidationError
from algebroid.exactlinalg import (
    CochainComplex,
    RationalMatrix,
    cokernel_dim,
    complex_cohomology,
    kernel_dim,
    rank,
)

F = Fraction


# -- trig polynomial arithmetic ----------------------------------------------

def test_normalization():
    assert TrigPoly.make(0, [0, 0], [0, 0]) == TrigPoly.const(0)
    assert TrigPoly.make(1, [1, 0], [0, 0]).deg == 1
    with pytest.raises(ValueError):
        TrigPoly(constant=F(0), cos_coeffs=(F(0),), sin_coeffs=(F(0),))
    with pytest.raises(ValueError):
        TrigPoly.cos(0)


def test_addition_and_scaling():
    f = TrigPoly.cos(1) + TrigPoly.sin(2).scaled(3)
    assert f.cos_coeff(1) == 1 and f.sin_coeff(2) == 3
    assert (f - f).is_zero()
    assert f.deg == 2


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
    assert trig_mul(TrigPoly.const(0), c2).is_zero()


def test_multiplication_is_commutative_and_degree_additive():
    f = TrigPoly.make(1, [2, 0], [F(-1, 3), 1])
    g = TrigPoly.make(F(1, 2), [0, 0, 4], [1, 0, 0])
    assert trig_mul(f, g) == trig_mul(g, f)
    assert trig_mul(f, g).deg == f.deg + g.deg


def test_derivative():
    f = TrigPoly.make(5, [1, 0], [0, 2])
    # d/dt (5 + cos t + 2 sin 2t) = -sin t + 4 cos 2t
    assert trig_derivative(f) == TrigPoly.make(0, [0, 4], [-1, 0])


small_fraction = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
trig_polys = st.builds(TrigPoly.make, small_fraction,
                       st.lists(small_fraction, max_size=3),
                       st.lists(small_fraction, max_size=3))


@settings(max_examples=150, deadline=None)
@given(trig_polys, trig_polys)
def test_product_and_derivative_match_half_angle_substitution(f, g):
    # An independent reference for the product-to-sum table and d/dt: under
    # u = tan(t/2), W(f) = f (1+u^2)^deg f turns trig products into
    # polynomial products, and d/dt into ((1+u^2) d/du - 2 deg f u) / 2.
    w = weierstrass_numerator
    assert polyroots.trim(w(trig_mul(f, g))) == polyroots.trim(polyroots.mul(w(f), w(g)))
    d = f.deg
    assume(d >= 1)
    p = w(f)
    expected = polyroots.scale(polyroots.sub(
        polyroots.mul([F(1), F(0), F(1)], polyroots.derivative(p)),
        polyroots.mul([F(0), F(2 * d)], p)), F(1, 2))
    assert polyroots.trim(w(trig_derivative(f))) == polyroots.trim(expected)


def test_vector_field_brackets():
    one, c2, s2 = TrigPoly.const(1), TrigPoly.cos(2), TrigPoly.sin(2)
    assert vf_bracket(one, c2) == TrigPoly.sin(2, -2)
    assert vf_bracket(c2, s2) == TrigPoly.const(2)
    assert vf_bracket(s2, one) == TrigPoly.cos(2, -2)
    # antisymmetry on a messier pair
    f = TrigPoly.make(1, [1], [0])
    g = TrigPoly.make(0, [0, 1], [2, 0])
    assert vf_bracket(f, g) == -vf_bracket(g, f)


def test_value_at_quarter():
    f = TrigPoly.make(F(1, 2), [1], [0])   # 1/2 + cos t
    assert f.value_at_quarter(0) == F(3, 2)
    assert f.value_at_quarter(1) == F(1, 2)
    assert f.value_at_quarter(2) == F(-1, 2)
    assert TrigPoly.sin(1).value_at_quarter(1) == 1
    assert TrigPoly.cos(2).value_at_quarter(1) == -1


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
    assert not has_zero_on_circle(TrigPoly.const(1))
    assert has_zero_on_circle(TrigPoly.const(0))


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
        count_simple_zeros(TrigPoly.const(0))


# -- windows -----------------------------------------------------------------

# the pinned basis order of V_2
BASIS_2 = [TrigPoly.const(1), TrigPoly.cos(1), TrigPoly.sin(1),
           TrigPoly.cos(2), TrigPoly.sin(2)]


def test_window_dims_and_basis():
    assert [window_dim(m) for m in range(4)] == [1, 3, 5, 7]
    for i, b in enumerate(BASIS_2):
        assert window_coords(b, 2) == [F(int(i == k)) for k in range(5)]


def test_window_coords_roundtrip():
    f = TrigPoly.make(3, [0, F(1, 2)], [-1, 0])
    coords = window_coords(f, 2)
    rebuilt = TrigPoly.const(0)
    for x, b in zip(coords, BASIS_2):
        rebuilt = rebuilt + b.scaled(x)
    assert rebuilt == f
    assert window_coords(f, 3) == coords + [0, 0]
    with pytest.raises(ValueError):
        window_coords(f, 1)  # window too small


def test_derivative_matrix_golden():
    m = derivative_matrix(1)
    # basis (1, cos t, sin t): d/dt sends cos -> -sin, sin -> cos
    assert m.to_rows() == [
        [F(0), F(0), F(0)],
        [F(0), F(0), F(1)],
        [F(0), F(-1), F(0)],
    ]


def test_multiplication_matrix_golden():
    m = multiplication_matrix(TrigPoly.sin(1), 0, 1)
    assert m.column(0) == [F(0), F(0), F(1)]
    with pytest.raises(ValueError):
        multiplication_matrix(TrigPoly.sin(1), 1, 1)


def test_multiplication_matrix_matches_trig_mul():
    f = TrigPoly.make(1, [1, 0], [0, -2])
    m = multiplication_matrix(f, 2, 4)
    for j, b in enumerate(BASIS_2):
        assert m.column(j) == window_coords(trig_mul(f, b), 4)


def test_inclusion_matrix():
    inc = inclusion_matrix(1, 2)
    assert inc.rows == 5 and inc.cols == 3
    assert rank(inc) == 3
    with pytest.raises(ValueError):
        inclusion_matrix(2, 1)


# -- rank-1 anchors ----------------------------------------------------------

def test_rank1_window_complex_shape():
    a = Rank1Anchor(TrigPoly.sin(1))
    tc = truncated_complex(a, 2)
    assert isinstance(tc, TruncatedComplex)
    assert tc.windows == (2, 3)
    assert tc.complex.degrees == (5, 7)
    assert rank(tc.complex.differentials[0]) == 4
    assert cokernel_dim(tc.complex.differentials[0]) == 3


def test_rank1_constant_anchor():
    a = Rank1Anchor(TrigPoly.const(1))
    tc = truncated_complex(a, 3)
    d = tc.complex.differentials[0]
    assert (d.rows, d.cols) == (7, 7)
    assert kernel_dim(d) == 1 and cokernel_dim(d) == 1
    assert complex_cohomology(tc.complex).betti == (1, 1)


def test_rank1_sweeps():
    cases = [
        (TrigPoly.const(1), (1, 1), 0),
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


def test_rank1_transitivity():
    assert is_transitive(Rank1Anchor(TrigPoly.const(1)))
    assert is_transitive(Rank1Anchor(TrigPoly.make(2, [0], [1])))
    assert not is_transitive(Rank1Anchor(TrigPoly.sin(1)))
    assert not is_transitive(Rank1Anchor(TrigPoly.const(0)))


def test_rank1_betti_match_oracle():
    for p in (TrigPoly.sin(1), TrigPoly.sin(2), TrigPoly.const(1)):
        cx = truncated_complex(Rank1Anchor(p), 4).complex
        assert complex_cohomology(cx).betti == tuple(oracle.complex_betti(cx))


# -- action algebroids -------------------------------------------------------

def sl2_action():
    a, _ = catalog.algebroid("sl2_action")
    return a


def test_check_action():
    assert check_action(sl2_action())
    su2 = catalog.algebra("su2")
    bad = ActionAlgebroid(algebra=su2,
                          phi=(TrigPoly.const(1), TrigPoly.cos(2), TrigPoly.sin(2)))
    assert not check_action(bad)
    with pytest.raises(ValidationError):
        truncated_complex(bad, 3)


def test_action_violation_names_the_pair():
    # r3 is abelian, but [1 d/dt, sin t d/dt] = cos t d/dt: the pair (0, 2) fails
    bad = ActionAlgebroid(algebra=catalog.algebra("r3"),
                          phi=(TrigPoly.const(1), TrigPoly.const(1), TrigPoly.sin(1)))
    assert action_violation(bad) == (0, 2)
    assert action_violation(sl2_action()) is None
    with pytest.raises(ValidationError, match=r"on basis pair \(0, 2\)"):
        truncated_complex(bad, 2)


def test_action_validates_phi_length():
    bad = ActionAlgebroid(algebra=catalog.algebra("r2"), phi=(TrigPoly.const(1),))
    with pytest.raises(ValidationError):
        truncated_complex(bad, 3)
    assert not check_action(bad)


def test_action_matches_rank1_for_line_algebra():
    r1 = catalog.algebra("r1")
    act = ActionAlgebroid(algebra=r1, phi=(TrigPoly.sin(1),))
    anc = Rank1Anchor(TrigPoly.sin(1))
    for n in range(4):
        ca = truncated_complex(act, n).complex
        cb = truncated_complex(anc, n).complex
        assert ca.degrees == cb.degrees
        assert ca.differentials == cb.differentials


def test_sl2_action_complex():
    a = sl2_action()
    assert a.anchor_degree() == 2
    assert is_transitive(a)
    tc = truncated_complex(a, 4)
    assert tc.windows == (4, 6, 8, 10)
    assert tc.complex.degrees == (9, 3 * 13, 3 * 17, 21)
    assert tc.complex.chain_defect() is None
    sweep = stabilized_cohomology(a, 4, 10)
    assert sweep.stabilized
    assert sweep.report.euler == 0


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
    """Fake algebroid whose Betti numbers never settle."""

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        cx = CochainComplex(degrees=(n + 1,),
                            differentials=())
        return TruncatedComplex(N=n, complex=cx, windows=None)

    def _is_transitive(self) -> bool:
        return False


def test_sweep_requires_three_windows():
    with pytest.raises(ValueError):
        stabilized_cohomology(Rank1Anchor(TrigPoly.sin(1)), 3, 4)


def test_sweep_not_stabilized_strict():
    with pytest.raises(NotStabilizedError) as err:
        stabilized_cohomology(_DriftingStub(), 1, 4)
    table = err.value.per_n
    assert [n for n, _ in table] == [1, 2, 3, 4]
    assert [b for _, b in table] == [(2,), (3,), (4,), (5,)]


def test_sweep_not_stabilized_relaxed():
    sweep = stabilized_cohomology(_DriftingStub(), 1, 4, strict=False)
    assert not sweep.stabilized
    assert sweep.report.betti == (5,)
