"""Real-root counting for rational polynomials, against the Fraction
Euclid and Sturm chains of `oracle`."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracle
from fixtures import has_multiple_real_root
from algebroid.polyroots import (
    count_real_roots,
    derivative,
    poly_gcd,
    simple_real_root_count,
)

F = Fraction


def test_divmod():
    # (x^2 - 1) = (x + 1)(x - 1), in the oracle's long division
    q, r = oracle.divmod_poly([F(-1), F(0), F(1)], [F(1), F(1)])
    assert q == [F(-1), F(1)]
    assert r == []


def test_gcd():
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1 up to normalization
    g = poly_gcd([F(-1), F(0), F(1)], [F(1), F(-2), F(1)])
    assert g == [F(-1), F(1)]


def test_derivative():
    assert derivative([F(3), F(2), F(5)]) == [F(2), F(10)]
    assert derivative([F(7)]) == []


def test_count_real_roots():
    # x^2 - 2: two real roots
    assert count_real_roots([F(-2), F(0), F(1)]) == 2
    # x^2 + 1: none
    assert count_real_roots([F(1), F(0), F(1)]) == 0
    # x^3 - x = x(x-1)(x+1): three
    assert count_real_roots([F(0), F(-1), F(0), F(1)]) == 3
    # (x - 1)^2: one distinct root even though it is a double root
    assert count_real_roots([F(1), F(-2), F(1)]) == 1
    # degree 0 and linear
    assert count_real_roots([F(5)]) == 0
    assert count_real_roots([F(-3), F(2)]) == 1


def test_count_real_roots_wilkinson_style():
    # product (x - k) for k = 1..6 has exactly six distinct roots
    poly = [F(1)]
    for k in range(1, 7):
        poly = oracle.mul(poly, [F(-k), F(1)])
    assert count_real_roots(poly) == 6


def test_has_multiple_real_root():
    assert has_multiple_real_root([F(1), F(-2), F(1)])          # (x-1)^2
    assert not has_multiple_real_root([F(-2), F(0), F(1)])      # x^2 - 2
    # (x^2 + 1)^2 has a repeated factor but no real root
    sq = oracle.mul([F(1), F(0), F(1)], [F(1), F(0), F(1)])
    assert not has_multiple_real_root(sq)


coefficients = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
polys = st.lists(coefficients, max_size=7)


@st.composite
def polys_with_repeats(draw):
    # 2 in 5 draws carry a squared factor; the zero polynomial is included
    p = draw(polys)
    if draw(st.integers(0, 4)) < 2:
        s = draw(st.lists(coefficients, min_size=2, max_size=4))
        p = oracle.mul(p, oracle.mul(s, s))
    return p


@settings(max_examples=200, deadline=None)
@given(polys_with_repeats(), polys, st.integers(0, 2))
def test_root_counts_and_gcd_match_the_fraction_euclid(p, q, share):
    # a shared factor in 2 of 3 draws
    if share:
        q = oracle.mul(q, p[:3])
    assert oracle.outcome(count_real_roots, p) == oracle.outcome(oracle.count_real_roots, p)
    assert has_multiple_real_root(p) == oracle.has_multiple_real_root(p)
    g = poly_gcd(p, q)
    assert g == oracle.poly_gcd(p, q)
    assert all(type(x) is Fraction for x in g)
    assert derivative(p) == oracle.derivative(p)
    if any(p):
        expected = None if oracle.has_multiple_real_root(p) else oracle.count_real_roots(p)
        assert simple_real_root_count(p) == expected
