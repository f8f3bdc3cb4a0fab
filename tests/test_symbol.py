"""Pointwise symbol complexes."""

import random
from fractions import Fraction
from math import comb

import pytest

import oracle
from algebroid.errors import ChainConditionError
from algebroid.exactlinalg import CochainComplex, RationalMatrix
from algebroid.exterior import wedge_matrix
from algebroid.symbol import (
    FiberData,
    euler_form_factor,
    exactness_check,
    pullback_covector,
    symbol_complex,
)

F = Fraction


def test_fiber_validation():
    with pytest.raises(ValueError):
        FiberData(dim_a=2, dim_m=1, anchor=RationalMatrix.zeros(2, 2))


def test_pullback_golden():
    f = FiberData(dim_a=3, dim_m=2,
                  anchor=RationalMatrix.from_rows([[1, 0, 2], [0, 1, "1/2"]]))
    beta = pullback_covector(f, [1, -2])
    assert beta == [F(1), F(-2), F(1)]
    with pytest.raises(ValueError):
        pullback_covector(f, [1])


def test_symbol_complex_exact_when_beta_nonzero():
    # the fiber of the sl2 circle action at t = 0 has anchor row (1, 1, 0)
    f = FiberData(dim_a=3, dim_m=1, anchor=RationalMatrix.from_rows([[1, 1, 0]]))
    cx = symbol_complex(f, [1])
    assert cx.degrees == (1, 3, 3, 1)
    assert cx.chain_defect() is None
    rep = exactness_check(cx)
    assert rep.exact
    assert rep.per_degree == (True, True, True, True)


def test_symbol_complex_not_exact_when_beta_zero():
    f = FiberData(dim_a=2, dim_m=1, anchor=RationalMatrix.zeros(1, 2))
    rep = exactness_check(symbol_complex(f, [1]))
    assert not rep.exact
    assert rep.per_degree == (False, False, False)
    # likewise for a nonzero anchor annihilated by this particular alpha
    f2 = FiberData(dim_a=2, dim_m=2,
                   anchor=RationalMatrix.from_rows([[1, 0], [0, 0]]))
    rep2 = exactness_check(symbol_complex(f2, [0, 1]))
    assert not rep2.exact


def test_symbol_complex_coefficient_rank_scales():
    f = FiberData(dim_a=3, dim_m=1,
                  anchor=RationalMatrix.from_rows([[1, 1, 0]]), dim_e=4)
    cx = symbol_complex(f, [1])
    assert cx.degrees == (4, 12, 12, 4)
    assert exactness_check(cx).exact


def test_random_surjective_fibers_are_exact():
    rng = random.Random(411)
    for _ in range(40):
        dim_m = rng.randint(1, 3)
        dim_a = dim_m + rng.randint(0, 2)
        # build a surjective anchor: random square invertible part padded
        while True:
            rows = [[F(rng.randint(-4, 4)) for _ in range(dim_a)]
                    for _ in range(dim_m)]
            anchor = RationalMatrix.from_rows(rows)
            from algebroid.exactlinalg import rank as _rank
            if _rank(anchor) == dim_m:
                break
        f = FiberData(dim_a=dim_a, dim_m=dim_m, anchor=anchor,
                      dim_e=rng.randint(1, 2))
        # any nonzero alpha gives nonzero beta for a surjective anchor
        alpha = [F(0)] * dim_m
        alpha[rng.randrange(dim_m)] = F(rng.choice([1, 2, -3]))
        assert exactness_check(symbol_complex(f, alpha)).exact


def test_exactness_check_rejects_non_complex():
    d0 = RationalMatrix.from_rows([[1], [0]])
    d1 = RationalMatrix.from_rows([[1, 0]])
    with pytest.raises(ChainConditionError):
        exactness_check(CochainComplex(degrees=(1, 2, 1), differentials=(d0, d1)))


def test_euler_form_factor():
    assert euler_form_factor(0, 1) == 1
    assert euler_form_factor(0, 7) == 7
    for kernel_rank in range(1, 6):
        assert euler_form_factor(kernel_rank, 3) == 0
    with pytest.raises(ValueError):
        euler_form_factor(-1, 2)


def test_symbol_complex_is_coefficient_major():
    # dim_E = 2: d_r = I_E (x) sum_i beta_i (e^i ^ -), coefficient index major
    f = FiberData(dim_a=3, dim_m=1, anchor=RationalMatrix.from_rows([[1, "-1/2", 2]]), dim_e=2)
    beta = pullback_covector(f, [3])
    cx = symbol_complex(f, [3])
    identity = oracle.matrix_rows(RationalMatrix.identity(2))
    for r in range(3):
        terms = [(0, 0, identity, oracle.matrix_rows(wedge_matrix(3, r, i).scaled(b)))
                 for i, b in enumerate(beta)]
        dense = oracle.kron_sum_dense(2 * comb(3, r + 1), 2 * comb(3, r), terms)
        assert cx.differentials[r] == RationalMatrix.from_rows(dense)
