"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each criterion fails loudly on any violated assertion.
"""

import random
import time
from fractions import Fraction

import pytest

import oracle
from fixtures import const, ts1_coalgebra
from oracle import change_basis, from_rows, kernel_dim, rank_modular, truncated_complex, \
    verify_hopf
from algebroid import catalog
from algebroid.circle import (
    ActionAlgebroid,
    Rank1Anchor,
    TrigPoly,
    is_transitive,
    stabilized_cohomology,
)
from algebroid.errors import ValidationError
from algebroid.exactlinalg import (
    RationalMatrix,
    complex_cohomology,
    rank,
)
from algebroid.hopf import (
    addition,
    addition_coproduct,
    check_h_structure,
    exterior_structure_check,
    hopf_axioms,
    primitives,
)
from algebroid.kunneth import (
    direct_sum,
    kunneth_verify,
    product_with_lie_algebra,
    tensor_rep,
)
from algebroid.liealg import (
    LieAlgebra,
    adjoint_representation,
    ce_complex,
    check_jacobi,
    check_representation,
    lie_cohomology,
    trivial_representation,
)
from algebroid.symbol import FiberData, exactness_check, symbol_complex

F = Fraction


def verdict(number: int, text: str) -> None:
    print(f"CRITERION {number}: PASS - {text}", flush=True)


def test_criterion_1_euler_vanishes_for_nonzero_algebras():
    started = time.monotonic()
    for name in catalog.ALGEBRA_NAMES:
        rep = lie_cohomology(trivial_representation(catalog.algebra(name)))
        assert rep.euler == 0, name
    zero = lie_cohomology(trivial_representation(catalog.algebra("zero")))
    assert zero.betti == (1,) and zero.euler == 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    verdict(1, f"euler characteristic 0 for {len(catalog.ALGEBRA_NAMES)} nonzero "
               f"algebras, 1 for the zero algebra ({elapsed:.2f}s)")


def test_criterion_2_point_dichotomy_with_coefficients():
    # Over a point the anchor is zero, so a nonzero algebra forces euler
    # characteristic 0 for every coefficient module, while the zero algebra
    # gives the coefficient rank.
    nonzero_cases = [
        adjoint_representation(catalog.algebra("su2")),
        adjoint_representation(catalog.algebra("sl2")),
        adjoint_representation(catalog.algebra("h3")),
        catalog.representation("aff1_rep2"),
        catalog.representation("aff1_char"),
        trivial_representation(catalog.algebra("su2"), 2),
    ]
    for rep in nonzero_cases:
        assert lie_cohomology(rep).euler == 0
    for k in (1, 2, 3):
        rep = lie_cohomology(trivial_representation(catalog.algebra("zero"), k))
        assert rep.euler == k
    verdict(2, "euler characteristic 0 with nontrivial coefficients on nonzero "
               "algebras; equals coefficient rank on the zero algebra")


def test_criterion_3_engine_matches_independent_oracle():
    pinned = {"h3": (1, 2, 2, 1), "su2": (1, 0, 0, 1),
              "sl2": (1, 0, 0, 1), "aff1": (1, 1, 0)}
    for name, betti in pinned.items():
        cx = ce_complex(trivial_representation(catalog.algebra(name)))
        assert complex_cohomology(cx).betti == betti
        assert tuple(oracle.complex_betti(cx)) == betti

    complexes = []
    for name in ("zero",) + catalog.ALGEBRA_NAMES:
        complexes.append(ce_complex(trivial_representation(catalog.algebra(name))))
    for name in ("su2", "sl2", "h3", "aff1", "diamond4"):
        complexes.append(ce_complex(adjoint_representation(catalog.algebra(name))))
    for name in catalog.REPRESENTATION_NAMES:
        complexes.append(ce_complex(catalog.representation(name)))
    for name in catalog.ALGEBROID_NAMES:
        a, (n_min, _) = catalog.algebroid(name)
        complexes.append(truncated_complex(a, n_min).complex)
        complexes.append(truncated_complex(a, n_min + 1).complex)
    for cx in complexes:
        assert complex_cohomology(cx).betti == tuple(oracle.complex_betti(cx))
    verdict(3, f"pinned Betti vectors and {len(complexes)} further complexes "
               "match the brute-force elimination oracle")


def test_criterion_4_nonsurjective_anchor_counterexamples():
    started = time.monotonic()
    cases = [
        (TrigPoly.sin(1), (1, 3), -2),
        (TrigPoly.sin(2), (1, 5), -4),
    ]
    for p, betti, euler in cases:
        a = Rank1Anchor(p)
        assert not is_transitive(a)
        sweep = stabilized_cohomology(a, 3, 8)
        assert sweep.stabilized
        assert sweep.report.betti == betti
        assert sweep.report.euler == euler
        assert sweep.report.euler != 0  # the point of the counterexample
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    verdict(4, "kernel-carrying anchors give nonzero euler characteristics "
               f"(1,3)/chi=-2 and (1,5)/chi=-4 ({elapsed:.2f}s)")


def test_criterion_5_transitive_vanishing():
    sl2a, (n_min, n_max) = catalog.algebroid("sl2_action")
    assert is_transitive(sl2a)
    sweep = stabilized_cohomology(sl2a, n_min, n_max)
    assert sweep.stabilized
    assert sweep.report.euler == 0
    sl2_betti = sweep.report.betti

    for name in ("const1", "r_action"):
        a, (lo, hi) = catalog.algebroid(name)
        assert is_transitive(a)
        sw = stabilized_cohomology(a, lo, hi)
        assert sw.report.euler == 0
        assert sw.report.betti == (1, 1)
    verdict(5, "transitive anchors sweep to euler characteristic 0 "
               f"(sl2 action Betti {list(sl2_betti)}, circle-tangent cases (1, 1))")


def test_criterion_6_kunneth_products():
    su2 = catalog.algebra("su2")
    h3 = catalog.algebra("h3")
    aff1 = catalog.algebra("aff1")

    pairs = [(su2, su2), (h3, aff1), (aff1, su2)]
    for g, h in pairs:
        total = lie_cohomology(trivial_representation(direct_sum(g, h)))
        check = kunneth_verify(total,
                               lie_cohomology(trivial_representation(g)),
                               lie_cohomology(trivial_representation(h)))
        assert check.ok

    # circle algebroid times algebra
    prod = product_with_lie_algebra(Rank1Anchor(const(1)), su2)
    prod_sweep = stabilized_cohomology(prod, 3, 6)
    factor_sweep = stabilized_cohomology(Rank1Anchor(const(1)), 3, 6)
    check = kunneth_verify(prod_sweep.report, factor_sweep.report,
                           lie_cohomology(trivial_representation(su2)))
    assert check.ok
    assert prod_sweep.report.betti == (1, 1, 0, 1, 1)

    # nontrivial coefficient modules on both factors
    joint = tensor_rep(catalog.representation("aff1_char"),
                       trivial_representation(h3))
    total = lie_cohomology(joint)
    assert total.betti == (0, 1, 3, 4, 3, 1)
    check = kunneth_verify(total,
                           lie_cohomology(catalog.representation("aff1_char")),
                           lie_cohomology(trivial_representation(h3)))
    assert check.ok
    verdict(6, "Kunneth convolution and euler multiplicativity hold for sums, "
               "circle products, and twisted coefficients")


def test_criterion_7_hopf_structure():
    for name in ("r1", "r2", "r3", "r4"):
        g = catalog.algebra(name)
        assert check_h_structure(addition(g))
        c = addition_coproduct(g)
        assert verify_hopf(c)
        report = hopf_axioms(c)
        assert report.counit and report.coassociative
        assert report.algebra_morphism and report.antipode
        prim = [len(p) for p in primitives(c)]
        assert prim[1] == g.dim and sum(prim) == g.dim

    assert not check_h_structure(addition(catalog.algebra("su2")))

    ts1 = ts1_coalgebra()
    assert ts1.betti == (1, 1) and verify_hopf(ts1)

    assert exterior_structure_check(ts1.betti) == (1,)
    su2_betti = lie_cohomology(trivial_representation(catalog.algebra("su2"))).betti
    assert exterior_structure_check(su2_betti) == (3,)
    assert exterior_structure_check((1, 1, 0, 1, 1)) == (1, 3)
    h3_betti = lie_cohomology(trivial_representation(catalog.algebra("h3"))).betti
    assert exterior_structure_check(h3_betti) is None
    verdict(7, "addition is a Hopf structure exactly on abelian algebras; "
               "cohomology rings factor into odd exterior generators where expected")


def test_criterion_8_symbol_exactness_sample():
    rng = random.Random(20260818)
    checked = 0
    while checked < 100:
        dim_m = rng.randint(1, 3)
        dim_a = dim_m + rng.randint(0, 2)
        rows = [[F(rng.randint(-5, 5)) for _ in range(dim_a)] for _ in range(dim_m)]
        anchor = from_rows(rows)
        if rank(anchor) != dim_m:
            continue  # resample until the anchor is surjective
        fiber = FiberData(dim_a=dim_a, dim_m=dim_m, anchor=anchor,
                          dim_e=rng.randint(1, 2))
        alpha = [F(0)] * dim_m
        alpha[rng.randrange(dim_m)] = F(rng.choice([1, -1, 2, 5]))
        assert exactness_check(symbol_complex(fiber, alpha)).exact
        checked += 1

    # controls: a vanishing pullback breaks exactness, whether it vanishes
    # because the anchor is zero or because the covector is
    fiber = FiberData(dim_a=2, dim_m=1, anchor=RationalMatrix.zeros(1, 2))
    assert not exactness_check(symbol_complex(fiber, [F(1)])).exact
    fiber = FiberData(dim_a=2, dim_m=1,
                      anchor=from_rows([[1, 0]]))
    assert not exactness_check(symbol_complex(fiber, [F(0)])).exact
    verdict(8, "100 random surjective fibers give exact symbol complexes; "
               "zero-anchor and zero-covector controls are inexact")


def test_criterion_9_structural_invariants():
    # chain condition and Euler-Poincare identity across every catalog complex
    complexes = [ce_complex(trivial_representation(catalog.algebra(n)))
                 for n in ("zero",) + catalog.ALGEBRA_NAMES]
    for name in catalog.ALGEBROID_NAMES:
        a, (n_min, _) = catalog.algebroid(name)
        complexes.append(truncated_complex(a, n_min).complex)
    for cx in complexes:
        assert cx.chain_defect() is None
        report = complex_cohomology(cx)
        dim_sum = sum((-1) ** p * d for p, d in enumerate(cx.degrees))
        betti_sum = sum((-1) ** p * b for p, b in enumerate(report.betti))
        assert report.euler == betti_sum == dim_sum
        for d in cx.differentials:
            assert rank(d) + kernel_dim(d) == d.cols
            assert rank_modular(d) == rank(d)

    # randomized algebras: R acting on R^n is solvable for every matrix, so
    # each sample must pass the Jacobi and flatness guards and close up
    rng = random.Random(411)
    for _ in range(10):
        n = rng.randint(1, 3)
        table = {}
        for i in range(1, n + 1):
            col = {j + 1: F(rng.randint(-3, 3)) for j in range(n)}
            table[(0, i)] = {k: v for k, v in col.items() if v}
        g = LieAlgebra.make(n + 1, table)
        assert check_jacobi(g)
        rep = adjoint_representation(g)
        assert check_representation(rep)
        cx = ce_complex(rep)
        assert cx.chain_defect() is None
        report = complex_cohomology(cx)
        assert report.euler == sum((-1) ** p * d
                                   for p, d in enumerate(cx.degrees))

    # validation guards reject broken structure constants and actions
    bad = LieAlgebra.make(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
    assert not check_jacobi(bad)
    with pytest.raises(ValidationError):
        ce_complex(trivial_representation(bad))
    mismatched = ActionAlgebroid(
        algebra=catalog.algebra("su2"),
        phi=(const(1), TrigPoly.cos(2), TrigPoly.sin(2)))
    with pytest.raises(ValidationError):
        truncated_complex(mismatched, 3)

    # Betti numbers are basis independent
    su2 = catalog.algebra("su2")
    h3 = catalog.algebra("h3")
    changes = [
        (su2, from_rows([[1, 1, 0], [0, 1, 2], [0, 0, "1/3"]])),
        (h3, from_rows([[2, 0, 1], [1, 1, 0], [0, 0, 1]])),
    ]
    for g, p in changes:
        before = lie_cohomology(trivial_representation(g)).betti
        after = lie_cohomology(trivial_representation(change_basis(g, p))).betti
        assert before == after
    verdict(9, "chain condition, flatness, Euler-Poincare, rank-nullity, "
               "modular certification, guards, and basis invariance all hold")
