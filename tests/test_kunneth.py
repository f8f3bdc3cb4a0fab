"""Direct sums, graded tensor products, and the Kunneth comparison."""

from fractions import Fraction

import pytest

import oracle
from algebroid import catalog
from algebroid.circle import Rank1Anchor, TrigPoly, is_transitive, \
    stabilized_cohomology, truncated_complex
from algebroid.errors import ValidationError
from algebroid.exactlinalg import (
    CochainComplex,
    RationalMatrix,
    complex_cohomology,
    rank,
)
from algebroid.kunneth import (
    direct_sum,
    kunneth_verify,
    product_with_lie_algebra,
    tensor_complex,
    tensor_rep,
)
from algebroid.liealg import (
    LieAlgebra,
    bracket_basis,
    ce_complex,
    check_jacobi,
    check_representation,
    lie_cohomology,
    trivial_representation,
)

F = Fraction


def test_direct_sum_structure():
    su2 = catalog.algebra("su2")
    aff1 = catalog.algebra("aff1")
    s = direct_sum(su2, aff1)
    assert s.dim == 5
    assert check_jacobi(s)
    # left block keeps its brackets, right block is shifted by dim g
    assert bracket_basis(s, 0, 1)[2] == 1
    assert bracket_basis(s, 3, 4)[4] == 1
    # cross brackets vanish
    assert all(x == 0 for x in bracket_basis(s, 0, 3))
    assert s.name == "su2+aff1"


def test_direct_sum_betti_golden():
    su2 = catalog.algebra("su2")
    rep = lie_cohomology(trivial_representation(direct_sum(su2, su2)))
    assert rep.betti == (1, 0, 0, 2, 0, 0, 1)
    assert rep.euler == 0


def test_direct_sum_h3_aff1():
    h3 = catalog.algebra("h3")
    aff1 = catalog.algebra("aff1")
    total = lie_cohomology(trivial_representation(direct_sum(h3, aff1)))
    check = kunneth_verify(total,
                           lie_cohomology(trivial_representation(h3)),
                           lie_cohomology(trivial_representation(aff1)))
    assert check.ok
    # conv((1,2,2,1), (1,1,0)) = (1,3,4,3,1,0)
    assert total.betti == (1, 3, 4, 3, 1, 0)


def test_tensor_complex_hand_example():
    # A = B = (Q --1--> Q) is exact; the signed tensor differential squares
    # to zero and the product is exact as well.
    one = RationalMatrix.from_rows([[1]])
    a = CochainComplex(degrees=(1, 1), differentials=(one,))
    t = tensor_complex(a, a)
    assert t.degrees == (1, 2, 1)
    assert t.differentials[0].to_rows() == [[F(1)], [F(1)]]
    assert t.differentials[1].to_rows() == [[F(1), F(-1)]]
    assert t.chain_defect() is None
    assert complex_cohomology(t).betti == (0, 0, 0)


def test_tensor_with_point_complex_is_identity():
    # tensoring with the one-degree complex of the zero algebra changes nothing
    su2_cx = ce_complex(trivial_representation(catalog.algebra("su2")))
    point = ce_complex(trivial_representation(catalog.algebra("zero")))
    t = tensor_complex(su2_cx, point)
    assert t.degrees == su2_cx.degrees
    assert t.differentials == su2_cx.differentials


def test_tensor_complex_squares_to_zero():
    h3_cx = ce_complex(trivial_representation(catalog.algebra("h3")))
    aff1_cx = ce_complex(trivial_representation(catalog.algebra("aff1")))
    t = tensor_complex(h3_cx, aff1_cx)
    assert t.chain_defect() is None
    rep = complex_cohomology(t)
    assert rep.betti == (1, 3, 4, 3, 1, 0)
    assert rep.betti == tuple(oracle.complex_betti(t))


def test_boxtimes_cocycles():
    su2_cx = ce_complex(trivial_representation(catalog.algebra("su2")))
    t = tensor_complex(su2_cx, su2_cx)
    # Degree 3 of the product holds the blocks A^0 B^3, A^1 B^2, A^2 B^1, A^3 B^0
    # of sizes 1, 9, 9, 1 in that order, so 1 (x) w is the first coordinate and
    # w (x) 1 the last, w spanning the one-dimensional degree-3 space of su2.
    assert t.degrees[3] == 20
    v_right = [F(1)] + [F(0)] * 19
    v_left = [F(0)] * 19 + [F(1)]
    assert all(x == 0 for x in t.differentials[3].apply(v_left))
    assert all(x == 0 for x in t.differentials[3].apply(v_right))
    # neither is a coboundary (adding it to the image of d2 raises the rank),
    # and they are independent modulo coboundaries
    d2 = t.differentials[2]
    image = d2.transpose().to_rows()
    assert rank(RationalMatrix.from_rows(image + [v_left])) == rank(d2) + 1
    assert rank(RationalMatrix.from_rows(image + [v_right])) == rank(d2) + 1
    stacked = image + [v_left, v_right]
    assert rank(RationalMatrix.from_rows(stacked)) == rank(d2) + 2
    # w (x) w in degree 6, whose one block A^3 B^3 starts at offset 0; it is
    # not a coboundary either
    v_both = [F(1)]
    assert len(v_both) == t.degrees[6]
    d5 = t.differentials[5]
    assert rank(RationalMatrix.from_rows(d5.transpose().to_rows() + [v_both])) == rank(d5) + 1


def test_tensor_rep_flatness_and_betti():
    char = catalog.representation("aff1_char")
    h3_triv = trivial_representation(catalog.algebra("h3"))
    joint = tensor_rep(char, h3_triv)
    assert joint.algebra.dim == 5
    assert joint.dim_e == 1
    assert check_representation(joint)
    rep = lie_cohomology(joint)
    # conv((0,1,1), (1,2,2,1)) = (0,1,3,4,3,1)
    assert rep.betti == (0, 1, 3, 4, 3, 1)
    check = kunneth_verify(rep, lie_cohomology(char), lie_cohomology(h3_triv))
    assert check.ok


def test_kunneth_verify_rejects_wrong_product():
    su2 = lie_cohomology(trivial_representation(catalog.algebra("su2")))
    aff1 = lie_cohomology(trivial_representation(catalog.algebra("aff1")))
    check = kunneth_verify(su2, aff1, aff1)
    assert not check.ok
    assert any(exp != act for _, exp, act in check.table)


def test_product_with_lie_algebra_complex():
    su2 = catalog.algebra("su2")
    prod = product_with_lie_algebra(Rank1Anchor(TrigPoly.const(1)), su2)
    tc = truncated_complex(prod, 3)
    assert tc.windows is None
    assert tc.complex.degrees == tuple(7 * b for b in (1, 4, 6, 4, 1))
    assert tc.complex.chain_defect() is None
    assert is_transitive(prod)
    sweep = stabilized_cohomology(prod, 3, 6)
    assert sweep.report.betti == (1, 1, 0, 1, 1)
    assert sweep.report.euler == 0
    check = kunneth_verify(
        sweep.report,
        stabilized_cohomology(Rank1Anchor(TrigPoly.const(1)), 3, 6).report,
        lie_cohomology(trivial_representation(su2)),
    )
    assert check.ok


def test_product_with_nontransitive_factor():
    aff1 = catalog.algebra("aff1")
    prod = product_with_lie_algebra(Rank1Anchor(TrigPoly.sin(1)), aff1)
    assert not is_transitive(prod)
    sweep = stabilized_cohomology(prod, 3, 6)
    check = kunneth_verify(
        sweep.report,
        stabilized_cohomology(Rank1Anchor(TrigPoly.sin(1)), 3, 6).report,
        lie_cohomology(trivial_representation(aff1)),
    )
    assert check.ok
    # conv((1,3), (1,1,0)) = (1,4,3,0)
    assert sweep.report.betti == (1, 4, 3, 0)


def test_product_rejects_bad_algebra():
    bad = LieAlgebra.make(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
    with pytest.raises(ValidationError):
        product_with_lie_algebra(Rank1Anchor(TrigPoly.const(1)), bad)
