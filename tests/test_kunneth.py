"""Direct sums, algebroid x algebra products, and the Kunneth comparison."""

from fractions import Fraction

import pytest

from fixtures import dense_apply
from algebroid import catalog
from algebroid.circle import ActionAlgebroid, Rank1Anchor, TrigPoly, is_transitive, \
    stabilized_cohomology, truncated_complex
from algebroid.errors import ValidationError
from algebroid.exactlinalg import RationalMatrix, rank
from algebroid.kunneth import (
    direct_sum,
    kunneth_verify,
    product_with_lie_algebra,
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


def test_boxtimes_cocycles():
    t = ce_complex(trivial_representation(direct_sum(catalog.algebra("su2"),
                                                     catalog.algebra("su2"))))
    # Over su2 + su2 the classes w (x) 1, 1 (x) w and w (x) w, w spanning the
    # top degree of su2, are the basis forms e^{012}, e^{345} and e^{012345}.
    # Degree 3 has C(6, 3) = 20 forms in lexicographic order, so e^{012} is
    # the first coordinate and e^{345} the last.
    assert t.degrees[3] == 20
    v_left = [F(1)] + [F(0)] * 19
    v_right = [F(0)] * 19 + [F(1)]
    assert all(x == 0 for x in dense_apply(t.differentials[3], v_left))
    assert all(x == 0 for x in dense_apply(t.differentials[3], v_right))
    # neither is a coboundary (adding it to the image of d2 raises the rank),
    # and they are independent modulo coboundaries
    d2 = t.differentials[2]
    image = d2.transpose().to_rows()
    assert rank(RationalMatrix.from_rows(image + [v_left])) == rank(d2) + 1
    assert rank(RationalMatrix.from_rows(image + [v_right])) == rank(d2) + 1
    stacked = image + [v_left, v_right]
    assert rank(RationalMatrix.from_rows(stacked)) == rank(d2) + 2
    # w (x) w = e^{012345} spans degree 6; it is not a coboundary either
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
    assert isinstance(prod, ActionAlgebroid)
    tc = truncated_complex(prod, 3)
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
