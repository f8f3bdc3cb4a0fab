"""The value classes of the package: constructors, defaults, equality where
the package or the tests compare instances, and the checks each constructor
runs, with their messages."""

import re
from fractions import Fraction

import pytest

from oracle import from_rows
from algebroid import (ActionAlgebroid, CochainComplex, CohomologyReport, ExactnessReport,
                       FiberData, GradedCoalgebra, HopfReport, HStructure, KunnethCheck,
                       LieAlgebra, Rank1Anchor, RationalMatrix, Representation, SweepResult,
                       TrigPoly, TruncatedComplex)

ONE = RationalMatrix.identity(1)


def aff1() -> LieAlgebra:
    return LieAlgebra(2, ((0, 1, ((1, Fraction(1)),)),), "aff1")


def report() -> CohomologyReport:
    return CohomologyReport((1, 1), (1, 1), 0)


U, W = (0, 0), (1, 0)  # the unit and the degree-1 class of the line's cohomology


def line_delta() -> dict:
    """D(1) = 1 (x) 1 and D(w) = w (x) 1 + 1 (x) w."""
    return {U: {(U, U): 1}, W: {(W, U): 1, (U, W): 1}}


def line_mu() -> dict:
    return {(U, U): {U: 1}, (U, W): {W: 1}, (W, U): {W: 1}}


# Each case: the class; a factory of its constructor arguments, by name in
# signature order; the defaults, as (required arguments, defaulted values);
# whether instances compare by value; and (changed arguments, ValueError
# message) for every check its constructor runs.
CASES = [
    (TrigPoly, lambda: {"constant": Fraction(1), "cos_coeffs": (Fraction(2), Fraction(0)),
                        "sin_coeffs": (Fraction(0), Fraction(-1, 2))},
     ({}, {"constant": 0, "cos_coeffs": (), "sin_coeffs": ()}), True, [
         ({"sin_coeffs": (Fraction(1),)}, "cos and sin coefficient lists must have equal length"),
         ({"sin_coeffs": (Fraction(1), Fraction(0))}, "trailing zero harmonic; use TrigPoly.make"),
     ]),
    (TruncatedComplex, lambda: {"N": 2, "complex": CochainComplex((1, 1), (ONE,)),
                                "levels": ((0,), (1,))},
     None, False, [
         ({"levels": ((0,), (1, 1))}, "need one level per coordinate of every degree"),
         ({"levels": ((0,),)}, "need one level per coordinate of every degree"),
     ]),
    (ActionAlgebroid, lambda: {"algebra": aff1(), "phi": (TrigPoly(Fraction(1)), TrigPoly.sin(1))},
     None, True, []),
    (Rank1Anchor, lambda: {"p": TrigPoly.cos(2, Fraction(3))}, None, True, []),
    (SweepResult, lambda: {"report": report(), "per_n": ((3, (1, 1)), (4, (1, 1))),
                           "stabilized": True},
     None, False, []),
    (CochainComplex, lambda: {"degrees": (1, 2), "differentials": (RationalMatrix.zeros(2, 1),)},
     None, False, [
         ({"degrees": (), "differentials": ()}, "a complex needs at least one degree"),
         ({"degrees": (1, -1)}, "degree dimensions must be nonnegative"),
         ({"differentials": ()}, "expected one differential per consecutive degree pair"),
         ({"differentials": (ONE,)}, "d_0 has shape 1x1, expected 2x1"),
     ]),
    (CohomologyReport, lambda: {"degrees": (1, 2, 1), "betti": (1, 0, 1), "euler": 2},
     None, True, []),
    (HStructure, lambda: {"algebra": LieAlgebra(1), "matrix": from_rows([[1, 1]])},
     None, False, [({"matrix": ONE}, "H must be dim x 2*dim")]),
    (GradedCoalgebra, lambda: {"betti": (1, 1), "delta": line_delta(), "mu": line_mu()},
     None, False, [
         ({"delta": {(1, 0): line_delta()[(1, 0)]}},
          "coproduct at (0, 0): need one entry per basis label"),
         ({"delta": {**line_delta(), (2, 0): {}}},
          "coproduct at (2, 0): need one entry per basis label"),
         ({"mu": {**line_mu(), (W, W): {}}},
          "product at ((1, 0), (1, 0)): need one entry per pair of labels of total degree <= 1"),
         ({"mu": {(U, U): {U: 1}, (U, W): {W: 1}}},
          "product at ((1, 0), (0, 0)): need one entry per pair of labels of total degree <= 1"),
         ({"delta": {**line_delta(), W: {(W, W): 1}}},
          "coproduct at (1, 0): ((1, 0), (1, 0)) is not a nonzero term of degree 1"),
         ({"delta": {**line_delta(), U: {(U, U): 0}}},
          "coproduct at (0, 0): ((0, 0), (0, 0)) is not a nonzero term of degree 0"),
         ({"mu": {**line_mu(), (U, W): {(0, 1): 1}}},
          "product at ((0, 0), (1, 0)): (0, 1) is not a nonzero term of degree 1"),
     ]),
    (HopfReport, lambda: {"counit": True, "coassociative": True, "algebra_morphism": False,
                          "antipode": True},
     None, False, []),
    (KunnethCheck, lambda: {"ok": True, "table": ((0, 1, 1), (1, 2, 2))}, None, False, []),
    (LieAlgebra, lambda: {"dim": 2, "brackets": ((0, 1, ((1, Fraction(1)),)),), "name": "aff1"},
     ({"dim": 3}, {"brackets": (), "name": ""}), True, [
         ({"dim": -1, "brackets": ()}, "dimension must be nonnegative"),
         ({"brackets": ((1, 0, ()),)}, "bracket pair (1,0) must satisfy 0 <= i < j < dim"),
         ({"brackets": ((0, 2, ()),)}, "bracket pair (0,2) must satisfy 0 <= i < j < dim"),
         ({"brackets": ((0, 1, ((2, Fraction(1)),)),)}, "bracket target 2 out of range"),
         ({"brackets": ((0, 1, ((1, 1),)),)}, "structure constants must be Fractions"),
     ]),
    (Representation, lambda: {"algebra": aff1(), "dim_e": 1,
                              "action": (ONE, RationalMatrix.zeros(1, 1))},
     None, True, [
         ({"dim_e": -1}, "representation dimension must be nonnegative"),
         ({"action": (ONE,)}, "need one action matrix per basis vector"),
         ({"dim_e": 2}, "action matrices must be dim_e x dim_e"),
     ]),
    (FiberData, lambda: {"dim_a": 2, "dim_m": 1, "anchor": from_rows([[1, 0]]),
                         "dim_e": 3},
     ({"dim_a": 2, "dim_m": 1, "anchor": from_rows([[1, 0]])}, {"dim_e": 1}),
     True, [
         ({"dim_e": -1}, "dimensions must be nonnegative"),
         ({"dim_m": 2}, "anchor must be dim_m x dim_a"),
     ]),
    (ExactnessReport, lambda: {"per_degree": (True, False), "exact": False}, None, False, []),
]

IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, args, defaults, by_value, checks", CASES, ids=IDS)
def test_value_class(cls, args, defaults, by_value, checks):
    kwargs = args()
    for value in (cls(*kwargs.values()), cls(**kwargs)):
        for name, arg in kwargs.items():
            assert getattr(value, name) is arg, name
    if defaults is not None:
        required, defaulted = defaults
        value = cls(**required)
        for name, arg in {**required, **defaulted}.items():
            assert getattr(value, name) == arg, name
    if by_value:
        assert cls(**args()) == cls(**args())
        assert cls(**args()) != object()
        if cls in (TrigPoly, LieAlgebra):
            assert hash(cls(**args())) == hash(cls(**args()))
    for changed, message in checks:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**args(), **changed})


@pytest.mark.parametrize("cls, args", [case[:2] for case in CASES], ids=IDS)
def test_value_class_instances_have_no_dict(cls, args):
    # every class in the hierarchy declares __slots__, and none caches on the instance
    assert not hasattr(cls(**args()), "__dict__")


def test_rank1_anchor_is_its_action_algebroid_but_compares_only_with_its_class():
    p = TrigPoly.sin(1)
    anchor = Rank1Anchor(p)
    assert (anchor.algebra, anchor.phi) == (LieAlgebra(1), (p,))
    assert anchor != ActionAlgebroid(LieAlgebra(1), (p,))
    assert anchor == Rank1Anchor(TrigPoly.sin(1)) != Rank1Anchor(TrigPoly.sin(2))


def test_values_that_compare_tell_their_fields_apart():
    assert TrigPoly() != TrigPoly(Fraction(1))
    assert LieAlgebra(2) != LieAlgebra(2, name="r2") != LieAlgebra(3, name="r2")
    assert CohomologyReport((1,), (1,), 1) != CohomologyReport((1,), (0,), 1)
    assert Representation(LieAlgebra(1), 1, (ONE,)) != \
        Representation(LieAlgebra(1), 1, (RationalMatrix.zeros(1, 1),))
    assert FiberData(1, 1, ONE) != FiberData(1, 1, ONE, dim_e=2)
