"""Pointwise symbol complexes and their exactness.

At a point, a covector alpha on the base pulls back through the anchor to
beta on the fiber, and the symbol complex in degree r is wedging by beta,
tensored with the identity on the coefficient fiber.  That is the
Chevalley-Eilenberg complex of the abelian Lie algebra on the fiber acting
on E by the character beta, basis vector i by beta_i times the identity, so
one `liealg.form_columns` call builds it.  Since beta ^ beta = 0 the chain
condition is automatic; the complex is exact in every degree exactly when
beta != 0, which for a surjective anchor happens for every nonzero alpha.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlinalg import CochainComplex, RationalMatrix, as_fraction, complex_cohomology, \
    require_cochain_budget
from .liealg import LieAlgebra, ce_layouts, form_columns


class FiberData:
    """One fiber of an anchored bundle: anchor is a dim_m x dim_a matrix."""

    __slots__ = ("dim_a", "dim_m", "anchor", "dim_e")

    def __init__(self, dim_a: int, dim_m: int, anchor: RationalMatrix, dim_e: int = 1):
        if min(dim_a, dim_m, dim_e) < 0:
            raise ValueError("dimensions must be nonnegative")
        if anchor.rows != dim_m or anchor.cols != dim_a:
            raise ValueError("anchor must be dim_m x dim_a")
        self.dim_a, self.dim_m, self.anchor, self.dim_e = dim_a, dim_m, anchor, dim_e

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim_a, self.dim_m, self.anchor, self.dim_e) == \
            (other.dim_a, other.dim_m, other.anchor, other.dim_e)


def pullback_covector(f: FiberData, alpha) -> list[Fraction]:
    """beta = alpha composed with the anchor, as a fiber covector."""
    if len(alpha) != f.dim_m:
        raise ValueError("alpha must have one entry per base dimension")
    alpha = [as_fraction(x) for x in alpha]
    beta = [Fraction(0)] * f.dim_a
    for i, j, x in f.anchor.entries():
        beta[j] += x * alpha[i]
    return beta


def symbol_complex(f: FiberData, alpha) -> CochainComplex:
    """Wedge-by-beta complex on E (x) Lambda^* of the fiber: the CE complex of
    the abelian fiber algebra acting on E by the character beta."""
    require_cochain_budget(f.dim_e, f.dim_a, "the symbol complex")
    beta = pullback_covector(f, alpha)
    n, e = f.dim_a, f.dim_e
    action = {i: RationalMatrix.from_entries(e, e, (((a, a), b) for a in range(e)))
              for i, b in enumerate(beta)}
    return form_columns(LieAlgebra(n), action, ce_layouts(n, e, 0, n))


class ExactnessReport:
    __slots__ = ("per_degree", "exact")

    def __init__(self, per_degree: tuple[bool, ...], exact: bool):
        self.per_degree, self.exact = per_degree, exact


def exactness_check(c: CochainComplex) -> ExactnessReport:
    """Exactness degree by degree: rank(d_r) + rank(d_{r-1}) = dim C^r,
    that is, a vanishing Betti number.

    Ends are read in the reduced sense (zero maps in and out), so degree 0
    asks for an injective d_0 and the top degree for a surjective d_{top-1}.
    Raises ChainConditionError when d^2 != 0.
    """
    per_degree = tuple(b == 0 for b in complex_cohomology(c).betti)
    return ExactnessReport(per_degree=per_degree, exact=all(per_degree))

