"""Pointwise symbol complexes and their exactness.

At a point, a covector alpha on the base pulls back through the anchor to
beta on the fiber, and the symbol complex in degree r is wedging by beta,
tensored with the identity on the coefficient fiber.  Since beta ^ beta = 0
the chain condition is automatic; the complex is exact in every degree
exactly when beta != 0, which for a surjective anchor happens for every
nonzero alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactlinalg import CochainComplex, RationalMatrix, as_fraction, complex_cohomology, kron_sum
from .exterior import alternating_binomial_sum, wedge_matrix

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FiberData:
    """One fiber of an anchored bundle: anchor is a dim_m x dim_a matrix."""

    dim_a: int
    dim_m: int
    anchor: RationalMatrix
    dim_e: int = 1

    def __post_init__(self):
        if min(self.dim_a, self.dim_m, self.dim_e) < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.anchor.rows != self.dim_m or self.anchor.cols != self.dim_a:
            raise ValueError("anchor must be dim_m x dim_a")


def pullback_covector(f: FiberData, alpha) -> list[Fraction]:
    """beta = alpha composed with the anchor, as a fiber covector."""
    if len(alpha) != f.dim_m:
        raise ValueError("alpha must have one entry per base dimension")
    alpha = [as_fraction(x) for x in alpha]
    return [
        sum((alpha[m] * f.anchor[m, i] for m in range(f.dim_m)), _ZERO)
        for i in range(f.dim_a)
    ]


def symbol_complex(f: FiberData, alpha) -> CochainComplex:
    """Wedge-by-beta complex on E (x) Lambda^* of the fiber."""
    beta = pullback_covector(f, alpha)
    n = f.dim_a
    id_e = RationalMatrix.identity(f.dim_e)
    degrees = tuple(f.dim_e * comb(n, r) for r in range(n + 1))
    diffs = tuple(kron_sum(degrees[r + 1], degrees[r],
                           [(0, 0, id_e, wedge_matrix(n, r, i).scaled(b))
                            for i, b in enumerate(beta) if b])
                  for r in range(n))
    return CochainComplex(degrees=degrees, differentials=diffs)


@dataclass(frozen=True)
class ExactnessReport:
    per_degree: tuple[bool, ...]
    exact: bool


def exactness_check(c: CochainComplex) -> ExactnessReport:
    """Exactness degree by degree: rank(d_r) + rank(d_{r-1}) = dim C^r,
    that is, a vanishing Betti number.

    Ends are read in the reduced sense (zero maps in and out), so degree 0
    asks for an injective d_0 and the top degree for a surjective d_{top-1}.
    Raises ChainConditionError when d^2 != 0.
    """
    per_degree = tuple(b == 0 for b in complex_cohomology(c).betti)
    return ExactnessReport(per_degree=per_degree, exact=all(per_degree))


def euler_form_factor(rank_l: int, rank_e: int) -> int:
    """Fiberwise integrand factor: the alternating binomial sum of the
    kernel rank times the coefficient rank (rank_e when rank_l = 0, else 0)."""
    if rank_l < 0 or rank_e < 0:
        raise ValueError("ranks must be nonnegative")
    return alternating_binomial_sum(rank_l) * rank_e
