"""Finite-dimensional Lie algebras over Q and their cochain complexes.

Structure constants are stored for basis pairs i < j only; antisymmetry
fills in the rest and [e_i, e_i] = 0.

Sign conventions, pinned by golden matrices in the tests:

    degree 0:   (d f)(x)      = rho_x(f)
    degree 1:   (d w)(x, y)   = rho_x(w(y)) - rho_y(w(x)) - w([x, y])

and in general the differential is the unique degree-+1 operator that
restricts to these and acts as a graded derivation on wedge products.
Concretely, on a coefficient vector e and a basis p-form w,

    d(e (x) w) = sum_i rho_i(e) (x) (e^i ^ w)  +  e (x) dw,
    d(e^k)     = - sum_{i<j} c^k_{ij} e^i ^ e^j,

where c^k_{ij} are the structure constants.  The degree-p component
E (x) Lambda^p is ordered with the coefficient index major and the
lexicographic form index minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DegreeOutOfRangeError, ValidationError
from .exactlinalg import (
    CochainComplex,
    CohomologyReport,
    RationalMatrix,
    as_fraction,
    complex_cohomology,
    inverse,
    kron_sum,
)
from .exterior import basis_tuples, sort_sign, wedge_matrix

_ZERO = Fraction(0)

# Normal form for brackets: ((i, j, ((k, coeff), ...)), ...) sorted by (i, j)
# with i < j, inner terms sorted by k, zero coefficients dropped.
BracketTable = tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    brackets: BracketTable = ()
    name: str = ""

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        for i, j, terms in self.brackets:
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            for k, c in terms:
                if not 0 <= k < self.dim:
                    raise ValueError(f"bracket target {k} out of range")
                if not isinstance(c, Fraction):
                    raise ValueError("structure constants must be Fractions")

    @classmethod
    def make(cls, dim: int, brackets=None, name: str = "") -> "LieAlgebra":
        """Build from {(i, j): {k: coeff}} with i < j; coeffs may be int/str/Fraction."""
        table = []
        for (i, j), terms in sorted((brackets or {}).items()):
            cleaned = tuple(
                (k, as_fraction(c)) for k, c in sorted(terms.items()) if as_fraction(c)
            )
            if cleaned:
                table.append((i, j, cleaned))
        return cls(dim=dim, brackets=tuple(table), name=name)

    def is_abelian(self) -> bool:
        return not self.brackets


def bracket_basis(g: LieAlgebra, i: int, j: int) -> list[Fraction]:
    """[e_i, e_j] as a coordinate vector."""
    out = [_ZERO] * g.dim
    if i == j:
        return out
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for bi, bj, terms in g.brackets:
        if bi == i and bj == j:
            for k, c in terms:
                out[k] = sign * c
            break
    return out


def bracket(g: LieAlgebra, v, w) -> list[Fraction]:
    """Bilinear extension of the bracket to coordinate vectors."""
    out = [_ZERO] * g.dim
    for i, j, terms in g.brackets:
        coeff = v[i] * w[j] - v[j] * w[i]
        if coeff:
            for k, c in terms:
                out[k] += coeff * c
    return out


def jacobi_violation(g: LieAlgebra) -> tuple[int, int, int] | None:
    """First basis triple i < j < k, in lexicographic order, whose cyclic
    Jacobi sum is nonzero, or None when the identity holds."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            bij = bracket_basis(g, i, j)
            for k in range(j + 1, g.dim):
                ek = [_ZERO] * g.dim
                ek[k] = Fraction(1)
                term1 = bracket(g, bij, ek)
                ei = [_ZERO] * g.dim
                ei[i] = Fraction(1)
                term2 = bracket(g, bracket_basis(g, j, k), ei)
                ej = [_ZERO] * g.dim
                ej[j] = Fraction(1)
                term3 = bracket(g, bracket_basis(g, k, i), ej)
                if any(a + b + c for a, b, c in zip(term1, term2, term3)):
                    return (i, j, k)
    return None


def check_jacobi(g: LieAlgebra) -> bool:
    """True iff the cyclic Jacobi sum vanishes on every basis triple i < j < k."""
    return jacobi_violation(g) is None


def require_jacobi(g: LieAlgebra) -> None:
    """Raise ValidationError naming the first triple that violates Jacobi."""
    # check_jacobi stays the validation boundary that perfbench times; the
    # triple is looked for only once the check has failed.
    if not check_jacobi(g):
        raise ValidationError("structure constants violate the Jacobi identity "
                              f"on basis triple {jacobi_violation(g)}")


@dataclass(frozen=True)
class Representation:
    """A Lie algebra acting on Q^dim_e by one matrix per basis vector."""

    algebra: LieAlgebra
    dim_e: int
    action: tuple[RationalMatrix, ...]

    def __post_init__(self):
        if self.dim_e < 0:
            raise ValueError("representation dimension must be nonnegative")
        if len(self.action) != self.algebra.dim:
            raise ValueError("need one action matrix per basis vector")
        for m in self.action:
            if m.rows != self.dim_e or m.cols != self.dim_e:
                raise ValueError("action matrices must be dim_e x dim_e")


def trivial_representation(g: LieAlgebra, dim_e: int = 1) -> Representation:
    zero = RationalMatrix.zeros(dim_e, dim_e)
    return Representation(algebra=g, dim_e=dim_e, action=(zero,) * g.dim)


def adjoint_representation(g: LieAlgebra) -> Representation:
    mats = []
    for i in range(g.dim):
        pairs = [((k, j), c) for j in range(g.dim) for k, c in enumerate(bracket_basis(g, i, j))]
        mats.append(RationalMatrix.from_entries(g.dim, g.dim, pairs))
    return Representation(algebra=g, dim_e=g.dim, action=tuple(mats))


def representation_violation(r: Representation) -> tuple[int, int] | None:
    """First basis pair i < j, in lexicographic order, with
    rho_[e_i, e_j] != rho_i rho_j - rho_j rho_i, or None when r is flat."""
    g = r.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            commutator = r.action[i] @ r.action[j] - r.action[j] @ r.action[i]
            expected = RationalMatrix.zeros(r.dim_e, r.dim_e)
            for k, c in enumerate(bracket_basis(g, i, j)):
                if c:
                    expected = expected + r.action[k].scaled(c)
            if commutator != expected:
                return (i, j)
    return None


def check_representation(r: Representation) -> bool:
    """True iff rho_[e_i, e_j] = rho_i rho_j - rho_j rho_i for all i < j."""
    return representation_violation(r) is None


def trivial_ce_differential(g: LieAlgebra, p: int) -> RationalMatrix:
    """Differential on degree-p forms with trivial coefficients.

    d(e^k) = - sum_{i<j} c^k_{ij} e^i ^ e^j, extended as a graded derivation.
    """
    n = g.dim
    if not 0 <= p <= n:
        raise DegreeOutOfRangeError(f"degree {p} outside 0..{n}")
    src = basis_tuples(n, p)
    tgt = {t: r for r, t in enumerate(basis_tuples(n, p + 1))}
    pairs = []
    for col, idx in enumerate(src):
        for s, k in enumerate(idx):
            slot_sign = (-1) ** s
            for bi, bj, terms in g.brackets:
                c = next((coeff for kk, coeff in terms if kk == k), None)
                if c is None:
                    continue
                # replace slot s by the 2-form e^bi ^ e^bj, then sort
                merged = sort_sign(idx[:s] + (bi, bj) + idx[s + 1 :])
                if merged is None:
                    continue
                sign, joined = merged
                pairs.append(((tgt[joined], col), -slot_sign * sign * c))
    return RationalMatrix.from_entries(comb(n, p + 1), comb(n, p), pairs)


def ce_differential(r: Representation, p: int) -> RationalMatrix:
    """Matrix of d_p on E (x) Lambda^p (coefficient index major)."""
    g = r.algebra
    n = g.dim
    if not 0 <= p <= n:
        raise DegreeOutOfRangeError(f"degree {p} outside 0..{n}")
    terms = [(0, 0, RationalMatrix.identity(r.dim_e), trivial_ce_differential(g, p))]
    terms += [(0, 0, r.action[i], wedge_matrix(n, p, i)) for i in range(n)]
    return kron_sum(r.dim_e * comb(n, p + 1), r.dim_e * comb(n, p), terms)


def ce_complex(r: Representation) -> CochainComplex:
    """Full complex E (x) Lambda^* with validated inputs."""
    g = r.algebra
    require_jacobi(g)
    if not check_representation(r):
        raise ValidationError("action matrices do not represent the bracket "
                              f"on basis pair {representation_violation(r)}")
    n = g.dim
    degrees = tuple(r.dim_e * comb(n, p) for p in range(n + 1))
    diffs = tuple(ce_differential(r, p) for p in range(n))
    return CochainComplex(degrees=degrees, differentials=diffs)


def lie_cohomology(r: Representation) -> CohomologyReport:
    return complex_cohomology(ce_complex(r))


def euler_characteristic(r: Representation) -> int:
    return lie_cohomology(r).euler


def change_basis(g: LieAlgebra, p: RationalMatrix) -> LieAlgebra:
    """Structure constants in the basis whose vectors are the columns of `p`."""
    if p.rows != g.dim or p.cols != g.dim:
        raise ValueError("basis-change matrix must be dim x dim")
    p_inv = inverse(p)  # raises ValueError when singular
    n = g.dim
    new_brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            vi = p.column(i)
            vj = p.column(j)
            img = bracket(g, vi, vj)
            coords = p_inv.apply(img)
            terms = {k: c for k, c in enumerate(coords) if c}
            if terms:
                new_brackets[(i, j)] = terms
    return LieAlgebra.make(n, new_brackets, name=g.name + "~" if g.name else "")
