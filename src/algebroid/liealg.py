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

Both terms come from one loop over bitmask forms, on integer rows like the flatness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .errors import DegreeOutOfRangeError, ValidationError
from .exactlinalg import CochainComplex, CohomologyReport, RationalMatrix, _reduced, \
    as_fraction, common_rows, complex_cohomology, require_cochain_budget
from .exterior import basis_index, basis_masks

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
    sign, pair = (1, (i, j)) if i < j else (-1, (j, i))
    for bi, bj, terms in g.brackets:
        if (bi, bj) == pair:
            for k, c in terms:
                out[k] = sign * c
    return out


def jacobi_violation(g: LieAlgebra) -> tuple[int, int, int] | None:
    """First basis triple i < j < k, in lexicographic order, whose cyclic
    Jacobi sum is nonzero, or None when the identity holds."""
    table = {(i, j): terms for i, j, terms in g.brackets}
    # A triple with no bracketed pair has a zero sum, so only the triples that
    # hold a pair of the table are visited.
    triples = sorted({(k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)
                      for i, j in table for k in range(g.dim) if k != i and k != j})
    for i, j, k in triples:
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] - [[e_i, e_k], e_j], read off the sparse table
        acc: dict[int, Fraction] = {}
        for outer, c, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
            for m, x in table.get(outer, ()):
                if m != c:
                    inner, s = ((m, c), sign * x) if m < c else ((c, m), -sign * x)
                    for t, y in table.get(inner, ()):
                        acc[t] = acc.get(t, 0) + s * y
        if any(acc.values()):
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
    rho_[e_i, e_j] != rho_i rho_j - rho_j rho_i, or None when r is flat.  On
    N_k = D rho_k and q = lcm(c^k_ij's denominators): q [N_i, N_j] = D sum_k q c^k_ij N_k.
    """
    den, mats = common_rows(r.action)
    table = {(i, j): terms for i, j, terms in r.algebra.brackets}
    for i, j in combinations(range(r.algebra.dim), 2):
        terms = table.get((i, j), ())
        q = lcm(*[c.denominator for _, c in terms])
        for a in range(r.dim_e):
            acc: dict[int, int] = {}
            for left, right, f in ((mats[i], mats[j], q), (mats[j], mats[i], -q)):
                for m, x in left[a].items():
                    for b, y in right[m].items():
                        acc[b] = acc.get(b, 0) + f * x * y
            for k, c in terms:
                for b, y in mats[k][a].items():
                    acc[b] = acc.get(b, 0) - den * c.numerator * (q // c.denominator) * y
            if any(acc.values()):
                return (i, j)
    return None


def check_representation(r: Representation) -> bool:
    """True iff rho_[e_i, e_j] = rho_i rho_j - rho_j rho_i for all i < j."""
    return representation_violation(r) is None


def trivial_ce_differential(g: LieAlgebra, p: int) -> RationalMatrix:
    """Differential on degree-p forms with trivial coefficients.

    d(e^k) = - sum_{i<j} c^k_{ij} e^i ^ e^j, extended as a graded derivation.
    """
    return _differential(g, p, 1, [])


def ce_differential(r: Representation, p: int) -> RationalMatrix:
    """Matrix of d_p on E (x) Lambda^p (coefficient index major)."""
    # A zero action adds nothing, so its wedge terms are not written.
    actions = [(i, rho) for i, rho in enumerate(r.action) if not rho.is_zero()]
    return _differential(r.algebra, p, r.dim_e, actions)


def bracket_terms(g: LieAlgebra, den: int):
    """The trivial differential on bitmask forms: a function of (w, tgt) that
    gives d(e^w) as {tgt[u]: integer coefficient of e^u over den}, for a den
    that `bracket_denominator(g)` divides.  CE and window differentials both
    read it, so the sign rule of d(e^k) is stated here alone."""
    # Slot s of e^k becomes d(e^k); moving its 2-form e^i ^ e^j to the front
    # costs (-1)^{2s} = 1, so the sign is (-1)^s times that of e^i ^ e^j ^ rest:
    # the parity of rest's bits below k, i and j, or in the xor of those masks.
    gens = [(1 << k, 1 << i | 1 << j, ((1 << i) - 1) ^ ((1 << j) - 1) ^ ((1 << k) - 1),
             -c.numerator * (den // c.denominator)) for i, j, terms in g.brackets for k, c in terms]

    def column(w: int, tgt: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for bit, pair, below, v in gens:
            rest = w ^ bit
            if w & bit and not rest & pair:
                r = tgt[rest | pair]
                out[r] = out.get(r, 0) + (-v if (rest & below).bit_count() & 1 else v)
        return out
    return column


def bracket_denominator(g: LieAlgebra) -> int:
    """lcm of the structure constants' denominators."""
    return lcm(*[c.denominator for _, _, terms in g.brackets for _, c in terms])


def _differential(g: LieAlgebra, p: int, dim_e: int, actions: list) -> RationalMatrix:
    """I (x) d_triv + sum_i rho_i (x) (e^i ^ -) for the actions (i, rho_i),
    written column by column from one loop over the source masks."""
    n = g.dim
    if not 0 <= p <= n:
        raise DegreeOutOfRangeError(f"degree {p} outside 0..{n}")
    rows, cols = comb(n, p + 1), comb(n, p)
    den, by_col = common_rows([rho.transpose() for _, rho in actions], bracket_denominator(g))
    d_triv = bracket_terms(g, den)
    acts = [(1 << i, (1 << i) - 1, col) for (i, _), col in zip(actions, by_col)]
    tgt = basis_index(n, p + 1)
    out: list[dict[int, int]] = [{} for _ in range(dim_e * rows)]
    for src, w in enumerate(basis_masks(n, p) if dim_e else ()):  # dim_e = 0: no cochains
        triv = d_triv(w, tgt)
        wedges = [(tgt[w | bit], -1 if (w & below).bit_count() & 1 else 1, col)
                  for bit, below, col in acts if not w & bit]
        for b in range(dim_e):
            acc = {b * rows + r: v for r, v in triv.items()}
            for r, sign, col in wedges:
                for a, x in col[b].items():
                    acc[a * rows + r] = acc.get(a * rows + r, 0) + sign * x
            for r, v in acc.items():
                if v:
                    out[r][b * cols + src] = v
    return RationalMatrix._wrap(dim_e * rows, dim_e * cols, *_reduced(out, den))


def ce_complex(r: Representation) -> CochainComplex:
    """Full complex E (x) Lambda^* with validated inputs."""
    g = r.algebra
    require_cochain_budget(r.dim_e, g.dim, "the Chevalley-Eilenberg complex")
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

