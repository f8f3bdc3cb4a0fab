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

Both terms come from `form_columns`, one loop over bitmask forms that
carry fibers, on integer columns like the flatness check.  It writes every
differential of the package, each column once, in the storage the
elimination reads: a CE form carries E, placed coefficient major, and a
window form of `circle` carries its window, placed contiguously.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat
from math import comb, lcm
from typing import Sequence

from .errors import DegreeOutOfRangeError, ValidationError
from .exactlinalg import CochainComplex, CohomologyReport, RationalMatrix, as_fraction, \
    common_columns, complex_cohomology, require_cochain_budget
from .exterior import basis_masks

# Normal form for brackets: ((i, j, ((k, coeff), ...)), ...) sorted by (i, j)
# with i < j, inner terms sorted by k, zero coefficients dropped.
BracketTable = tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]


class LieAlgebra:
    __slots__ = ("dim", "brackets", "name")

    def __init__(self, dim: int, brackets: BracketTable = (), name: str = ""):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        for i, j, terms in brackets:
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            for k, c in terms:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target {k} out of range")
                if not isinstance(c, Fraction):
                    raise ValueError("structure constants must be Fractions")
        self.dim, self.brackets, self.name = dim, brackets, name

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim, self.brackets, self.name) == (other.dim, other.brackets, other.name)

    def __hash__(self) -> int:
        return hash((self.dim, self.brackets, self.name))

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


def jacobi_violation(g: LieAlgebra) -> tuple[int, int, int] | None:
    """First basis triple i < j < k, in lexicographic order, whose cyclic
    Jacobi sum is nonzero, or None when the identity holds.

    A triple with no bracketed pair has a zero sum, and so has one holding a
    central e_k, an index in no pair of the table: each of the sum's three
    terms brackets with e_k.  So only the triples of a bracketed pair and a
    third index of some pair are visited, O(brackets^2) whatever the
    dimension, and the first violation does not move.
    """
    table = {(i, j): terms for i, j, terms in g.brackets}
    support = {x for pair in table for x in pair}
    triples = sorted({(k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)
                      for i, j in table for k in support if k != i and k != j})
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


class Representation:
    """A Lie algebra acting on Q^dim_e by one matrix per basis vector."""

    __slots__ = ("algebra", "dim_e", "action")

    def __init__(self, algebra: LieAlgebra, dim_e: int, action: tuple[RationalMatrix, ...]):
        if dim_e < 0:
            raise ValueError("representation dimension must be nonnegative")
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per basis vector")
        for m in action:
            if m.rows != dim_e or m.cols != dim_e:
                raise ValueError("action matrices must be dim_e x dim_e")
        self.algebra, self.dim_e, self.action = algebra, dim_e, action

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.algebra, self.dim_e, self.action) == \
            (other.algebra, other.dim_e, other.action)


def trivial_representation(g: LieAlgebra, dim_e: int = 1) -> Representation:
    zero = RationalMatrix.zeros(dim_e, dim_e)
    return Representation(algebra=g, dim_e=dim_e, action=(zero,) * g.dim)


def adjoint_representation(g: LieAlgebra) -> Representation:
    """ad_i e_j = [e_i, e_j]: column j of ad_i is c^._ij, written as integers
    over `bracket_denominator(g)` straight from the bracket table."""
    den = bracket_denominator(g)
    cols = [[{} for _ in range(g.dim)] for _ in range(g.dim)]
    for i, j, terms in g.brackets:
        cols[i][j] = {k: c.numerator * (den // c.denominator) for k, c in terms}
        cols[j][i] = {k: -x for k, x in cols[i][j].items()}
    return Representation(algebra=g, dim_e=g.dim,
                          action=tuple(RationalMatrix(g.dim, g.dim, c, den) for c in cols))


def representation_violation(r: Representation) -> tuple[int, int] | None:
    """First basis pair i < j, in lexicographic order, with
    rho_[e_i, e_j] != rho_i rho_j - rho_j rho_i, or None when r is flat.  On
    N_k = D rho_k and q = lcm(c^k_ij's denominators): q [N_i, N_j] = D sum_k q c^k_ij N_k,
    compared column by column.
    """
    den, mats = common_columns(r.action)
    table = {(i, j): terms for i, j, terms in r.algebra.brackets}
    for i, j in combinations(range(r.algebra.dim), 2):
        terms = table.get((i, j), ())
        q = lcm(*[c.denominator for _, c in terms])
        for b in range(r.dim_e):
            acc: dict[int, int] = {}
            for left, right, f in ((mats[i], mats[j], q), (mats[j], mats[i], -q)):
                for m, y in right[b].items():
                    for a, x in left[m].items():
                        acc[a] = acc.get(a, 0) + f * x * y
            for k, c in terms:
                for a, y in mats[k][b].items():
                    acc[a] = acc.get(a, 0) - den * c.numerator * (q // c.denominator) * y
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


def bracket_denominator(g: LieAlgebra) -> int:
    """lcm of the structure constants' denominators."""
    return lcm(*[c.denominator for _, _, terms in g.brackets for _, c in terms])


def form_columns(g: LieAlgebra, p: int, den: int, fibers: Sequence[int],
                 starts: tuple[Sequence[int], Sequence[int]], strides: tuple[int, int],
                 blocks: list, width: int) -> list[dict[int, int]]:
    """The `width` integer columns over den of d_p on degree-p forms that
    carry fibers, written from one loop over the source masks; den is a
    multiple of `bracket_denominator(g)`.

    The r-th form of degree p carries fibers[r] > 0 coordinates, and
    coordinate a of the r-th form of degree p + s sits at starts[s][r] +
    a * strides[s].
    Each term of d(e^w) maps w's fiber onto a prefix of its target's by the
    identity.  For each (i, block) of `blocks`, block lists (b, column) for
    the nonzero columns b of a matrix of integers over den, ascending, with
    the rows already scaled by strides[1], and e^i ^ e^w carries its columns
    b < fiber of w, from w's fiber into its target's.
    """
    n, (ss, ts) = g.dim, strides
    tgt = dict(zip(basis_masks(n, p + 1), starts[1]))
    # Slot s of e^k becomes d(e^k); moving its 2-form e^i ^ e^j to the front
    # costs (-1)^{2s} = 1, so the sign is (-1)^s times that of e^i ^ e^j ^ rest:
    # the parity of rest's bits below k, i and j, or in the xor of those masks.
    gens = [(1 << k, 1 << i | 1 << j, ((1 << i) - 1) ^ ((1 << j) - 1) ^ ((1 << k) - 1),
             -c.numerator * (den // c.denominator)) for i, j, terms in g.brackets for k, c in terms]
    # e^i ^ e^w = (-1)^(bits of w below i) e^(w | 1 << i)
    acts = [(1 << i, (1 << i) - 1, block) for i, block in blocks]
    out: list = [None] * width  # every column is one coordinate of one source form
    for w, c0, fib in zip(basis_masks(n, p), starts[0], fibers):
        first: dict[int, int] = {}
        for bit, pair, below, v in gens:
            rest = w ^ bit
            if w & bit and not rest & pair:
                r = tgt[rest | pair]
                first[r] = first.get(r, 0) + (-v if (rest & below).bit_count() & 1 else v)
        # Coordinate a of w's fiber goes to coordinate a of each target's: the
        # column of a = 0 is `first` itself, and the others are its shifts.
        cols = [first]
        if fib > 1:
            cols += map(dict, repeat((), fib - 1))
            for r, v in first.items():
                for col, i in zip(cols[1:], range(r + ts, r + fib * ts, ts)):
                    col[i] = v
        for bit, below, block in acts:
            if w & bit:
                continue
            r0, neg = tgt[w | bit], (w & below).bit_count() & 1
            for b, entries in block:
                if b >= fib:  # a window block is the widest one's first fib columns
                    break
                col = cols[b]
                for r, x in entries.items():
                    col[r0 + r] = col.get(r0 + r, 0) + (-x if neg else x)
        out[c0:c0 + fib * ss:ss] = cols
    return out


def _differential(g: LieAlgebra, p: int, dim_e: int, actions: list) -> RationalMatrix:
    """I (x) d_triv + sum_i rho_i (x) (e^i ^ -) for the actions (i, rho_i):
    every form carries E, coefficient index major."""
    n = g.dim
    if not 0 <= p <= n:
        raise DegreeOutOfRangeError(f"degree {p} outside 0..{n}")
    rows, cols = comb(n, p + 1), comb(n, p)
    if not dim_e:  # no coordinates at all
        return RationalMatrix.zeros(0, 0)
    den, mats = common_columns([rho for _, rho in actions], bracket_denominator(g))
    blocks = [(i, [(b, {a * rows: x for a, x in col.items()}) for b, col in enumerate(m) if col])
              for (i, _), m in zip(actions, mats)]
    out = form_columns(g, p, den, [dim_e] * cols, (range(cols), range(rows)), (cols, rows),
                       blocks, dim_e * cols)
    return RationalMatrix(dim_e * rows, dim_e * cols, out, den)


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
