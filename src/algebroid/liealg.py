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
elimination reads, and one call builds a whole complex: a CE form carries
E, placed coefficient major (`ce_layouts`), and a window form of `circle`
carries its window, placed contiguously.

`ce_complex` and `complex_cohomology` are the full path, one complex of
dim E * 2^n cochains.  `lie_cohomology` takes it when the bracket-support
graph of g, with e_i, e_j and e_k joined for every term [e_i, e_j] ∋ e_k, is
connected.  Otherwise g is the direct sum of the ideals on its components.
The whole input is checked as `ce_complex` checks it, and one graph, the
basis and then E's coordinates, takes the action's entries too: an entry
(a, b) of rho_i joins e_i to coordinates a and b.  Each component is then
one factor g_a and the part E_a of E it acts on, or a block that nothing
acts on; a one-dimensional factor's trivial H is (1, 1), without a complex.
By Kunneth, a factor gives H(g_a; E_a) (x) (x)_{b != a} H(g_b), and a block
gives its dimension times (x)_b H(g_b): Betti vectors convolved, each
factor's complex built and reduced alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat
from math import comb, lcm
from typing import Iterable, Iterator, Sequence

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

    A term [[e_a, e_b], e_c] of the sum is nonzero only if (a, b) is a
    bracketed pair and c a bracket partner of one of its targets.  So only
    the triples of a bracketed pair (i, j) and such a partner k are visited,
    O(brackets^2) whatever the dimension, and the first violation does not
    move.
    """
    table = {(i, j): terms for i, j, terms in g.brackets}
    partners: dict[int, set[int]] = {}
    for i, j in table:
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    triples = sorted({(k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)
                      for (i, j), terms in table.items() for m, _ in terms
                      for k in partners.get(m, ()) if k != i and k != j})
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
    support = [{b for b, col in enumerate(m) if col} for m in mats]  # the nonzero columns
    for i, j in combinations(range(r.algebra.dim), 2):
        terms = table.get((i, j), ())
        q = lcm(*[c.denominator for _, c in terms])
        # a column b with no term in N_i, N_j or any N_k of the bracket compares 0 = 0
        for b in support[i].union(support[j], *[support[k] for k, _ in terms]):
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
    return ce_differential(trivial_representation(g), p)


def ce_differential(r: Representation, p: int) -> RationalMatrix:
    """Matrix of d_p on E (x) Lambda^p (coefficient index major): the one
    differential `form_columns` writes on degrees p and p + 1."""
    n = r.algebra.dim
    if not 0 <= p <= n:
        raise DegreeOutOfRangeError(f"degree {p} outside 0..{n}")
    return form_columns(r.algebra, dict(enumerate(r.action)),
                        ce_layouts(n, r.dim_e, p, p + 1)).differentials[0]


def ce_layouts(n: int, e: int, lo: int, hi: int) -> Iterator:
    """The layouts of degrees lo..hi of E (x) Lambda^* for `form_columns`:
    every form carries E = Q^e, and coordinate a of the r-th form of degree
    p sits at r + a * C(n, p), coefficient index major."""
    return ((masks, [e] * len(masks), range(len(masks)), len(masks))
            for masks in map(basis_masks, repeat(n), range(lo, hi + 1)))


def bracket_denominator(g: LieAlgebra) -> int:
    """lcm of the structure constants' denominators."""
    return lcm(*[c.denominator for _, _, terms in g.brackets for _, c in terms])


def form_columns(g: LieAlgebra, action: dict[int, RationalMatrix],
                 layouts: Iterable) -> CochainComplex:
    """The complex on consecutive degrees of forms that carry fibers, one
    layout (masks, fibers, starts, stride) per degree, read once as the
    targets of d_{p-1} and the sources of d_p: form masks[r] carries fibers[r]
    coordinates, coordinate a at starts[r] + a * stride.  One loop over the
    source masks writes each d_p, and the denominator of the brackets and the
    action, the bracket terms and the action's blocks are set up once.  Each
    term of d(e^w) maps w's fiber onto a prefix of its target's by the
    identity, and e^i ^ e^w carries the first columns of action[i], as many
    as w's fiber has, from w's fiber into its target's.
    """
    den, mats = common_columns(list(action.values()), bracket_denominator(g))
    # Slot s of e^k becomes d(e^k); moving its 2-form e^i ^ e^j to the front
    # costs (-1)^{2s} = 1, so the sign is (-1)^s times that of e^i ^ e^j ^ rest:
    # the parity of rest's bits below k, i and j, or in the xor of those masks.
    gens = [(1 << k, 1 << i | 1 << j, ((1 << i) - 1) ^ ((1 << j) - 1) ^ ((1 << k) - 1),
             -c.numerator * (den // c.denominator)) for i, j, terms in g.brackets for k, c in terms]
    # e^i ^ e^w = (-1)^(bits of w below i) e^(w | 1 << i); a zero block adds nothing.
    blocks = [(1 << i, (1 << i) - 1, block) for i, m in zip(action, mats)
              if (block := [(b, col) for b, col in enumerate(m) if col])]
    layouts = iter(layouts)  # one degree's layout is read, and kept until the next one's
    masks, fibers, starts, ss = next(layouts)
    degrees, diffs = [sum(fibers)], []
    for tmasks, tfibers, tstarts, ts in layouts:
        width, rows = degrees[-1], sum(tfibers)
        degrees.append(rows)
        tgt = dict(zip(tmasks, tstarts))
        acts = [(bit, below, [(b, {r * ts: x for r, x in col.items()}) for b, col in block]
                 if ts > 1 else block) for bit, below, block in blocks]
        out: list = [None] * width  # every column is one coordinate of one source form
        for w, c0, fib in zip(masks, starts, fibers) if width else ():  # E = 0: no column
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
                    if b >= fib:  # a window takes the widest block's first fib columns
                        break
                    col = cols[b]
                    for r, x in entries.items():
                        col[r0 + r] = col.get(r0 + r, 0) + (-x if neg else x)
            out[c0:c0 + fib * ss:ss] = cols
        diffs.append(RationalMatrix(rows, width, out, den))
        masks, fibers, starts, ss = tmasks, tfibers, tstarts, ts
    return CochainComplex(tuple(degrees), tuple(diffs))


def _require_ce_inputs(r: Representation) -> None:
    """The checks of every CE computation, on the whole input and in this
    order: the budget on dim_e * 2^dim, Jacobi, then flatness."""
    g = r.algebra
    require_cochain_budget(r.dim_e, g.dim, "the Chevalley-Eilenberg complex")
    require_jacobi(g)
    if not check_representation(r):
        raise ValidationError("action matrices do not represent the bracket "
                              f"on basis pair {representation_violation(r)}")


def ce_complex(r: Representation) -> CochainComplex:
    """Full complex E (x) Lambda^* with validated inputs."""
    _require_ce_inputs(r)
    g = r.algebra
    return form_columns(g, dict(enumerate(r.action)), ce_layouts(g.dim, r.dim_e, 0, g.dim))


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The Betti vector of a tensor product of two complexes from theirs."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _factor_betti(g: LieAlgebra, basis: list[int], den: int, action: dict[int, list],
                  coords: list[int]) -> tuple[int, ...]:
    """H(g_a; E_a) for the ideal g_a on the sorted `basis`, whose vectors i act
    by the integer columns action[i] over den, which preserve the sorted
    `coords` of E: its complex, built in its own basis and reduced."""
    at = {i: p for p, i in enumerate(basis)}
    h = LieAlgebra(len(basis), tuple((at[i], at[j], tuple((at[k], c) for k, c in terms))
                                     for i, j, terms in g.brackets if i in at))
    pos = {a: p for p, a in enumerate(coords)}
    rho = {at[i]: RationalMatrix(len(pos), len(pos), [{pos[a]: x for a, x in m[b].items()}
                                                      for b in coords], den)
           for i, m in action.items()}
    return complex_cohomology(form_columns(h, rho, ce_layouts(h.dim, len(pos), 0, h.dim))).betti


def lie_cohomology(r: Representation) -> CohomologyReport:
    """H(g; E).  A connected bracket-support graph takes the full path,
    `complex_cohomology(ce_complex(r))`.  Otherwise, once the whole input is
    checked, the action's entries join E's coordinates to that graph, each
    component is one factor and the coordinates it acts on, and the factors'
    Betti vectors are convolved (see the module docstring)."""
    g, e, n = r.algebra, r.dim_e, r.algebra.dim
    part = list(range(n + e))  # union-find over the basis, then E's coordinates at n + a
    for i, j, terms in g.brackets:
        root = _root(part, i)
        part[_root(part, j)] = root
        for k, _ in terms:
            part[_root(part, k)] = root
    if sum(map(int.__eq__, part, range(n))) < 2:  # one component, or none
        return complex_cohomology(ce_complex(r))
    _require_ce_inputs(r)
    den, mats = common_columns(r.action)
    for i, m in enumerate(mats):
        root = _root(part, i)
        for b, col in enumerate(m):
            for a in col:  # the entry (a, b) of rho_i joins i, n + b and n + a
                part[_root(part, n + b)] = part[_root(part, n + a)] = root
    factors: dict[int, tuple[list[int], list[int]]] = {}  # root: (basis, coordinates)
    for x in range(n + e):
        factors.setdefault(_root(part, x), ([], []))[x >= n].append(x - n if x >= n else x)
    # a one-dimensional factor's trivial H is (1, 1): no complex is built for it
    trivial = {f: (1, 1) if len(basis) == 1 else _factor_betti(g, basis, 1, {}, [0])
               for f, (basis, _) in factors.items() if basis}
    betti = [0] * (n + 1)
    for f, (basis, coords) in factors.items():
        if not coords:
            continue
        # a block that nothing acts on counts its dimension
        b = [len(coords)] if not basis else _factor_betti(
            g, basis, den, {i: mats[i] for i in basis}, coords)
        for t in [t for other, t in trivial.items() if other != f]:
            b = convolve(b, t)
        betti = [x + y for x, y in zip(betti, b)]
    return CohomologyReport(tuple(e * comb(n, p) for p in range(n + 1)), tuple(betti),
                            sum(b if p % 2 == 0 else -b for p, b in enumerate(betti)))
