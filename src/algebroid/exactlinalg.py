"""Exact linear algebra over the rationals.

Matrices carry `fractions.Fraction` entries; nothing in this module (or in
the rest of the package) touches floating point.  How a matrix is stored is
private to this module: callers build matrices through the constructors
(`from_entries` for scattered entries) and read them through indexing,
`to_rows` and `column`.  Ranks are computed by sparse elimination on
denominator-cleared integer rows.  Columns are taken left to right; the
pivot for a column is, among the rows holding it, the row with the fewest
nonzeros, then the entry of smallest bit size, then the lowest index.  Only
the rows that hold the pivot column are updated, and each updated row is
divided by the gcd of its entries, which keeps every entry within the
Hadamard bound of the cleared matrix (see `rank`).  Kernel bases and
inverses come from a reduced row echelon form over Fraction, so the two
elimination routes cross-check each other in the test suite.  The d^2 = 0
check multiplies cleared integer rows as well (`CochainComplex.chain_defect`).
Every matrix made of blocks or Kronecker products is one `kron_sum`, which
states the layout rule.

`rank_modular` is not a fast path: it is slower than the exact `rank` on
the package's matrices.  It is kept as an independent certificate, which
the acceptance tests compare against the exact rank.  It reduces the
cleared integer matrix modulo a fixed list of large primes and takes the
largest modular rank, a lower bound that equals the exact rank unless every
prime is unlucky.

A cochain complex is a list of degree dimensions together with the
differentials d_p : C^p -> C^{p+1}.  Cohomology dimensions are

    betti[p] = kernel_dim(d_p) - rank(d_{p-1})

with zero maps implied at both ends.  Empty matrices (zero rows or zero
columns) are legal everywhere and have rank 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ChainConditionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction. Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RationalMatrix:
    """Sparse matrix over Q.  Instances are treated as immutable once built.

    Row i is stored as a dict {column: nonzero Fraction}; zeros are never
    stored, so equal matrices have equal rows and every operation costs
    time in proportion to the nonzeros it touches.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._e = [{} for _ in range(rows)]
        else:
            if len(entries) != rows:
                raise ValueError("row count mismatch")
            e = []
            for row in entries:
                if len(row) != cols:
                    raise ValueError("column count mismatch")
                e.append({j: x for j, x in enumerate(map(as_fraction, row)) if x})
            self._e = e

    @classmethod
    def _wrap(cls, rows: int, cols: int, e: list[dict[int, Fraction]]) -> "RationalMatrix":
        # Takes ownership of rows that already hold no zeros.
        m = cls.__new__(cls)
        m.rows, m.cols, m._e = rows, cols, e
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     pairs: Iterable[tuple[tuple[int, int], object]]) -> "RationalMatrix":
        """Build from ((i, j), value) pairs: repeated positions are summed,
        zeros (given or cancelled) are dropped, and a position outside the
        shape raises IndexError."""
        m = cls(rows, cols)
        e = m._e
        for (i, j), x in pairs:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            x = as_fraction(x)
            row = e[i]
            row[j] = row[j] + x if j in row else x
        m._e = [{j: x for j, x in row.items() if x} for row in e]
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._wrap(n, n, [{i: _ONE} for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self._e[i].get(j, _ZERO)

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def row(self, i: int) -> list[Fraction]:
        out = [_ZERO] * self.cols
        for j, x in self._e[i].items():
            out[j] = x
        return out

    def column(self, j: int) -> list[Fraction]:
        return [row.get(j, _ZERO) for row in self._e]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self._e)

    def transpose(self) -> "RationalMatrix":
        t = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._e):
            for j, x in row.items():
                t[j][i] = x
        return RationalMatrix._wrap(self.cols, self.rows, t)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._require_same_shape(other)
        return RationalMatrix._wrap(self.rows, self.cols,
                                    [_row_sum(a, b) for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._wrap(self.rows, self.cols,
                                    [{j: -x for j, x in row.items()} for row in self._e])

    def scaled(self, c) -> "RationalMatrix":
        c = as_fraction(c)
        if not c:
            return RationalMatrix(self.rows, self.cols)
        return RationalMatrix._wrap(self.rows, self.cols,
                                    [{j: c * x for j, x in row.items()} for row in self._e])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for srow in self._e:
            acc: dict[int, Fraction] = {}
            for k, s in srow.items():
                for j, x in other._e[k].items():
                    acc[j] = acc.get(j, _ZERO) + s * x
            out.append({j: x for j, x in acc.items() if x})
        return RationalMatrix._wrap(self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [as_fraction(x) for x in vec]
        return [sum((x * v[j] for j, x in row.items() if v[j]), _ZERO) for row in self._e]

    def _require_same_shape(self, other: "RationalMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _row_sum(a: dict, b: dict) -> dict:
    """Sum of two sparse rows, cancellations dropped."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for j, y in b.items():
        x = out.pop(j, None)
        v = y if x is None else x + y
        if v:
            out[j] = v
    return out


def kron_sum(rows: int, cols: int,
             terms: Iterable[tuple[int, int, RationalMatrix, RationalMatrix]]) -> RationalMatrix:
    """Sum of A (x) B over the terms (r0, c0, A, B), as a rows x cols matrix.

    A[i, j] B[k, l] lands at (r0 + i*B.rows + k, c0 + j*B.cols + l): each
    product has its top-left entry at (r0, c0) and the index of A is major.
    Terms add, cancelled entries are dropped, and a term that does not fit
    raises ValueError.  A plain block M is the term (r0, c0, identity(1), M).
    """
    out: list[dict[int, Fraction]] = [{} for _ in range(rows)]
    for r0, c0, a, b in terms:
        br, bc = b.rows, b.cols
        if min(r0, c0) < 0 or r0 + a.rows * br > rows or c0 + a.cols * bc > cols:
            raise ValueError(f"a {a.rows * br}x{a.cols * bc} term at ({r0}, {c0}) "
                             f"does not fit a {rows}x{cols} matrix")
        brows = [(k, brow.items()) for k, brow in enumerate(b._e) if brow]
        for i, arow in enumerate(a._e):
            for j, x in arow.items():
                base = c0 + j * bc
                for k, bitems in brows:
                    row = out[r0 + i * br + k]
                    for l, y in bitems:
                        old = row.get(base + l)
                        row[base + l] = x * y if old is None else old + x * y
    return RationalMatrix._wrap(rows, cols, [{j: x for j, x in row.items() if x} for row in out])


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    # Row scaling by the positive lcm of denominators preserves rank and kernel.
    # The denominators go to lcm as a list: star-unpacking a generator here
    # left about 0.3 MB more peak RSS on a Kunneth product (CPython 3.11).
    out = []
    for row in m._e:
        d = lcm(*[x.denominator for x in row.values()])
        out.append({j: x.numerator * (d // x.denominator) for j, x in row.items()})
    return out


def rank(m: RationalMatrix) -> int:
    """Exact rank by sparse integer elimination.

    Works on the denominator-cleared integer rows, with an index `at` from
    each column to the live rows that have a nonzero there.  Columns are
    taken in increasing order; the candidate pivots for column c are exactly
    the rows in at[c].  The pivot is the candidate with the fewest nonzeros,
    then the smallest bit size of its entry in column c, then the lowest row
    index, so the choice is deterministic and the fill-in small.  The pivot
    row leaves the index, and only the other rows that hold column c change:
    each becomes (piv/g)*row - (f/g)*pivot_row with g = gcd(piv, f), and is
    divided by the gcd of its entries.  A row that cancels to zero is
    dropped.  Rank does not depend on which pivots are chosen.

    The content division is what bounds the entries.  After k pivots a live
    row is a nonzero multiple of its cleared input row plus a combination of
    the k pivot rows, and it vanishes on the k pivot columns.  The input
    rows of the pivots restricted to those columns form a block B with
    det(B) != 0, so the live row is a nonzero multiple of its row of the
    Schur complement of B, and det(B) times that Schur row is an integer
    vector of (k+1)-minors of the cleared matrix.  After content division
    the live row is the primitive integer vector in that direction, which
    divides the vector of minors entry by entry.  So every stored entry is
    at most a minor of the cleared matrix, hence at most its Hadamard bound.
    """
    rows = _integer_rows(m)
    at: list[set[int]] = [set() for _ in range(m.cols)]
    for i, row in enumerate(rows):
        for j in row:
            at[j].add(i)
    r = 0
    for c, holders in enumerate(at):
        if not holders:
            continue
        p = min(holders, key=lambda i: (len(rows[i]), abs(rows[i][c]).bit_length(), i))
        prow = rows[p]
        for j in prow:
            at[j].discard(p)
        piv = prow[c]
        for i in list(holders):
            row = rows[i]
            f = row[c]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in prow.items():
                v = row.get(j, 0) - b * y
                if v:
                    if j not in row:
                        at[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    at[j].discard(i)
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
        r += 1
    return r


def kernel_dim(m: RationalMatrix) -> int:
    return m.cols - rank(m)


def cokernel_dim(m: RationalMatrix) -> int:
    return m.rows - rank(m)


def _rref(m: RationalMatrix) -> tuple[list[dict[int, Fraction]], list[int]]:
    a = [dict(row) for row in m._e]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        p = next((i for i in range(r, nr) if c in a[i]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = _ONE / a[r][c]
        prow = a[r] = {j: x * inv for j, x in a[r].items()}
        for i in range(nr):
            f = a[i].get(c) if i != r else None
            if f:
                a[i] = _row_sum(a[i], {j: -f * y for j, y in prow.items()})
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the null space, one vector per free column, in column order."""
    a, pivots = _rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -a[row_idx].get(free, _ZERO)
        basis.append(v)
    return basis


def inverse(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square matrix; raises ValueError when singular.

    Row-reduces [m | I]; m is invertible iff the pivots are the columns of m.
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    one = RationalMatrix.identity(1)
    augmented = kron_sum(n, 2 * n, [(0, 0, one, m), (0, n, one, RationalMatrix.identity(n))])
    a, pivots = _rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix._wrap(n, n, [{j - n: x for j, x in row.items() if j >= n}
                                       for row in a])


# Fixed, well-known primes; a deterministic list keeps CLI output byte-identical.
MODULAR_PRIMES = (1000000007, 1000000009, 998244353, 754974721, 167772161)


def rank_modular(m: RationalMatrix, primes: Sequence[int] = MODULAR_PRIMES) -> int:
    """Largest rank of `m` modulo the given primes.

    Always a lower bound for the exact rank, and equal to it unless every
    prime divides some unlucky minor.  Primes dividing a denominator are
    skipped; if all are skipped the exact path is used.
    """
    best = None
    for p in primes:
        if any(x.denominator % p == 0 for row in m._e for x in row.values()):
            continue
        a = []
        for row in m._e:
            reduced = [0] * m.cols
            for j, x in row.items():
                reduced[j] = x.numerator * pow(x.denominator, -1, p) % p
            a.append(reduced)
        r = _rank_mod_p(a, m.rows, m.cols, p)
        best = r if best is None else max(best, r)
    if best is None:
        return rank(m)
    return best


def _rank_mod_p(a: list[list[int]], nr: int, nc: int, p: int) -> int:
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(r + 1, nr):
            if a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


@dataclass(frozen=True)
class CochainComplex:
    """Finite complex 0 -> C^0 -> C^1 -> ... -> C^top -> 0.

    `degrees[p]` is dim C^p and `differentials[p]` is the matrix of
    d_p : C^p -> C^{p+1}; there are len(degrees) - 1 differentials.
    """

    degrees: tuple[int, ...]
    differentials: tuple[RationalMatrix, ...]

    def __post_init__(self):
        if not self.degrees:
            raise ValueError("a complex needs at least one degree")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degree dimensions must be nonnegative")
        if len(self.differentials) != len(self.degrees) - 1:
            raise ValueError("expected one differential per consecutive degree pair")
        for p, d in enumerate(self.differentials):
            if d.cols != self.degrees[p] or d.rows != self.degrees[p + 1]:
                raise ValueError(
                    f"d_{p} has shape {d.rows}x{d.cols}, expected "
                    f"{self.degrees[p + 1]}x{self.degrees[p]}"
                )

    @property
    def top(self) -> int:
        return len(self.degrees) - 1

    def chain_defect(self) -> int | None:
        """Smallest p with d_{p+1} d_p != 0, or None when d^2 = 0.

        Multiplies cleared integer rows: the rows of d_{p+1} and the columns
        of d_p, each scaled by a positive integer.  Such scalings cannot
        make a nonzero product zero or a zero product nonzero.  Only the
        pair being checked is cleared.
        """
        for p in range(len(self.differentials) - 1):
            left = _integer_rows(self.differentials[p + 1])
            right: list[dict[int, int]] = [{} for _ in range(self.degrees[p + 1])]
            for j, col in enumerate(_integer_rows(self.differentials[p].transpose())):
                for k, x in col.items():
                    right[k][j] = x
            for lrow in left:
                acc: dict[int, int] = {}
                for k, x in lrow.items():
                    for j, y in right[k].items():
                        acc[j] = acc.get(j, 0) + x * y
                if any(acc.values()):
                    return p
        return None


@dataclass(frozen=True)
class CohomologyReport:
    degrees: tuple[int, ...]
    betti: tuple[int, ...]
    euler: int


def complex_cohomology(c: CochainComplex) -> CohomologyReport:
    """Betti numbers and Euler characteristic of a finite complex.

    Raises ChainConditionError when d^2 != 0.
    """
    defect = c.chain_defect()
    if defect is not None:
        raise ChainConditionError(defect)
    ranks = [rank(d) for d in c.differentials]
    top = c.top
    betti = []
    for p in range(top + 1):
        rank_out = ranks[p] if p < top else 0
        rank_in = ranks[p - 1] if p > 0 else 0
        betti.append(c.degrees[p] - rank_out - rank_in)
    euler = sum((-1) ** p * b for p, b in enumerate(betti))
    return CohomologyReport(degrees=tuple(c.degrees), betti=tuple(betti), euler=euler)
