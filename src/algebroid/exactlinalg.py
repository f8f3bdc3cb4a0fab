"""Exact linear algebra over the rationals.

Nothing in this package touches floating point.  The storage is sparse
integer numerator rows over one common denominator (see `RationalMatrix`);
only this module reads it, and other modules read Fractions through
indexing, `to_rows` and `column`, or integer rows through `common_rows`.
Builders write normalised integer rows through `RationalMatrix._wrap` after
one `_reduced`; `from_entries` stays for parsers, tests and small builders
(the addition map and its coproduct, the tensor factors in `kunneth`, the
characters of `symbol`).  A matrix has no arithmetic operators: a caller
that needs a sum or a product writes it on `common_rows`, so the builders,
the elimination and the d^2 = 0 check all work on integers.

There is one elimination, `_echelon`, behind `rank`, `kernel_basis` and
`pivot_levels`; its docstring states the pivot rule and the bound on the
entries, and `kernel_basis` back-substitutes on the pivot rows it keeps.
`pivot_levels` eliminates a complex with d^2 = 0 in one pass with clearing,
which gives the ranks of every subcomplex of a filtration as well.

A cochain complex is a list of degree dimensions together with the
differentials d_p : C^p -> C^{p+1}.  Cohomology dimensions are

    betti[p] = kernel_dim(d_p) - rank(d_{p-1})

with zero maps implied at both ends.  Empty matrices (zero rows or zero
columns) are legal everywhere and have rank 0.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ChainConditionError, ValidationError

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

    Row i is stored as a dict {column: nonzero int} of numerators over one
    positive common denominator `_den`, with gcd(_den, all numerators) = 1.
    That form is unique, so equal matrices have equal storage, and every
    operation costs time in proportion to the nonzeros it touches.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if entries is not None and len(entries) != rows:
            raise ValueError("row count mismatch")
        if entries is not None and any(len(row) != cols for row in entries):
            raise ValueError("column count mismatch")
        self.rows, self.cols = rows, cols
        self._num, self._den = _cleared([dict(enumerate(map(as_fraction, row)))
                                         for row in entries or [()] * rows])

    @classmethod
    def _wrap(cls, rows: int, cols: int, num: list[dict[int, int]], den: int) -> "RationalMatrix":
        # Takes ownership of normalised rows that already hold no zeros.
        m = cls.__new__(cls)
        m.rows, m.cols, m._num, m._den = rows, cols, num, den
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
        shape raises IndexError.  Integer values are summed as integers."""
        values: list[dict] = [{} for _ in range(rows)]
        integral = True
        for (i, j), x in pairs:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if not isinstance(x, int):
                x, integral = as_fraction(x), False
            row = values[i]
            row[j] = row[j] + x if j in row else x
        if integral:
            return cls._wrap(rows, cols, [{j: x for j, x in row.items() if x} for row in values], 1)
        return cls._wrap(rows, cols, *_cleared(values))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._wrap(n, n, [{i: 1} for i in range(n)], 1)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        x = self._num[i].get(j)
        return Fraction(x, self._den) if x else _ZERO

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def row(self, i: int) -> list[Fraction]:
        row, den = self._num[i], self._den
        return [Fraction(row[j], den) if j in row else _ZERO for j in range(self.cols)]

    def column(self, j: int) -> list[Fraction]:
        den = self._den
        return [Fraction(row[j], den) if j in row else _ZERO for row in self._num]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._num == other._num)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self._num)

    def entries(self) -> Iterable[tuple[int, int, int | Fraction]]:
        """(i, j, value) of every nonzero entry, row by row.  A value is an int
        when it is integral and a Fraction otherwise."""
        den = self._den
        return ((i, j, x // den if x % den == 0 else Fraction(x, den))
                for i, row in enumerate(self._num) for j, x in row.items())

    def nonzero_positions(self) -> Iterable[tuple[int, int]]:
        """(i, j) of every nonzero entry, row by row."""
        return ((i, j) for i, row in enumerate(self._num) for j in row)

    def transpose(self) -> "RationalMatrix":
        t = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._num):
            for j, x in row.items():
                t[j][i] = x
        return RationalMatrix._wrap(self.cols, self.rows, t, self._den)


def _cleared(values: list[dict]) -> tuple[list[dict[int, int]], int]:
    """Rows of int or Fraction values as integer rows over the lcm of their
    denominators, zeros dropped.  This form is already normalised: a prime
    power that divides the lcm exactly leaves some numerator prime to it."""
    den = lcm(*[x.denominator for row in values for x in row.values()])
    return [{j: x.numerator * (den // x.denominator) for j, x in row.items() if x}
            for row in values], den


def _reduced(num: list[dict[int, int]], den: int) -> tuple[list[dict[int, int]], int]:
    """Integer rows over `den` with gcd(den, all numerators) divided out."""
    g = den
    for row in num:
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g == 1:
        return num, den
    return [{j: x // g for j, x in row.items()} for row in num], den // g


def common_rows(mats: Sequence[RationalMatrix], den: int = 1) -> tuple[int, list]:
    """(D, each matrix times D as read-only integer rows), D = lcm(den, their denominators)."""
    den = lcm(den, *[m._den for m in mats])
    return den, [m._num if m._den == den else [{j: x * (den // m._den) for j, x in row.items()}
                                               for row in m._num] for m in mats]


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """Each row of m times the lcm of its denominators, which is den over
    gcd(den, the row's content): a positive scaling, so rank is kept."""
    den = m._den
    out = []
    for row in m._num:
        g = gcd(den, *row.values()) if den > 1 else 1
        out.append({j: x // g for j, x in row.items()} if g > 1 else dict(row))
    return out


def _echelon(rows: list[dict[int, int]], cols: int, order: Sequence[int] | None = None,
             level: Sequence[int] | None = None) -> list[tuple[int, int, dict[int, int]]]:
    """(column, row index, row) of each pivot, in the order taken, when the
    distinct columns `order` (default all, left to right) of these integer
    rows, which are consumed, are eliminated in that order.  A column gets a
    pivot exactly when it is independent of those taken before it.  Each row
    is the integer pivot row as chosen: it vanishes on every column taken
    before its own, and no later step changes it.

    Sparse integer elimination with an index `at` from each column to the
    live rows that hold it, so the candidate pivots for column c are exactly
    at[c].  A lone candidate is the pivot; else it is the candidate of the
    lowest `level` (if given), then the fewest nonzeros, then the smallest
    bit size of its entry in column c, then the lowest row index, so the
    choice is deterministic and the fill-in small.  The pivot row leaves the
    index, and only the other rows that hold column c change: each becomes
    (piv/g)*row - (f/g)*pivot_row with g = gcd(piv, f), and is divided by
    the gcd of its entries.  A row that cancels to zero is dropped.

    The content division is what bounds the entries.  After k pivots a live
    row is a nonzero multiple of its input row plus a combination of the k
    pivot rows, and it vanishes on the k pivot columns.  The input rows of
    the pivots restricted to those columns form a block B with det(B) != 0,
    so the live row is a nonzero multiple of its row of the Schur complement
    of B, and det(B) times that Schur row is an integer vector of
    (k+1)-minors of the input.  After content division the live row is the
    primitive integer vector in that direction, which divides the vector of
    minors entry by entry.  So every stored entry is at most a minor of the
    input, hence at most its Hadamard bound.
    """
    at: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            at[j].add(i)
    pivots = []
    for c in range(cols) if order is None else order:
        holders = at[c]
        if not holders:
            continue
        if len(holders) == 1:
            p = holders.pop()
        else:
            p = min(holders, key=lambda i: (level[i] if level else 0, len(rows[i]),
                                            abs(rows[i][c]).bit_length(), i))
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
        pivots.append((c, p, prow))
    return pivots


def rank(m: RationalMatrix) -> int:
    """Exact rank: the pivot count with columns taken left to right."""
    return len(_echelon(_integer_rows(m), m.cols))


def kernel_dim(m: RationalMatrix) -> int:
    return m.cols - rank(m)


def cokernel_dim(m: RationalMatrix) -> int:
    return m.rows - rank(m)


def kernel_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the null space, one vector per free column, in column order.

    The vector of a free column has 1 there and 0 on the other free columns,
    which fixes it.  Its pivot entries come from the pivot rows, last pivot
    first: a pivot row vanishes on the earlier pivot columns, so its other
    entries meet only coordinates already known.
    """
    echelon = _echelon(_integer_rows(m), m.cols)[::-1]
    pivot_set = {c for c, _, _ in echelon}
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = {free: _ONE}
        for c, _, row in echelon:
            s = sum(x * v[j] for j, x in row.items() if j in v)
            if s:
                v[c] = -s / row[c]
        basis.append([v.get(j, _ZERO) for j in range(m.cols)])
    return basis


# The most cochains one complex may have (16 times the trivial CE complex of a
# dim-14 algebra); builders check their count before they assemble anything.
MAX_COCHAINS = 1 << 18

# The largest harmonic index k of a cos(kt) or sin(kt) term that the parser
# admits.  Zero counting runs first: a `circle sweep` CLI run on 1/3 +
# 2 sin((d-1)t) + cos(dt) takes about 0.1 s at d = 32 and 1.2-1.6 s at d = 64
# on a 2-CPU host, interpreter start included.
MAX_TRIG_DEGREE = 64


def require_cochain_budget(factor: int, dim: int, what: str) -> None:
    """Refuse factor * 2^dim cochains, a zero factor counted as 1, over
    MAX_COCHAINS.  The count is compared before 2^dim is formed, and printed
    as factor * 2^dim when str() would refuse it (2^14285 > 10^4300)."""
    factor = max(factor, 1)
    if dim > MAX_COCHAINS.bit_length() or factor << dim > MAX_COCHAINS:
        count = f"{factor} * 2^{dim}"
        if factor.bit_length() + dim <= 14285:
            with suppress(ValueError):  # str() refuses more than 4300 digits
                count = str(factor << dim)
        raise ValidationError(f"{what} would have {count} cochains, "
                              f"more than the budget of {MAX_COCHAINS}")


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

        Multiplies the stored integer rows, which are d_{p+1} and d_p each
        scaled by its positive common denominator.  Such scalings cannot
        make a nonzero product zero or a zero product nonzero.
        """
        for p in range(len(self.differentials) - 1):
            right = self.differentials[p]._num
            for lrow in self.differentials[p + 1]._num:
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


def pivot_levels(c: CochainComplex,
                 levels: Sequence[Sequence[int]] | None = None) -> list[list[int]]:
    """The level of each pivot row of each d_p, from one pass with clearing
    over a complex with d^2 = 0 (callers run `chain_defect` first).
    levels[p][i] is the level of coordinate i of C^p, 0 without levels, and
    rank d_p on the coordinates of level <= N is its pivot count there.

    `_echelon` runs on each d_p transposed, whose rows are the images
    d_p(e_i) of the coordinates of C^p, and whose columns, C^{p+1}, are
    taken by descending level.  The rows of the lows (pivot columns) of
    d_{p-1} are left out, and that keeps every rank: a pivot row v with low s
    lies in im d_p, on s and on columns taken after s, of level <= level(s),
    and d_{p+1} v = 0 makes column s of d_{p+1} a combination of those
    columns; so, from the last low back, each low is a combination of
    columns that are no lows and of no higher level.  The pivot row is the
    candidate of the lowest level, so a row of level <= N changes only by
    pivot rows of level <= N, and for every N the pivot rows of level <= N,
    which are independent, span what the input rows of level <= N span.
    """
    out, lows = [], []
    for p, d in enumerate(c.differentials):
        # d_p transposed, written without the rows of the lows
        rows, kept = [{} for _ in range(d.cols)], [True] * d.cols
        for s in lows:
            kept[s] = False
        for i, row in enumerate(d._num):
            for j, x in row.items():
                if kept[j]:
                    rows[j][i] = x
        order = level = None
        if levels:
            order = sorted(range(d.rows), key=levels[p + 1].__getitem__, reverse=True)
            level = levels[p]
        pivots = _echelon(rows, d.rows, order, level)
        out.append([level[i] for _, i, _ in pivots] if level else [0] * len(pivots))
        lows = [s for s, _, _ in pivots]
    return out


def complex_cohomology(c: CochainComplex) -> CohomologyReport:
    """Betti numbers and Euler characteristic of a finite complex.

    Raises ChainConditionError when d^2 != 0.
    """
    defect = c.chain_defect()
    if defect is not None:
        raise ChainConditionError(defect)
    return cohomology_from_ranks(c.degrees, list(map(len, pivot_levels(c))))


def cohomology_from_ranks(degrees: Sequence[int], ranks: Sequence[int]) -> CohomologyReport:
    """The report of a complex with these degree dimensions and rank d_p = ranks[p]."""
    r = [0, *ranks, 0]
    betti = tuple(dim - r[p] - r[p + 1] for p, dim in enumerate(degrees))
    return CohomologyReport(tuple(degrees), betti, sum((-1) ** p * b for p, b in enumerate(betti)))
