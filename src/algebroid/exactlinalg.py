"""Exact linear algebra over the rationals.

Nothing in this package touches floating point.  The storage is sparse
integer numerator columns over one common denominator (see
`RationalMatrix`), and only this module knows it.  Builders write integer
columns through the constructor, which drops zeros and divides out the gcd,
and read them back through `common_columns` and `entries`; `from_entries`
stays for parsers, tests and small builders (the addition map, the
coproduct difference in `primitives`, the tensor factors in `kunneth`, the
characters of `symbol`), and `to_rows` reads dense Fractions.  A matrix has no arithmetic
operators: a caller that needs a sum or a product writes it on
`common_columns`, so the builders, the elimination and the d^2 = 0 check
all work on integers.

Columns are what the differentials' builders write, one source coordinate
at a time, and what a complex is eliminated by: there is one elimination,
`_reduce`, which reduces integer columns left to right, each against the
pivot that owns its smallest row, and never writes its input.  `rank` and
`complex_cohomology` hand it the stored integer columns, the matrix times
its positive denominator; `kernel_basis` gives each column a marker row
of its own and reads a kernel vector off the markers of each column that
cancels.  `_reduce`'s docstring states the bound on the entries.
`complex_cohomology` eliminates a complex in one pass with clearing, which
checks d^2 = 0 on each degree's pivot columns; `chain_defect` checks every
column, with the same product loop.

A cochain complex is a list of degree dimensions together with the
differentials d_p : C^p -> C^{p+1}.  Cohomology dimensions are

    betti[p] = dim C^p - rank(d_p) - rank(d_{p-1})

with zero maps implied at both ends.  Empty matrices (zero rows or zero
columns) are legal everywhere and have rank 0.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ChainConditionError, ValidationError

_ZERO = Fraction(0)


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

    Column j is stored as a dict {row: nonzero int} of numerators over one
    positive common denominator `_den`, with gcd(_den, all numerators) = 1.
    That form is unique, so equal matrices have equal storage, and every
    operation costs time in proportion to the nonzeros it touches.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, num: list[dict[int, int]], den: int = 1):
        """Take over integer columns {row: int} over a positive `den`: zeros
        are dropped and gcd(den, all numerators) is divided out.  The
        columns are rebuilt only when that gcd exceeds 1 or some entry is
        zero."""
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(num) != cols:
            raise ValueError("column count mismatch")
        g = den
        for col in num:
            if g == 1:
                break
            g = gcd(g, *col.values())
        if g > 1 or not all(map(all, map(dict.values, num))):
            num = [{i: x // g for i, x in col.items() if x} for col in num]
        self.rows, self.cols, self._num, self._den = rows, cols, num, den // g

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     pairs: Iterable[tuple[tuple[int, int], object]]) -> "RationalMatrix":
        """Build from ((i, j), value) pairs: repeated positions are summed,
        zeros (given or cancelled) are dropped, and a position outside the
        shape raises IndexError.  Integer values are summed as integers."""
        values: list[dict] = [{} for _ in range(cols)]
        integral, den = True, 1
        for (i, j), x in pairs:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if not isinstance(x, int):
                x, integral = as_fraction(x), False
            col = values[j]
            col[i] = col[i] + x if i in col else x
        if not integral:
            den = lcm(*[x.denominator for col in values for x in col.values()])
            values = [{i: x.numerator * (den // x.denominator) for i, x in col.items()}
                      for col in values]
        return cls(rows, cols, values, den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [{} for _ in range(cols)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    def to_rows(self) -> list[list[Fraction]]:
        den = self._den
        return [[Fraction(col[i], den) if i in col else _ZERO for col in self._num]
                for i in range(self.rows)]

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
        """(i, j, value) of every nonzero entry, column by column.  A value is
        an int when it is integral and a Fraction otherwise."""
        den = self._den
        return ((i, j, x // den if x % den == 0 else Fraction(x, den))
                for j, col in enumerate(self._num) for i, x in col.items())


def common_columns(mats: Sequence[RationalMatrix], den: int = 1) -> tuple[int, list]:
    """(D, each matrix times D as read-only integer columns), D = lcm(den, their denominators)."""
    den = lcm(den, *[m._den for m in mats])
    return den, [m._num if m._den == den else [{i: x * (den // m._den) for i, x in col.items()}
                                               for col in m._num] for m in mats]


def _reduce(cols: Sequence[dict[int, int]]) -> dict[int, tuple[int, dict[int, int]]]:
    """{low: (column index, reduced column)} of each pivot when these integer
    columns are reduced left to right.  The low of a column is its smallest
    row, and a column is reduced against the pivot whose low is its own until
    its low is new or it cancels: it becomes (piv/g)*col - (f/g)*pivot with
    piv and f the two entries at the low and g = gcd(piv, f), and is divided
    by the gcd of its entries.  A reduced column vanishes above its low, and
    the lows are the rows independent of the rows above them.  A column is
    copied when it first meets a pivot, so no input or pivot is written, and
    a column that never meets one is its own pivot.

    The content division is what bounds the entries.  Let L be the k lows
    of the pivots taken before column j that lie above its low t.  The
    column is a nonzero multiple of input column j plus a combination of the
    pivots it met, whose lows are in L, and it vanishes on the rows L.  A
    pivot is a nonzero multiple of its input column plus a combination of
    pivots of smaller lows, so the pivots of lows in L span what their k
    input columns span, and on the rows L, where those pivots are
    triangular, the input columns form a block B with det(B) != 0.  So the
    column is a nonzero multiple of its column of the Schur complement of B,
    and det(B) times that Schur column is an integer vector of (k+1)-minors
    of the input.  After content division the column is the primitive
    integer vector in that direction, which divides the vector of minors
    entry by entry.  So every stored entry is at most a minor of the input,
    hence at most its Hadamard bound.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for j, col in enumerate(cols):
        low = min(col) if col else None
        if low in pivots:
            col = dict(col)
        while low in pivots:
            pcol = pivots[low][1]
            piv, f = pcol[low], col[low]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            if a != 1:
                for i in col:
                    col[i] *= a
            for i, y in pcol.items():
                v = col.get(i, 0) - b * y
                if v:
                    col[i] = v
                else:
                    del col[i]
            content = gcd(*col.values())
            if content > 1:
                for i in col:
                    col[i] //= content
            low = min(col) if col else None
        if low is not None:
            pivots[low] = (j, col)
    return pivots


def rank(m: RationalMatrix) -> int:
    """Exact rank: the pivot count of the stored columns."""
    return len(_reduce(m._num))


def kernel_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the null space, one vector per free column, in column order.

    Each stored column j gains a marker entry 1 at row m.rows + m.cols - 1 - j,
    below m's rows, and one `_reduce` call takes them.  A free column is a
    combination of the columns before it, so it cancels on m's rows and keeps
    its own marker and those of the pivot columns before it: its low is its
    own marker row, which no other column has.  Its marker entries are then
    a null vector with 0 on every other free column, and divided by the
    entry at j they are the reduced row echelon basis vector.
    """
    top = m.rows + m.cols - 1
    pivots = _reduce([{**col, top - j: 1} for j, col in enumerate(m._num)])
    return [[Fraction(col[top - k], col[low]) if top - k in col else _ZERO for k in range(m.cols)]
            for low, (_, col) in sorted(pivots.items(), reverse=True) if low >= m.rows]


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


class CochainComplex:
    """Finite complex 0 -> C^0 -> C^1 -> ... -> C^top -> 0.

    `degrees[p]` is dim C^p and `differentials[p]` is the matrix of
    d_p : C^p -> C^{p+1}; there are len(degrees) - 1 differentials.
    """

    __slots__ = ("degrees", "differentials")

    def __init__(self, degrees: tuple[int, ...], differentials: tuple[RationalMatrix, ...]):
        if not degrees:
            raise ValueError("a complex needs at least one degree")
        if any(d < 0 for d in degrees):
            raise ValueError("degree dimensions must be nonnegative")
        if len(differentials) != len(degrees) - 1:
            raise ValueError("expected one differential per consecutive degree pair")
        for p, d in enumerate(differentials):
            if d.cols != degrees[p] or d.rows != degrees[p + 1]:
                raise ValueError(
                    f"d_{p} has shape {d.rows}x{d.cols}, expected "
                    f"{degrees[p + 1]}x{degrees[p]}"
                )
        self.degrees, self.differentials = degrees, differentials

    def chain_defect(self) -> int | None:
        """Smallest p with d_{p+1} d_p != 0, or None when d^2 = 0, from every
        stored column of d_p (see `_kills`).  `complex_cohomology` finds the
        same degree from the pivot columns alone."""
        ds = self.differentials
        return next((p for p in range(len(ds) - 1) if not _kills(ds[p + 1], ds[p]._num)), None)


def _kills(d: RationalMatrix, cols: Iterable[dict[int, int]]) -> bool:
    """True iff the stored integer d sends every integer column of cols to zero.

    d is scaled by its positive common denominator and a stored column by
    its own, and such scalings cannot make a nonzero product zero or a zero
    product nonzero.
    """
    left = d._num
    for col in cols:
        acc: dict[int, int] = {}
        for k, y in col.items():
            for i, x in left[k].items():
                acc[i] = acc.get(i, 0) + x * y
        if any(acc.values()):
            return False
    return True


class CohomologyReport:
    __slots__ = ("degrees", "betti", "euler")

    def __init__(self, degrees: tuple[int, ...], betti: tuple[int, ...], euler: int):
        self.degrees, self.betti, self.euler = degrees, betti, euler

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.degrees, self.betti, self.euler) == (other.degrees, other.betti, other.euler)


def complex_cohomology(c: CochainComplex) -> CohomologyReport:
    """Betti numbers and Euler characteristic of a finite complex, from one
    pass with clearing that also checks d^2 = 0, raising ChainConditionError
    at the degree `chain_defect` names.

    `_reduce` runs on the stored columns of each d_p, the images d_p(e_i)
    of the coordinates of C^p, whose rows are C^{p+1}.  The columns of the
    lows of d_{p-1} are left out, and that keeps every rank: a pivot column
    v with low s lies in im d_p and vanishes above s, and d_{p+1} v = 0
    makes column s of d_{p+1} a combination of its columns at the rows
    below s; so, from the last low back, each low is a combination of
    columns that are no lows.

    So, once d_p d_{p-1} = 0 is known, the stored columns of d_p at its
    pivots, each independent of the columns before it, are a basis of
    im d_p, and d_{p+1} d_p = 0 is checked on them alone, before d_{p+1} is
    cleared: the first failing degree is the smallest, as in `chain_defect`.
    """
    ranks, lows, ds = [], [], c.differentials
    for p, d in enumerate(ds):
        cols = d._num[:]
        for s in lows:
            cols[s] = {}
        pivots = _reduce(cols)
        if p + 1 < len(ds) and not _kills(ds[p + 1], [d._num[j] for j, _ in pivots.values()]):
            raise ChainConditionError(p)
        lows = list(pivots)
        del pivots  # frees the reduced columns before the next degree is reduced
        ranks.append(len(lows))
    return cohomology_from_ranks(c.degrees, ranks)


def cohomology_from_ranks(degrees: Sequence[int], ranks: Sequence[int]) -> CohomologyReport:
    """The report of a complex with these degree dimensions and rank d_p = ranks[p]."""
    r = [0, *ranks, 0]
    betti = tuple(dim - r[p] - r[p + 1] for p, dim in enumerate(degrees))
    return CohomologyReport(tuple(degrees), betti, sum((-1) ** p * b for p, b in enumerate(betti)))
