"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive and coded separately from the
package: textbook Gaussian elimination over Fraction with first-nonzero
pivoting, and Betti numbers straight from the rank formula.  Tests compare
package results against these.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def gauss_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain fraction elimination, first nonzero pivot."""
    a = [list(map(Fraction, r)) for r in rows]
    if not a:
        return 0
    n_rows, n_cols = len(a), len(a[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        a[rank] = [x / pivot for x in a[rank]]
        for i in range(n_rows):
            if i != rank and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def betti_numbers(degrees: list[int], diffs: list[list[list[Fraction]]]) -> list[int]:
    """Betti numbers of a complex given as raw row lists.

    diffs[p] is the matrix of d_p as a list of rows; there is one fewer
    matrix than degrees.
    """
    assert len(diffs) == len(degrees) - 1
    ranks = [gauss_rank(m) for m in diffs]
    out = []
    top = len(degrees) - 1
    for p in range(top + 1):
        r_out = ranks[p] if p < top else 0
        r_in = ranks[p - 1] if p > 0 else 0
        out.append(degrees[p] - r_out - r_in)
    return out


def euler(betti: list[int]) -> int:
    return sum((-1) ** p * b for p, b in enumerate(betti))


def matrix_rows(m) -> list[list[Fraction]]:
    """Raw rows of a package matrix, for feeding the oracle."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def complex_betti(c) -> list[int]:
    """Oracle Betti numbers of a package complex object."""
    return betti_numbers(list(c.degrees), [matrix_rows(d) for d in c.differentials])


def kron_sum_dense(rows: int, cols: int, terms) -> list[list[Fraction]]:
    """Sum of Kronecker products A (x) B by nested loops over dense rows.

    Each term is (r0, c0, A, B) with A and B given as nonempty row lists;
    A[i][j] B[k][l] is added at (r0 + i*len(B) + k, c0 + j*len(B[0]) + l).
    """
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, a, b in terms:
        p, q = len(b), len(b[0])
        for i, a_row in enumerate(a):
            for j, x in enumerate(a_row):
                for k, b_row in enumerate(b):
                    for l, y in enumerate(b_row):
                        out[r0 + i * p + k][c0 + j * q + l] += Fraction(x) * Fraction(y)
    return out


def dense_lincomb(s, a: list[list], t, b: list[list]) -> list[list[Fraction]]:
    """s*a + t*b for dense row lists of one shape."""
    return [[s * Fraction(x) + t * Fraction(y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_product(a: list[list], b: list[list]) -> list[list[Fraction]]:
    """a @ b by the textbook triple loop."""
    return [[sum((Fraction(x) * Fraction(b[k][j]) for k, x in enumerate(row)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def dense_transpose(a: list[list]) -> list[list[Fraction]]:
    return [[Fraction(row[j]) for row in a] for j in range(len(a[0]))]


def cleared_rows(m) -> list[dict[int, int]]:
    """Each row of a package matrix times the lcm of its entries'
    denominators, as {column: nonzero int}."""
    out = []
    for row in m.to_rows():
        d = lcm(*[x.denominator for x in row])
        out.append({j: int(x * d) for j, x in enumerate(row) if x})
    return out
