"""Combinatorics of ordered exterior-algebra bases.

A degree-p basis form is a bitmask with p bits set, bit i standing for e^i;
bases are enumerated in the lexicographic order of their increasing index
tuples.  There is one sign rule: e^i ^ e^m = (-1)^k e^(m | 1 << i) with
k = (m & ((1 << i) - 1)).bit_count(), the number of indices of m below i.
`wedge` applies it to each index of a, so e^a ^ e^b = (-1)^k e^(a | b) with
k counting the pairs x in a, y in b with y < x.  Every wedge sign in the
package, in CE and window differentials and in the Hopf product and
coproduct, comes from it; the CE and window builders apply it to e^i inline,
so `wedge_matrix` has no caller in the package and serves the tests and the
bench tracer.  It writes one entry +-1 or none per column, as integer
columns, through the `RationalMatrix` constructor.
"""

from __future__ import annotations

from itertools import combinations

from .exactlinalg import RationalMatrix


def basis_masks(n: int, p: int) -> list[int]:
    """The degree-p basis forms as bitmasks, in lex order."""
    return list(map(sum, combinations([1 << i for i in range(n)], p)))


def basis_index(n: int, p: int) -> dict[int, int]:
    """Position of each degree-p basis mask in the lex order."""
    return {m: r for r, m in enumerate(basis_masks(n, p))}


def wedge(a: int, b: int) -> tuple[int, int] | None:
    """e^a ^ e^b as (sign, a | b) for bitmask forms, or None on a shared index."""
    if a & b:
        return None
    k, m = 0, a
    while m:  # one step per set bit of a, lowest first
        low = m & -m
        k += (b & (low - 1)).bit_count()
        m ^= low
    return -1 if k & 1 else 1, a | b


def wedge_matrix(n: int, p: int, i: int) -> RationalMatrix:
    """Matrix of (e^i ^ -) from degree p to degree p+1 in the lex bases."""
    if not 0 <= i < n:
        raise ValueError("index out of range")
    tgt = basis_index(n, p + 1)
    cols = [{tgt[ab[1]]: ab[0]} if (ab := wedge(1 << i, b)) else {} for b in basis_masks(n, p)]
    return RationalMatrix(len(tgt), len(cols), cols)
