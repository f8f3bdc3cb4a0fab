"""Combinatorics of ordered exterior-algebra bases.

A degree-p basis form is an increasing tuple of p indices drawn from
0..n-1; bases are enumerated in lexicographic order.  Wedge signs are the
Koszul signs of sorting the concatenated index sequence.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .exactlinalg import RationalMatrix


def basis_tuples(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(n), p))


def sort_sign(seq) -> tuple[int, tuple[int, ...]] | None:
    """Sign of the permutation sorting `seq`, or None when it has duplicates."""
    arr = list(seq)
    sign = 1
    for k in range(1, len(arr)):
        x = arr[k]
        j = k - 1
        while j >= 0 and arr[j] > x:
            arr[j + 1] = arr[j]
            j -= 1
            sign = -sign
        if j >= 0 and arr[j] == x:
            return None
        arr[j + 1] = x
    return sign, tuple(arr)


def wedge_matrix(n: int, p: int, i: int) -> RationalMatrix:
    """Matrix of (e^i ^ -) from degree p to degree p+1 in the lex bases."""
    if not 0 <= i < n:
        raise ValueError("index out of range")
    src = basis_tuples(n, p)
    tgt = {t: r for r, t in enumerate(basis_tuples(n, p + 1))}
    pairs = []
    for col, idx in enumerate(src):
        merged = sort_sign((i,) + idx)
        if merged is None:
            continue
        sign, joined = merged
        pairs.append(((tgt[joined], col), sign))
    return RationalMatrix.from_entries(comb(n, p + 1), comb(n, p), pairs)


def alternating_binomial_sum(r: int) -> int:
    """Sum of (-1)^p C(r, p) over p = 0..r: 1 when r = 0, else 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return sum((-1) ** p * comb(r, p) for p in range(r + 1))
