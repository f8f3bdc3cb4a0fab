"""Combinatorics of ordered exterior-algebra bases.

A degree-p basis form is an increasing tuple of p indices drawn from
0..n-1; bases are enumerated in lexicographic order.  There is one sign
rule, `wedge`: e^a ^ e^b = (-1)^k e^c, where c is the increasing merge of a
and b and k counts the pairs x in a, y in b with y < x.  Every wedge sign
in the package, in CE differentials and in the Hopf product and coproduct,
comes from it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import comb

from .exactlinalg import RationalMatrix


def basis_tuples(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(n), p))


def basis_index(n: int, p: int) -> dict[tuple[int, ...], int]:
    """Position of each degree-p basis form in the lex order."""
    return {t: r for r, t in enumerate(combinations(range(n), p))}


def wedge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """e^a ^ e^b as (sign, c) for increasing a and b, or None on a shared index."""
    out = list(b)
    sign = 1
    for x in reversed(a):
        # x passes the k entries below it, all from b: the later ones of a are larger
        k = bisect_left(out, x)
        if k < len(out) and out[k] == x:
            return None
        if k & 1:
            sign = -sign
        out.insert(k, x)
    return sign, tuple(out)


def wedge_matrix(n: int, p: int, i: int) -> RationalMatrix:
    """Matrix of (e^i ^ -) from degree p to degree p+1 in the lex bases."""
    if not 0 <= i < n:
        raise ValueError("index out of range")
    return _wedges(n, p + 1, [(i,)], basis_tuples(n, p))


def wedge_product(n: int, p: int, q: int) -> RationalMatrix:
    """Matrix of Lambda^p (x) Lambda^q -> Lambda^{p+q}, left index major."""
    return _wedges(n, p + q, basis_tuples(n, p), basis_tuples(n, q))


def _wedges(n: int, degree: int, left, right) -> RationalMatrix:
    """Matrix of a (x) b -> a ^ b into `degree`, a in left major, b in right minor."""
    tgt = basis_index(n, degree)
    pairs = []
    for ia, a in enumerate(left):
        for ib, b in enumerate(right):
            merged = wedge(a, b)
            if merged is not None:
                pairs.append(((tgt[merged[1]], ia * len(right) + ib), merged[0]))
    return RationalMatrix.from_entries(len(tgt), len(left) * len(right), pairs)


def alternating_binomial_sum(r: int) -> int:
    """Sum of (-1)^p C(r, p) over p = 0..r: 1 when r = 0, else 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return sum((-1) ** p * comb(r, p) for p in range(r + 1))
