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
bench tracer.  The builders write entries +-1 straight into
`RationalMatrix._wrap`.
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
    k = sum((b & ((1 << i) - 1)).bit_count() for i in range(a.bit_length()) if a >> i & 1)
    return -1 if k & 1 else 1, a | b


def wedge_matrix(n: int, p: int, i: int) -> RationalMatrix:
    """Matrix of (e^i ^ -) from degree p to degree p+1 in the lex bases."""
    if not 0 <= i < n:
        raise ValueError("index out of range")
    return _wedges(n, p + 1, [1 << i], basis_masks(n, p))


def wedge_product(n: int, p: int, q: int) -> RationalMatrix:
    """Matrix of Lambda^p (x) Lambda^q -> Lambda^{p+q}, left index major."""
    return _wedges(n, p + q, basis_masks(n, p), basis_masks(n, q))


def _wedges(n: int, degree: int, left: list[int], right: list[int]) -> RationalMatrix:
    """Matrix of a (x) b -> a ^ b into `degree`, a in left major, b in right minor."""
    tgt = basis_index(n, degree)
    rows: list[dict[int, int]] = [{} for _ in tgt]
    for ia, a in enumerate(left):
        for ib, b in enumerate(right):
            merged = wedge(a, b)
            if merged is not None:
                rows[tgt[merged[1]]][ia * len(right) + ib] = merged[0]
    return RationalMatrix._wrap(len(tgt), len(left) * len(right), rows, 1)

