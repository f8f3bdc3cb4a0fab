"""Exact real-root counting for univariate polynomials over Q.

Polynomials are coefficient lists in ascending powers, of ints or Fractions.
Each input is cleared once to a positive integer multiple, with the same
roots and signs, and the rest is integer arithmetic.  `_remainders` is the
one Euclidean loop: the signed primitive pseudo-remainder sequence, which
has the signs and the last element, the gcd, of the remainder sequence over
Q (Collins, J. ACM 14, 1967).  Of p and p' it is a Sturm sequence, counting
the distinct real roots of p, squarefree or not, and its last element
gcd(p, p') has a real root exactly where p has a repeated one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _trimmed(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _cleared(p) -> list[int]:
    den = lcm(*(x.denominator for x in p))
    return _trimmed([x.numerator * (den // x.denominator) for x in p])


def derivative(p) -> list:
    return _trimmed([i * c for i, c in enumerate(p)][1:])


def _remainders(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, then each next element down to gcd(a, b), for trimmed integer
    polynomials.  Pseudo-division multiplies the running remainder by lc(b)
    once per step, so after e steps it holds lc(b)^e (a mod b); the next
    element is that over its content, negated when lc(b)^e > 0, so it is a
    positive multiple of -(a mod b), as a Sturm sequence needs."""
    seq = [a]
    while b:
        seq.append(b)
        r, steps = a, 0
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            r, steps = _trimmed(r), steps + 1
        # lc(b)^e < 0 iff lc(b) < 0 and e is odd; an empty r has gcd 0 and stays empty
        content = gcd(*r) if b[-1] < 0 and steps % 2 else -gcd(*r)
        a, b = b, [x // content for x in r]
    return seq


def _sturm_count(seq: list[list[int]]) -> int:
    """Sign changes of a Sturm sequence at -inf minus those at +inf; an
    element of degree n has (-1)^n times its leading sign at -inf."""
    def changes(positive):
        return sum(s != t for s, t in zip(positive, positive[1:]))
    return (changes([(q[-1] > 0) == (len(q) % 2 == 1) for q in seq])
            - changes([q[-1] > 0 for q in seq]))


def _sturm_sequence(p) -> list[list[int]]:
    q = _cleared(p)
    if not q:
        raise ValueError("zero polynomial has every point as a root")
    return _remainders(q, derivative(q))


def poly_gcd(p, q) -> list[Fraction]:
    """Monic gcd, the last element of the remainder sequence."""
    g = _remainders(_cleared(p), _cleared(q))[-1]
    return [Fraction(c, g[-1]) for c in g]


def count_real_roots(p) -> int:
    """Number of distinct real roots of a nonzero rational polynomial."""
    return _sturm_count(_sturm_sequence(p))


def simple_real_root_count(p) -> int | None:
    """Number of distinct real roots of a nonzero rational polynomial, or
    None when one of them is repeated: one remainder sequence, plus one of
    its last element gcd(p, p') when that is not a constant."""
    seq = _sturm_sequence(p)
    if len(seq[-1]) > 1 and count_real_roots(seq[-1]) > 0:
        return None
    return _sturm_count(seq)

