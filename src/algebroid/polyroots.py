"""Univariate polynomials over Q and exact real-root counting.

Polynomials are coefficient lists in ascending powers.  `count_real_roots`
uses Sturm chains; it counts distinct real roots and is exact for any
nonzero rational polynomial, squarefree or not.
"""

from __future__ import annotations

from fractions import Fraction

Poly = list[Fraction]

_ZERO = Fraction(0)


def trim(p) -> Poly:
    q = [Fraction(x) if not isinstance(x, Fraction) else x for x in p]
    while q and not q[-1]:
        q.pop()
    return q


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(trim(p)) - 1


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else _ZERO) + (q[i] if i < len(q) else _ZERO)
                 for i in range(n)])


def neg(p: Poly) -> Poly:
    return [-x for x in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def scale(p: Poly, c: Fraction) -> Poly:
    return trim([c * x for x in p])


def mul(p: Poly, q: Poly) -> Poly:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return trim(out)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [_ZERO] * max(len(p) - len(q) + 1, 0)
    rem = p[:]
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        c = rem[-1] / lead
        quot[shift] = c
        for i in range(dq + 1):
            rem[shift + i] -= c * q[i]
        rem = trim(rem)
        if not rem:
            break
    return trim(quot), rem


def derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    a, b = trim(p), trim(q)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    if a:
        a = scale(a, Fraction(1) / a[-1])
    return a


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    if not chain[1]:
        chain.pop()
    while len(chain) >= 2:
        _, r = divmod_poly(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return chain


def _variations(signs) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots of a nonzero rational polynomial."""
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial has every point as a root")
    if len(p) == 1:
        return 0
    chain = _sturm_chain(p)
    at_plus = []
    at_minus = []
    for q in chain:
        lead = q[-1]
        s = 1 if lead > 0 else -1
        at_plus.append(s)
        at_minus.append(s if (len(q) - 1) % 2 == 0 else -s)
    return _variations(at_minus) - _variations(at_plus)


def has_multiple_real_root(p: Poly) -> bool:
    """True iff p shares a real root with its derivative."""
    g = poly_gcd(p, derivative(p))
    return degree(g) >= 1 and count_real_roots(g) > 0
