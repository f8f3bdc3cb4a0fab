"""Test-side helpers that left the package because only tests called them.

The JSON writers (`algebra_to_dict`, `representation_to_dict`,
`algebroid_to_dict`, `fiber_to_dict`, `dump_json`) and `trig_to_string` are
the inverses of the readers in `algebroid.io`; the CLI only reads files, so
the writers serve the round-trip tests alone.  `value_at_quarter` evaluates a
trig polynomial at t = q pi/2 for the zero-counting references in
`oracle.py`.  `ts1_coalgebra`, `coproduct_terms`, `multiply` and
`antipode_matrices` are Hopf fixtures and readers; the last three were
`GradedCoalgebra` methods or read its views, and now take the coalgebra as
their first argument.  `basis_tuples`, `has_multiple_real_root`,
`alternating_binomial_sum`, `euler_form_factor` and the dense `bracket`
had no caller in the package.  `dense_apply` multiplies a package matrix
into a vector on its Fraction rows, since matrices have no arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb

from algebroid.circle import ActionAlgebroid, Rank1Anchor, TrigPoly
from algebroid.exactlinalg import RationalMatrix
from algebroid.hopf import GradedCoalgebra, addition_coproduct, verify_hopf
from algebroid.io import format_rational
from algebroid.liealg import LieAlgebra, Representation
from algebroid.polyroots import simple_real_root_count
from algebroid.symbol import FiberData


# -- writers -------------------------------------------------------------------

def trig_to_string(f: TrigPoly) -> str:
    terms = []
    if f.constant:
        terms.append(format_rational(f.constant))
    for k in range(1, f.deg + 1):
        c = f.cos_coeff(k)
        if c:
            terms.append(f"{format_rational(c)}*cos({k}t)")
        s = f.sin_coeff(k)
        if s:
            terms.append(f"{format_rational(s)}*sin({k}t)")
    return " + ".join(terms) if terms else "0"


def algebra_to_dict(g: LieAlgebra) -> dict:
    brackets = [{"i": i, "j": j, "coeffs": [[k, format_rational(c)] for k, c in terms]}
                for i, j, terms in g.brackets]
    d = {"dim": g.dim, "brackets": brackets}
    if g.name:
        d["name"] = g.name
    return d


def representation_to_dict(r: Representation) -> dict:
    return {
        "dim_E": r.dim_e,
        "action": [
            [[format_rational(m[i, j]) for j in range(r.dim_e)] for i in range(r.dim_e)]
            for m in r.action
        ],
    }


def algebroid_to_dict(a, n_range: tuple[int, int]) -> dict:
    if isinstance(a, Rank1Anchor):
        return {"kind": "rank1", "p": trig_to_string(a.p), "N_range": list(n_range)}
    if isinstance(a, ActionAlgebroid):
        return {
            "kind": "action",
            "g": algebra_to_dict(a.algebra),
            "phi": [trig_to_string(f) for f in a.phi],
            "N_range": list(n_range),
        }
    raise ValueError(f"cannot serialize algebroid of type {type(a).__name__}")


def fiber_to_dict(f: FiberData) -> dict:
    return {
        "dim_A": f.dim_a,
        "dim_M": f.dim_m,
        "dim_E": f.dim_e,
        "anchor": [[format_rational(f.anchor[i, j]) for j in range(f.dim_a)]
                   for i in range(f.dim_m)],
    }


def dump_json(d: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- trig values -----------------------------------------------------------------

def value_at_quarter(f: TrigPoly, q: int) -> Fraction:
    """Exact value at t = q * pi/2 (cos and sin of multiples are 0, +-1)."""
    cos_cycle = (1, 0, -1, 0)
    sin_cycle = (0, 1, 0, -1)
    total = f.constant
    for k in range(1, f.deg + 1):
        phase = (k * q) % 4
        total += f.cos_coeffs[k - 1] * cos_cycle[phase]
        total += f.sin_coeffs[k - 1] * sin_cycle[phase]
    return total


# -- Hopf fixtures -----------------------------------------------------------------

def ts1_coalgebra() -> GradedCoalgebra:
    """Cohomology coalgebra of the tangent algebroid of the circle.

    The stabilized Betti numbers are (1, 1); the degree-1 class is the
    translation-invariant form, and its coproduct is the primitive one:
    D[w] = [w] (x) 1 + 1 (x) [w].  Kept as a pinned regression.
    """
    return addition_coproduct(LieAlgebra.make(1, {}, name="line"))


def coproduct_terms(c: GradedCoalgebra, r: int, coords) -> dict[tuple[int, int, int, int], Fraction]:
    """Sparse {(i, j, a, b): coeff} form of D(x) for x with given coords."""
    if len(coords) != c.betti[r]:
        raise ValueError("vector length mismatch")
    keys = [(i, r - i, a, b) for i in range(r + 1)
            for a in range(c.betti[i]) for b in range(c.betti[r - i])]
    return {key: x for key, x in zip(keys, dense_apply(c.coproduct[r], coords)) if x}


def multiply(c: GradedCoalgebra, p: int, q: int, u, v) -> list[Fraction]:
    """Product of elements of degrees p and q."""
    return dense_apply(c.product[(p, q)], [x * y for x in u for y in v])  # left index major


def antipode_matrices(c: GradedCoalgebra) -> tuple[RationalMatrix, ...] | None:
    """The degree-by-degree antipode the Hopf check built, or None when the
    axioms fail."""
    if not verify_hopf(c):
        return None
    s = c._antipode
    return tuple(RationalMatrix.from_entries(n, n, (((k, a), t) for a in range(n)
                                                    for (_, k), t in s[(r, a)].items()))
                 for r, n in enumerate(c.betti))


# -- small helpers -----------------------------------------------------------------

def basis_tuples(n: int, p: int) -> list[tuple[int, ...]]:
    """The degree-p exterior basis as increasing index tuples, in lex order."""
    return list(combinations(range(n), p))


def has_multiple_real_root(p) -> bool:
    """True iff p shares a real root with its derivative."""
    return any(p) and simple_real_root_count(p) is None


def alternating_binomial_sum(r: int) -> int:
    """Sum of (-1)^p C(r, p) over p = 0..r: 1 when r = 0, else 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return sum((-1) ** p * comb(r, p) for p in range(r + 1))


def euler_form_factor(rank_l: int, rank_e: int) -> int:
    """Fiberwise integrand factor: the alternating binomial sum of the
    kernel rank times the coefficient rank (rank_e when rank_l = 0, else 0)."""
    if rank_l < 0 or rank_e < 0:
        raise ValueError("ranks must be nonnegative")
    return alternating_binomial_sum(rank_l) * rank_e


def dense_apply(m: RationalMatrix, vec) -> list[Fraction]:
    """m times a vector, one dot product per row of Fractions; a vector of
    the wrong length raises ValueError."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return [sum((x * Fraction(y) for x, y in zip(row, vec)), Fraction(0)) for row in m.to_rows()]


def bracket(g: LieAlgebra, v, w) -> list[Fraction]:
    """Bilinear extension of the bracket to coordinate vectors."""
    out = [Fraction(0)] * g.dim
    for i, j, terms in g.brackets:
        coeff = v[i] * w[j] - v[j] * w[i]
        if coeff:
            for k, c in terms:
                out[k] += coeff * c
    return out
