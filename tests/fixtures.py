"""Test-side helpers that left the package because only tests called them.

The JSON writers (`algebra_to_dict`, `representation_to_dict`,
`algebroid_to_dict`, `fiber_to_dict`, `dump_json`) and `trig_to_string` are
the inverses of the readers in `algebroid.io`; the CLI only reads files, so
the writers serve the round-trip tests alone.  `value_at_quarter` evaluates a
trig polynomial at t = q pi/2 for the zero-counting references in
`oracle.py`.  `ts1_coalgebra`, `coproduct_terms`, `multiply` and
`antipode_matrices` are Hopf fixtures and readers; the last three were
`GradedCoalgebra` methods or read its views, and now take the coalgebra as
their first argument.  `coalgebra_from_matrices` and `coalgebra_matrices`
read and write a coalgebra as coproduct and product matrices in a pinned
block layout (`block_offsets`): the package holds the sparse coproduct and
product, and the matrices serve the layout tests, the single-entry
mutations and the dense oracle.  `basis_tuples`, `has_multiple_real_root`,
`alternating_binomial_sum`, `euler_form_factor` and the dense `bracket`
had no caller in the package, nor had `const`, the constant trig
polynomial.  `dense_apply` multiplies a package matrix
into a vector on its Fraction rows, since matrices have no arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb

from algebroid.circle import ActionAlgebroid, Rank1Anchor, TrigPoly
from algebroid.exactlinalg import RationalMatrix
from algebroid.hopf import GradedCoalgebra, _antipode, addition_coproduct, hopf_axioms
from algebroid.liealg import LieAlgebra, Representation
from algebroid.polyroots import simple_real_root_count
from algebroid.symbol import FiberData


# -- writers -------------------------------------------------------------------

def trig_to_string(f: TrigPoly) -> str:
    terms = []
    if f.constant:
        terms.append(str(f.constant))
    for k in range(1, f.deg + 1):
        c = cos_coeff(f, k)
        if c:
            terms.append(f"{c}*cos({k}t)")
        s = sin_coeff(f, k)
        if s:
            terms.append(f"{s}*sin({k}t)")
    return " + ".join(terms) if terms else "0"


def algebra_to_dict(g: LieAlgebra) -> dict:
    brackets = [{"i": i, "j": j, "coeffs": [[k, str(c)] for k, c in terms]}
                for i, j, terms in g.brackets]
    d = {"dim": g.dim, "brackets": brackets}
    if g.name:
        d["name"] = g.name
    return d


def representation_to_dict(r: Representation) -> dict:
    return {
        "dim_E": r.dim_e,
        "action": [
            [[str(x) for x in row] for row in m.to_rows()] for m in r.action
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
        "anchor": [[str(x) for x in row] for row in f.anchor.to_rows()],
    }


def dump_json(d: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- trig values -----------------------------------------------------------------

def const(c) -> TrigPoly:
    """The constant trig polynomial c."""
    return TrigPoly.make(constant=c)


def cos_coeff(f: TrigPoly, k: int) -> Fraction:
    """The coefficient of cos kt in f; cos 0t is the constant."""
    if k == 0:
        return f.constant
    return f.cos_coeffs[k - 1] if k <= f.deg else Fraction(0)


def sin_coeff(f: TrigPoly, k: int) -> Fraction:
    """The coefficient of sin kt in f; sin 0t is zero."""
    return f.sin_coeffs[k - 1] if 0 < k <= f.deg else Fraction(0)


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


def block_offsets(betti, r: int) -> list[int]:
    """Row offsets of the H^i (x) H^{r-i} blocks of coproduct[r], i ascending."""
    return [0, *accumulate(betti[i] * betti[r - i] for i in range(r + 1))]


def coalgebra_from_matrices(betti: tuple[int, ...], coproduct: tuple[RationalMatrix, ...],
                            product: dict[tuple[int, int], RationalMatrix]) -> GradedCoalgebra:
    """The coalgebra whose coproduct and product are these matrices in the
    pinned layout.

    coproduct[r] maps H^r into the direct sum of the H^i (x) H^{r-i} blocks,
    i ascending, left index major inside each block.  product[(p, q)] maps
    H^p (x) H^q (left major) to H^{p+q}, and is required for every p, q >= 0
    with p + q <= top.  Column x of coproduct[r] is D(x) and column
    a * betti[q] + b of product[(p, q)] is (p, a) * (q, b).
    """
    if len(coproduct) != len(betti):
        raise ValueError("one coproduct matrix per degree")
    top = len(betti) - 1
    for r, m in enumerate(coproduct):
        if m.cols != betti[r] or m.rows != block_offsets(betti, r)[-1]:
            raise ValueError(f"coproduct matrix at degree {r} has wrong shape")
    for (p, q), m in product.items():
        if (min(p, q) < 0 or p + q > top or m.rows != betti[p + q]
                or m.cols != betti[p] * betti[q]):
            raise ValueError(f"product matrix at {(p, q)} has wrong shape")
    for p in range(top + 1):
        for q in range(top + 1 - p):
            if (p, q) not in product:
                raise ValueError(f"product matrix at {(p, q)} is missing")
    delta = {(r, a): {} for r, n in enumerate(betti) for a in range(n)}
    for r, m in enumerate(coproduct):
        pair_at = [((i, a), (r - i, b)) for i in range(r + 1)
                   for a in range(betti[i]) for b in range(betti[r - i])]
        for k, col, v in m.entries():
            delta[(r, col)][pair_at[k]] = v
    mu = {}
    for (p, q), m in product.items():
        nb = betti[q]
        cols = [{} for _ in range(m.cols)]
        for k, col, v in m.entries():
            cols[col][(p + q, k)] = v
        mu.update((((p, col // nb), (q, col % nb)), d) for col, d in enumerate(cols))
    return GradedCoalgebra(betti, delta, mu)


def coalgebra_matrices(c: GradedCoalgebra) -> tuple[tuple[RationalMatrix, ...],
                                                     dict[tuple[int, int], RationalMatrix]]:
    """(coproduct, product) of c in the layout `coalgebra_from_matrices` reads."""
    betti = c.betti
    coproduct = []
    for r, n in enumerate(betti):
        offs = block_offsets(betti, r)
        coproduct.append(RationalMatrix.from_entries(offs[-1], n, [
            ((offs[i] + a * betti[r - i] + b, x), v)
            for x in range(n) for ((i, a), (_, b)), v in c.delta[(r, x)].items()]))
    entries: dict[tuple[int, int], list] = {}
    for ((p, a), (q, b)), xy in c.mu.items():
        entries.setdefault((p, q), []).extend(((k, a * betti[q] + b), v)
                                              for (_, k), v in xy.items())
    product = {(p, q): RationalMatrix.from_entries(betti[p + q], betti[p] * betti[q], pairs)
               for (p, q), pairs in entries.items()}
    return tuple(coproduct), product


def coproduct_terms(c: GradedCoalgebra, r: int, coords) -> dict[tuple[int, int, int, int], Fraction]:
    """Sparse {(i, j, a, b): coeff} form of D(x) for x with given coords."""
    if len(coords) != c.betti[r]:
        raise ValueError("vector length mismatch")
    keys = [(i, r - i, a, b) for i in range(r + 1)
            for a in range(c.betti[i]) for b in range(c.betti[r - i])]
    return {key: x for key, x in zip(keys, dense_apply(coalgebra_matrices(c)[0][r], coords)) if x}


def multiply(c: GradedCoalgebra, p: int, q: int, u, v) -> list[Fraction]:
    """Product of elements of degrees p and q."""
    product = coalgebra_matrices(c)[1][(p, q)]
    return dense_apply(product, [x * y for x in u for y in v])  # left index major


def antipode_matrices(c: GradedCoalgebra) -> tuple[RationalMatrix, ...] | None:
    """The degree-by-degree antipode the Hopf check built, or None when the
    axioms fail."""
    if not hopf_axioms(c).ok:
        return None
    s = _antipode(c)
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
