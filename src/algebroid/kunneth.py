"""Products: direct sums of Lie algebras, tensor representations,
circle algebroids times Lie algebras, and the Betti convolution check.

An algebroid times an algebra h over a point is again an action algebroid,
of the direct sum with h acting by zero fields, so its window complexes come
from the one window builder in `circle` and `kunneth_verify` compares them
with the convolution of the factors' Betti numbers.  The slots of h move no
window when the factor's zero fields span a subalgebra (as they do when it
has none), so the window-N product is 2^dim h times the factor's size.
`tensor_rep` writes A (x) I and I (x) B entry by entry, the index of E major.
"""

from __future__ import annotations

from .circle import ActionAlgebroid, TrigPoly
from .exactlinalg import CohomologyReport, RationalMatrix
from .liealg import LieAlgebra, Representation, convolve, require_jacobi


def direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    """g + h with g occupying the first g.dim basis slots.  Both tables are
    normal, and every pair of h sorts after every pair of g once shifted."""
    s = g.dim
    shifted = tuple((i + s, j + s, tuple((k + s, c) for k, c in terms))
                    for i, j, terms in h.brackets)
    name = f"{g.name}+{h.name}" if g.name and h.name else ""
    return LieAlgebra(g.dim + h.dim, g.brackets + shifted, name=name)


def tensor_rep(e: Representation, f: Representation) -> Representation:
    """E (x) F over the direct sum; each summand acts on its own factor."""
    gh = direct_sum(e.algebra, f.algebra)
    de, df = e.dim_e, f.dim_e
    n = de * df
    left = [RationalMatrix.from_entries(n, n, (((i * df + k, j * df + k), x)
                                              for i, j, x in m.entries() for k in range(df)))
            for m in e.action]
    right = [RationalMatrix.from_entries(n, n, (((k * df + i, k * df + j), x)
                                               for i, j, x in m.entries() for k in range(de)))
             for m in f.action]
    return Representation(algebra=gh, dim_e=n, action=tuple(left + right))


def product_with_lie_algebra(a: ActionAlgebroid, h: LieAlgebra) -> ActionAlgebroid:
    """a x h, with h sitting over a point: the direct sum a.algebra + h acting
    through a's vector fields and the zero field on every basis vector of h."""
    require_jacobi(h)
    return ActionAlgebroid(direct_sum(a.algebra, h), a.phi + (TrigPoly(),) * h.dim)


class KunnethCheck:
    __slots__ = ("ok", "table")

    def __init__(self, ok: bool, table: tuple[tuple[int, int, int], ...]):
        self.ok, self.table = ok, table  # table rows: (degree, expected, actual)


def kunneth_verify(product: CohomologyReport, a: CohomologyReport,
                   b: CohomologyReport) -> KunnethCheck:
    """Compare product Betti numbers against the convolution of the factors.

    Also checks multiplicativity of the Euler characteristic.
    """
    expected = convolve(a.betti, b.betti)
    actual = list(product.betti)
    width = max(len(expected), len(actual))
    expected += [0] * (width - len(expected))
    actual += [0] * (width - len(actual))
    table = tuple((r, expected[r], actual[r]) for r in range(width))
    ok = expected == actual and product.euler == a.euler * b.euler
    return KunnethCheck(ok=ok, table=table)
