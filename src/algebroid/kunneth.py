"""Products: direct sums of Lie algebras, tensor representations, graded
tensor products of complexes, and the Betti convolution check.

The product differential follows the usual sign rule

    d(w (x) v) = d_A w (x) v + (-1)^{deg w} w (x) d_B v,

realized as one `kron_sum` per degree.  Degree r of the product complex is
the direct sum of blocks A^p (x) B^{r-p} with p ascending; inside each block
the A index is major.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import CochainComplex, CohomologyReport, RationalMatrix, kron_sum, \
    require_cochain_budget
from .liealg import (
    LieAlgebra,
    Representation,
    require_jacobi,
    trivial_representation,
    ce_complex,
)
from .circle import TruncatedComplex


def direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    """g + h with g occupying the first g.dim basis slots."""
    table = {}
    for i, j, terms in g.brackets:
        table[(i, j)] = dict(terms)
    for i, j, terms in h.brackets:
        table[(i + g.dim, j + g.dim)] = {k + g.dim: c for k, c in terms}
    name = f"{g.name}+{h.name}" if g.name and h.name else ""
    return LieAlgebra.make(g.dim + h.dim, table, name=name)


def tensor_rep(e: Representation, f: Representation) -> Representation:
    """E (x) F over the direct sum; each summand acts on its own factor."""
    gh = direct_sum(e.algebra, f.algebra)
    id_e, id_f = RationalMatrix.identity(e.dim_e), RationalMatrix.identity(f.dim_e)
    n = e.dim_e * f.dim_e
    action = tuple(kron_sum(n, n, [(0, 0, m, id_f)]) for m in e.action) + \
        tuple(kron_sum(n, n, [(0, 0, id_e, m)]) for m in f.action)
    return Representation(algebra=gh, dim_e=n, action=action)


def _blocks(a: CochainComplex, b: CochainComplex, r: int) -> tuple[dict[int, int], int]:
    """Offsets of the blocks A^p (x) B^{r-p} in degree r, by p, and that degree's dimension."""
    offsets, dim = {}, 0
    for p in range(max(0, r - b.top), min(r, a.top) + 1):
        offsets[p] = dim
        dim += a.degrees[p] * b.degrees[r - p]
    return offsets, dim


def tensor_complex(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Graded tensor product of two complexes."""
    blocks = [_blocks(a, b, r) for r in range(a.top + b.top + 1)]
    degrees = tuple(dim for _, dim in blocks)
    diffs = []
    for r, (src, _) in enumerate(blocks[:-1]):
        tgt, terms = blocks[r + 1][0], []
        for p, c0 in src.items():
            if p + 1 in tgt:
                id_b = RationalMatrix.identity(b.degrees[r - p])
                terms.append((tgt[p + 1], c0, a.differentials[p], id_b))
            if p in tgt:
                sign = RationalMatrix.identity(a.degrees[p]).scaled((-1) ** p)
                terms.append((tgt[p], c0, sign, b.differentials[r - p]))
        diffs.append(kron_sum(degrees[r + 1], degrees[r], terms))
    return CochainComplex(degrees=degrees, differentials=tuple(diffs))


@dataclass(frozen=True)
class ProductWithAlgebra:
    """A circle algebroid times a Lie algebra sitting over a point.

    Its window-N complex is, by construction, the graded tensor product of
    the factor's window-N complex with the Lie algebra's cochain complex.
    """

    factor: object
    algebra: LieAlgebra

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        tc = self.factor._truncated_complex(n)
        require_cochain_budget(sum(tc.complex.degrees) * 2 ** self.algebra.dim,
                               f"the window-{n} product complex")
        ce = ce_complex(trivial_representation(self.algebra))
        cx = tensor_complex(tc.complex, ce)
        # Each coordinate of a block A^p (x) B^{r-p} enters with its A coordinate.
        levels = tuple(tuple(lv for p in _blocks(tc.complex, ce, r)[0] for lv in tc.levels[p]
                             for _ in range(ce.degrees[r - p]))
                       for r in range(cx.top + 1))
        return TruncatedComplex(N=n, complex=cx, levels=levels, windows=None)

    def _is_transitive(self) -> bool:
        # The added summand anchors to zero, so surjectivity is the factor's.
        return self.factor._is_transitive()


def product_with_lie_algebra(a, g: LieAlgebra) -> ProductWithAlgebra:
    require_jacobi(g)
    return ProductWithAlgebra(factor=a, algebra=g)


@dataclass(frozen=True)
class KunnethCheck:
    ok: bool
    table: tuple[tuple[int, int, int], ...]  # (degree, expected, actual)


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kunneth_verify(product: CohomologyReport, a: CohomologyReport,
                   b: CohomologyReport) -> KunnethCheck:
    """Compare product Betti numbers against the convolution of the factors.

    Also checks multiplicativity of the Euler characteristic.
    """
    expected = _convolve(a.betti, b.betti)
    actual = list(product.betti)
    width = max(len(expected), len(actual))
    expected += [0] * (width - len(expected))
    actual += [0] * (width - len(actual))
    table = tuple((r, expected[r], actual[r]) for r in range(width))
    ok = expected == actual and product.euler == a.euler * b.euler
    return KunnethCheck(ok=ok, table=table)
