"""Products: direct sums of Lie algebras, tensor representations, graded
tensor products of complexes, and the Betti convolution check.

The product differential follows the usual sign rule

    d(w (x) v) = d_A w (x) v + (-1)^{deg w} w (x) d_B v,

realized on block matrices.  Degree r of the product complex is the direct
sum of blocks A^p (x) B^{r-p} with p ascending; inside each block the A
index is major.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .exactlinalg import (
    CochainComplex,
    CohomologyReport,
    RationalMatrix,
    block_matrix,
)
from .liealg import (
    LieAlgebra,
    Representation,
    check_jacobi,
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
    id_e = RationalMatrix.identity(e.dim_e)
    id_f = RationalMatrix.identity(f.dim_e)
    action = tuple(m.kron(id_f) for m in e.action) + tuple(id_e.kron(m) for m in f.action)
    return Representation(algebra=gh, dim_e=e.dim_e * f.dim_e, action=action)


def _block_range(r: int, top_a: int, top_b: int) -> range:
    return range(max(0, r - top_b), min(r, top_a) + 1)


def tensor_complex(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Graded tensor product of two complexes."""
    top_a, top_b = a.top, b.top
    top = top_a + top_b
    degrees = []
    for r in range(top + 1):
        degrees.append(sum(a.degrees[p] * b.degrees[r - p] for p in _block_range(r, top_a, top_b)))
    diffs = []
    for r in range(top):
        src_blocks = list(_block_range(r, top_a, top_b))
        tgt_blocks = list(_block_range(r + 1, top_a, top_b))
        src_dims = [a.degrees[p] * b.degrees[r - p] for p in src_blocks]
        tgt_dims = [a.degrees[p] * b.degrees[r + 1 - p] for p in tgt_blocks]
        tgt_pos = {p: i for i, p in enumerate(tgt_blocks)}
        blocks = {}
        for src_i, p in enumerate(src_blocks):
            q = r - p
            if p < top_a and (p + 1) in tgt_pos:
                blocks[(tgt_pos[p + 1], src_i)] = a.differentials[p].kron(
                    RationalMatrix.identity(b.degrees[q])
                )
            if q < top_b and p in tgt_pos:
                m = RationalMatrix.identity(a.degrees[p]).kron(b.differentials[q])
                if p % 2:
                    m = -m
                existing = blocks.get((tgt_pos[p], src_i))
                blocks[(tgt_pos[p], src_i)] = m if existing is None else existing + m
        diffs.append(block_matrix(tgt_dims, src_dims, blocks))
    return CochainComplex(degrees=tuple(degrees), differentials=tuple(diffs))


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
        ce = ce_complex(trivial_representation(self.algebra))
        return TruncatedComplex(N=n, complex=tensor_complex(tc.complex, ce), windows=None)

    def _is_transitive(self) -> bool:
        # The added summand anchors to zero, so surjectivity is the factor's.
        return self.factor._is_transitive()


def product_with_lie_algebra(a, g: LieAlgebra) -> ProductWithAlgebra:
    if not check_jacobi(g):
        raise ValidationError("structure constants violate the Jacobi identity")
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
