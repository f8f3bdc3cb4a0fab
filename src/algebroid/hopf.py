"""H-structures on Lie algebras and the Hopf structure of cohomology.

For a Lie algebra over a point the only candidate multiplication with the
zero vector as unit is vector addition, and addition is a morphism of Lie
algebras exactly when the bracket vanishes.  When it does, cohomology is
the full exterior algebra and pulling back along addition gives the
coproduct

    D(w) = w (x) 1 + 1 (x) w          on degree-1 classes,

extended multiplicatively.  On a basis class, D(w_I) is the sum over the
splits of I into L and R of sign * w_L (x) w_R, where w_L ^ w_R = sign * w_I,
so block i of the degree-r coproduct is the transpose of the wedge product
Lambda^i (x) Lambda^{r-i} -> Lambda^r.  Product and coproduct both come from
the one sign rule `exterior.wedge`.  `GradedCoalgebra` takes the
coproduct and product as matrices in pinned bases; that is the input
format.  The Hopf checks read two sparse views decoded once from the
matrices' columns, D(x) as {(y, z): coeff} and x*y as {z: coeff} over basis
labels (degree, index), so every axiom is a comparison of two exact sparse
linear combinations.  A coefficient is an exact `int` when it is
integral and a `Fraction` otherwise, so the common case of coefficients
+-1 never builds a Fraction.  The antipode is rebuilt degree by degree from
connectedness and then verified on both sides.  `primitives` reads the
coproduct's integer columns over their denominator, subtracts
x (x) 1 + 1 (x) x there and hands the difference, written through the
`RationalMatrix` constructor, to `kernel_basis`.  `exterior_structure_check`
reads the Betti vector alone, so its factorization into (1 + t^d), d odd,
is necessary for an exterior algebra but does not look at the cup product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb

from .errors import NotAbelianError
from .exactlinalg import RationalMatrix, common_columns, kernel_basis, require_cochain_budget
from .exterior import wedge_product
from .liealg import LieAlgebra


# -- H-structures ------------------------------------------------------------

class HStructure:
    """A candidate smooth multiplication, linearized: a dim x 2dim matrix
    acting on pairs (x, y) stacked as one coordinate vector."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: LieAlgebra, matrix: RationalMatrix):
        n = algebra.dim
        if matrix.rows != n or matrix.cols != 2 * n:
            raise ValueError("H must be dim x 2*dim")
        self.algebra, self.matrix = algebra, matrix


def addition(g: LieAlgebra) -> HStructure:
    n = g.dim
    pairs = [((i, j), 1) for i in range(n) for j in (i, n + i)]
    return HStructure(algebra=g, matrix=RationalMatrix.from_entries(n, 2 * n, pairs))


def check_h_structure(h: HStructure) -> bool:
    """Unit law H(x, 0) = H(0, x) = x, plus morphism of Lie algebras.

    The unit law leaves one linear H, addition.  Against the product bracket
    [(x, y), (x', y')] = ([x, x'], [y, y']) addition is a morphism iff
    [x, x'] + [y, y'] = [x + y, x' + y'], that is, iff [x, y'] + [y, x'] = 0
    for all x, y, x', y'.  Taking y = 0 gives [x, y'] = 0 for all x and y',
    so g is abelian; on an abelian g both sides vanish.
    """
    return h.matrix == addition(h.algebra).matrix and h.algebra.is_abelian()


# -- graded coalgebras -------------------------------------------------------

Label = tuple[int, int]  # a basis element: (degree, index)


class GradedCoalgebra:
    """Graded vector space with product and coproduct in pinned bases.

    The matrices are the input format.  coproduct[r] maps H^r into the
    direct sum of H^i (x) H^{r-i} blocks, i ascending, left index major
    inside each block.  product[(p, q)] maps H^p (x) H^q (left major) to
    H^{p+q}, and is required for every p, q >= 0 with p + q <= top.  The
    counit is projection to degree 0, which must be one-dimensional for the
    Hopf machinery.  The checks do not apply the matrices: they read the
    sparse views `_delta` and `_mu`, decoded once from the matrices'
    columns, and the antipode `_antipode` built from them.  The views are
    cached on the instance, so it keeps a __dict__ and has no slots.
    """

    def __init__(self, betti: tuple[int, ...], coproduct: tuple[RationalMatrix, ...],
                 product: dict[tuple[int, int], RationalMatrix]):
        self.betti, self.coproduct, self.product = betti, coproduct, product
        if len(self.coproduct) != len(self.betti):
            raise ValueError("one coproduct matrix per degree")
        for r, m in enumerate(self.coproduct):
            rows = sum(self.betti[i] * self.betti[r - i] for i in range(r + 1))
            if m.cols != self.betti[r] or m.rows != rows:
                raise ValueError(f"coproduct matrix at degree {r} has wrong shape")
        for (p, q), m in self.product.items():
            if (min(p, q) < 0 or p + q > self.top or m.rows != self.betti[p + q]
                    or m.cols != self.betti[p] * self.betti[q]):
                raise ValueError(f"product matrix at {(p, q)} has wrong shape")
        for p in range(self.top + 1):
            for q in range(self.top + 1 - p):
                if (p, q) not in self.product:
                    raise ValueError(f"product matrix at {(p, q)} is missing")

    @property
    def top(self) -> int:
        return len(self.betti) - 1

    def block_offsets(self, r: int) -> list[int]:
        return [0, *accumulate(self.betti[i] * self.betti[r - i] for i in range(r + 1))]

    @cached_property
    def _delta(self) -> dict[Label, dict[tuple[Label, Label], Fraction | int]]:
        """D(x) = {(y, z): coeff} for every basis label x, read off coproduct[r]."""
        out = {}
        for r, m in enumerate(self.coproduct):
            pair_at = [((i, a), (r - i, b)) for i in range(r + 1)
                       for a in range(self.betti[i]) for b in range(self.betti[r - i])]
            cols = [{} for _ in range(m.cols)]
            for k, col, v in m.entries():
                cols[col][pair_at[k]] = v
            out.update(((r, col), d) for col, d in enumerate(cols))
        return out

    @cached_property
    def _mu(self) -> dict[tuple[Label, Label], dict[Label, Fraction | int]]:
        """x * y = {z: coeff} for every pair of basis labels a product matrix covers."""
        out = {}
        for (p, q), m in self.product.items():
            nb = self.betti[q]
            cols = [{} for _ in range(m.cols)]
            for k, col, v in m.entries():
                cols[col][(p + q, k)] = v
            out.update((((p, col // nb), (q, col % nb)), d) for col, d in enumerate(cols))
        return out

    @cached_property
    def _antipode(self) -> dict[Label, dict[Label, Fraction | int]]:
        """S degree by degree from connectedness: S(x) = -x - sum S(x') x'' over
        the terms x' (x) x'' of D(x) with both factors in positive degree."""
        s: dict[Label, dict[Label, Fraction | int]] = {(0, 0): {(0, 0): 1}}
        for r in range(1, self.top + 1):
            for a in range(self.betti[r]):
                x = (r, a)
                s[x] = _lincomb([(x, -1)] + [
                    (m, -v * t * u) for (y, z), v in self._delta[x].items() if 0 < y[0] < r
                    for k, t in s[y].items() for m, u in self._mu[(k, z)].items()])
        return s

def _lincomb(terms) -> dict:
    """Sum (key, coeff) pairs into one sparse linear combination, zeros dropped."""
    acc: dict = {}
    for key, x in terms:
        acc[key] = acc.get(key, 0) + x
    return {key: x for key, x in acc.items() if x}


def addition_coproduct(g: LieAlgebra) -> GradedCoalgebra:
    """The coproduct induced by vector addition on an abelian algebra.

    Cohomology is the exterior algebra on n degree-1 generators; basis
    p-classes are indexed lexicographically like exterior basis forms.  The
    product is `wedge_product`, and block i of coproduct[r] is product[(i, r-i)]
    transposed.  The coproduct lands in the cohomology of g + g, whose complex
    has 4^dim cochains; that count is checked against the budget before
    anything is built.
    """
    if not g.is_abelian():
        raise NotAbelianError("addition induces a coproduct only for abelian algebras")
    n = g.dim
    require_cochain_budget(1, 2 * n, "the addition coproduct")
    betti = tuple(comb(n, p) for p in range(n + 1))
    product = {(p, q): wedge_product(n, p, q) for p in range(n + 1) for q in range(n + 1 - p)}
    coproduct = []
    for r in range(n + 1):
        offs = [0, *accumulate(betti[i] * betti[r - i] for i in range(r + 1))]
        coproduct.append(RationalMatrix.from_entries(offs[-1], betti[r], [
            ((offs[i] + j, k), x)
            for i in range(r + 1) for k, j, x in product[(i, r - i)].entries()]))
    return GradedCoalgebra(betti=betti, coproduct=tuple(coproduct), product=product)


def primitives(c: GradedCoalgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Basis of {x : D(x) = x (x) 1 + 1 (x) x}, one tuple of vectors per degree."""
    if c.betti[0] != 1:
        raise ValueError("primitives need a one-dimensional degree-0 part")
    out: list[tuple[tuple[Fraction, ...], ...]] = [()]  # degree 0 has none
    for r in range(1, c.top + 1):
        dim_r, offs = c.betti[r], c.block_offsets(r)
        den, (cols,) = common_columns([c.coproduct[r]])
        cols = list(map(dict, cols))
        # D - (x (x) 1 + 1 (x) x): column a loses den at row a of blocks (r, 0) and (0, r)
        for a, col in enumerate(cols):
            for i in (offs[r] + a, offs[0] + a):
                col[i] = col.get(i, 0) - den
        diff = RationalMatrix(offs[-1], dim_r, cols, den)
        out.append(tuple(tuple(v) for v in kernel_basis(diff)))
    return tuple(out)


class HopfReport:
    __slots__ = ("counit", "coassociative", "algebra_morphism", "antipode")

    def __init__(self, counit: bool, coassociative: bool, algebra_morphism: bool, antipode: bool):
        self.counit, self.coassociative = counit, coassociative
        self.algebra_morphism, self.antipode = algebra_morphism, antipode

    @property
    def ok(self) -> bool:
        return self.counit and self.coassociative and self.algebra_morphism and self.antipode


def hopf_axioms(c: GradedCoalgebra) -> HopfReport:
    counit = _check_counit(c)
    coassoc = _check_coassociative(c)
    morphism = _check_algebra_morphism(c)
    antipode = counit and _check_antipode(c)
    return HopfReport(counit=counit, coassociative=coassoc,
                      algebra_morphism=morphism, antipode=antipode)


def _check_counit(c: GradedCoalgebra) -> bool:
    # (eps (x) id) D = id = (id (x) eps) D, eps reading off the degree-0 coefficient
    if c.betti[0] != 1:
        return False
    for x, dx in c._delta.items():
        left = _lincomb((z, v) for (y, z), v in dx.items() if y[0] == 0)
        right = _lincomb((y, v) for (y, z), v in dx.items() if z[0] == 0)
        if left != {x: 1} or right != {x: 1}:
            return False
    return True


def _check_coassociative(c: GradedCoalgebra) -> bool:
    delta = c._delta
    for dx in delta.values():
        lhs = _lincomb(((y1, y2, z), v * w) for (y, z), v in dx.items()
                       for (y1, y2), w in delta[y].items())
        rhs = _lincomb(((y, z1, z2), v * w) for (y, z), v in dx.items()
                       for (z1, z2), w in delta[z].items())
        if lhs != rhs:
            return False
    return True


def _check_algebra_morphism(c: GradedCoalgebra) -> bool:
    delta, mu = c._delta, c._mu
    # D(1) = 1 (x) 1
    if c.betti[0] != 1 or delta[(0, 0)] != {((0, 0), (0, 0)): 1}:
        return False
    # D(xy) = D(x) D(y), with (x1 (x) x2)(y1 (x) y2) = (-1)^{|x2||y1|} x1 y1 (x) x2 y2
    for (x, y), xy in mu.items():
        lhs = _lincomb((pair, u * w) for k, u in xy.items() for pair, w in delta[k].items())
        rhs = _lincomb(((k1, k2), (-1 if x2[0] * y1[0] % 2 else 1) * v * w * s * t)
                       for (x1, x2), v in delta[x].items()
                       for (y1, y2), w in delta[y].items()
                       for k1, s in mu[(x1, y1)].items()
                       for k2, t in mu[(x2, y2)].items())
        if lhs != rhs:
            return False
    return True


def _check_antipode(c: GradedCoalgebra) -> bool:
    """Verify both antipode identities for the S built from connectedness."""
    s = c._antipode
    # verify m(S (x) id) D = eps * unit = m(id (x) S) D on every basis vector
    for x, dx in c._delta.items():
        want = {(0, 0): 1} if x[0] == 0 else {}
        left = _lincomb((m, v * t * u) for (y, z), v in dx.items()
                        for k, t in s[y].items() for m, u in c._mu[(k, z)].items())
        right = _lincomb((m, v * t * u) for (y, z), v in dx.items()
                         for k, t in s[z].items() for m, u in c._mu[(y, k)].items())
        if left != want or right != want:
            return False
    return True


def exterior_structure_check(betti) -> tuple[int, ...] | None:
    """Factor the Poincare polynomial as a product of (1 + t^d), d odd.

    Returns the generator degrees ascending, or None when no such
    factorization exists.  Each step divides p by 1 + t^d, d the lowest
    positive degree left, with q_i = p_i - q_{i-d}: on the top d degrees the
    recurrence leaves p - t^d q, which vanishes exactly when 1 + t^d divides
    p.  Every step is exact, so the degrees always multiply back to p and no
    sign check is needed.
    """
    poly = list(betti)
    if not poly or poly[0] != 1:
        raise ValueError("need betti[0] = 1")
    while poly[-1] == 0:
        poly.pop()
    degrees = []
    while len(poly) > 1:
        d = next(i for i in range(1, len(poly)) if poly[i])
        for i in range(d, len(poly)):
            poly[i] -= poly[i - d]
        if d % 2 == 0 or any(poly[-d:]):
            return None
        degrees.append(d)
        del poly[-d:]
    return tuple(degrees)
