"""H-structures on Lie algebras and the Hopf structure of cohomology.

For a Lie algebra over a point the only candidate multiplication with the
zero vector as unit is vector addition, and addition is a morphism of Lie
algebras exactly when the bracket vanishes.  When it does, cohomology is
the full exterior algebra and pulling back along addition gives the
coproduct

    D(w) = w (x) 1 + 1 (x) w          on degree-1 classes,

extended multiplicatively.  On a basis class, D(w_I) is the sum over the
splits of I into L and R of sign * w_L (x) w_R, where w_L ^ w_R = sign * w_I,
so the coproduct is the wedge product read backwards, and both come from
the one sign rule `exterior.wedge`.  `GradedCoalgebra` holds them as sparse
maps over basis labels (degree, index): D(x) as {(y, z): coeff} and x*y as
{z: coeff}, so every axiom is a comparison of two exact sparse linear
combinations.  A coefficient is an exact `int` when it is integral and a
`Fraction` otherwise, so the common case of coefficients +-1 never builds
a Fraction.  The antipode is rebuilt degree by degree from connectedness
and then verified on both sides.  `primitives` writes D(x) - x (x) 1 -
1 (x) x for each basis class x of a degree as one column over the pairs
(y, z) it meets, through `RationalMatrix.from_entries`, and hands the
matrix to `kernel_basis`.  `exterior_structure_check` reads the Betti
vector alone, so its factorization into (1 + t^d), d odd, is necessary
for an exterior algebra but does not look at the cup product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAbelianError
from .exactlinalg import RationalMatrix, kernel_basis, require_cochain_budget
from .exterior import basis_index, wedge
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
    """Graded vector space with product and coproduct on basis labels.

    The basis of H^r is labelled (r, 0), ..., (r, betti[r] - 1).  `delta`
    maps every label x to D(x) = {(y, z): c}, the terms c y (x) z with
    |y| + |z| = |x|, and `mu` maps every pair of labels (x, y) with
    |x| + |y| <= top to x * y = {z: c}, |z| = |x| + |y|.  A coefficient c is
    nonzero, an exact `int` when it is integral and a `Fraction` otherwise,
    so the common case of coefficients +-1 never builds a Fraction.  The
    counit is projection to degree 0, which must be one-dimensional for the
    Hopf machinery.
    """

    __slots__ = ("betti", "delta", "mu")

    def __init__(self, betti: tuple[int, ...],
                 delta: dict[Label, dict[tuple[Label, Label], Fraction | int]],
                 mu: dict[tuple[Label, Label], dict[Label, Fraction | int]]):
        self.betti, self.delta, self.mu = betti, delta, mu
        basis = {(r, a) for r, n in enumerate(betti) for a in range(n)}
        for x in basis.symmetric_difference(delta):
            raise ValueError(f"coproduct at {x}: need one entry per basis label")
        pairs = {(x, y) for x in basis for y in basis if x[0] + y[0] <= self.top}
        for xy in pairs.symmetric_difference(mu):
            raise ValueError(f"product at {xy}: need one entry per pair of labels "
                             f"of total degree <= {self.top}")
        for x, dx in delta.items():
            for (y, z), c in dx.items():
                if not c or y not in basis or z not in basis or y[0] + z[0] != x[0]:
                    raise ValueError(f"coproduct at {x}: {(y, z)} is not a nonzero term "
                                     f"of degree {x[0]}")
        for (x, y), xy in mu.items():
            for z, c in xy.items():
                if not c or z not in basis or z[0] != x[0] + y[0]:
                    raise ValueError(f"product at {(x, y)}: {z} is not a nonzero term "
                                     f"of degree {x[0] + y[0]}")

    @property
    def top(self) -> int:
        return len(self.betti) - 1


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
    product is `exterior.wedge` on the forms' bitmasks, and the coproduct is
    that product read backwards: e^a ^ e^b = sign e^m puts sign e^a (x) e^b
    into D(e^m).  The coproduct lands in the cohomology of g + g, whose
    complex has 4^dim cochains; that count is checked against the budget
    before anything is built.
    """
    if not g.is_abelian():
        raise NotAbelianError("addition induces a coproduct only for abelian algebras")
    n = g.dim
    require_cochain_budget(1, 2 * n, "the addition coproduct")
    index = [basis_index(n, p) for p in range(n + 1)]
    delta: dict[Label, dict] = {(p, i): {} for p, at in enumerate(index) for i in at.values()}
    mu: dict[tuple[Label, Label], dict] = {}
    for p, left in enumerate(index):
        for q in range(n + 1 - p):
            for a, i in left.items():
                for b, j in index[q].items():
                    x, y = (p, i), (q, j)
                    xy = mu[(x, y)] = {}
                    if signed := wedge(a, b):
                        z = (p + q, index[p + q][signed[1]])
                        xy[z] = delta[z][(x, y)] = signed[0]
    return GradedCoalgebra(tuple(map(len, index)), delta, mu)


def primitives(c: GradedCoalgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Basis of {x : D(x) = x (x) 1 + 1 (x) x}, one tuple of vectors per degree."""
    if c.betti[0] != 1:
        raise ValueError("primitives need a one-dimensional degree-0 part")
    out: list[tuple[tuple[Fraction, ...], ...]] = [()]  # degree 0 has none
    one = (0, 0)
    for r in range(1, c.top + 1):
        # column a is D(x) - x (x) 1 - 1 (x) x for x = (r, a), one row per pair (y, z)
        rows: dict[tuple[Label, Label], int] = {}
        entries = [((rows.setdefault(pair, len(rows)), a), v)
                   for a in range(c.betti[r])
                   for pair, v in (*c.delta[(r, a)].items(), (((r, a), one), -1),
                                   ((one, (r, a)), -1))]
        diff = RationalMatrix.from_entries(len(rows), c.betti[r], entries)
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
    for x, dx in c.delta.items():
        left = _lincomb((z, v) for (y, z), v in dx.items() if y[0] == 0)
        right = _lincomb((y, v) for (y, z), v in dx.items() if z[0] == 0)
        if left != {x: 1} or right != {x: 1}:
            return False
    return True


def _check_coassociative(c: GradedCoalgebra) -> bool:
    delta = c.delta
    for dx in delta.values():
        lhs = _lincomb(((y1, y2, z), v * w) for (y, z), v in dx.items()
                       for (y1, y2), w in delta[y].items())
        rhs = _lincomb(((y, z1, z2), v * w) for (y, z), v in dx.items()
                       for (z1, z2), w in delta[z].items())
        if lhs != rhs:
            return False
    return True


def _check_algebra_morphism(c: GradedCoalgebra) -> bool:
    delta, mu = c.delta, c.mu
    one = (0, 0)
    # D(1) = 1 (x) 1, and 1 x = x = x 1: a morphism of algebras presupposes a unit
    if c.betti[0] != 1 or delta[one] != {(one, one): 1} or any(
            mu[(one, x)] != {x: 1} or mu[(x, one)] != {x: 1} for x in delta):
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


def _antipode(c: GradedCoalgebra) -> dict[Label, dict[Label, Fraction | int]]:
    """S degree by degree from connectedness: S(x) = -x - sum S(x') x'' over
    the terms x' (x) x'' of D(x) with both factors in positive degree."""
    s: dict[Label, dict[Label, Fraction | int]] = {(0, 0): {(0, 0): 1}}
    for r in range(1, c.top + 1):
        for a in range(c.betti[r]):
            x = (r, a)
            s[x] = _lincomb([(x, -1)] + [
                (m, -v * t * u) for (y, z), v in c.delta[x].items() if 0 < y[0] < r
                for k, t in s[y].items() for m, u in c.mu[(k, z)].items()])
    return s


def _check_antipode(c: GradedCoalgebra) -> bool:
    """Verify both antipode identities for the S built from connectedness."""
    s = _antipode(c)
    # verify m(S (x) id) D = eps * unit = m(id (x) S) D on every basis vector
    for x, dx in c.delta.items():
        want = {(0, 0): 1} if x[0] == 0 else {}
        left = _lincomb((m, v * t * u) for (y, z), v in dx.items()
                        for k, t in s[y].items() for m, u in c.mu[(k, z)].items())
        right = _lincomb((m, v * t * u) for (y, z), v in dx.items()
                         for k, t in s[z].items() for m, u in c.mu[(y, k)].items())
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
