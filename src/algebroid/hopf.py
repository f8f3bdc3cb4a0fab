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
{z: coeff}.  A check takes one label, or one (generator, label) pair, at a
time and adds lhs - rhs into a small exact sum keyed by the terms' labels,
which must vanish before the next one starts; the first that does not
decides.  A coefficient is an `int` when integral and a `Fraction`
otherwise, so the common case of coefficients +-1 never builds a Fraction.

The algebra-morphism verdict needs the unit law, associativity and
D(xy) = D(x) D(y); both loops run over a label set G.  When every class of
degree r >= 2 is a sum of products a x' with |a| = 1 (one rank per degree,
of H^1 (x) H^{r-1} -> H^r), G is the degree-1 labels: by induction on |x|
(Milnor and Moore), (ay)z = a(yz) and D(ay) = D(a) D(y) for a in G and all
y, z give (xy)z = x(yz) and D(xy) = D(x) D(y), about 2n 3^n terms on n
exterior generators against 9^n over every pair.  Otherwise G is every
label and the loops check every triple and pair.  Both loops take the pair
(a, x) as one group and visit only nonzero products, read from the index
{y: x y} of each x: (a x) y from a x and then k y, a (x y) from x y, keyed
by (y, z), and D(a) D(x) keyed by (k1, k2), a term dropped as soon as one
of its two products is empty.  Once D is multiplicative
both sides of coassociativity are algebra maps, compared on 1 and G alone.
The antipode is rebuilt degree by degree from connectedness and verified on
both sides.  `primitives` hands the columns D(x) - x (x) 1 - 1 (x) x of a
degree to `kernel_basis`.  `exterior_structure_check` reads the Betti vector
alone: its factorization into (1 + t^d), d odd, is necessary for an exterior
algebra but does not look at the cup product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAbelianError
from .exactlinalg import RationalMatrix, kernel_basis, rank, require_cochain_budget
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
        labels = [(r, a) for r, n in enumerate(betti) for a in range(n)]
        basis, top = set(labels), self.top
        for x in basis.symmetric_difference(delta):
            raise ValueError(f"coproduct at {x}: need one entry per basis label")
        # Every key a pair of labels of total degree <= top, and as many keys as
        # such pairs: then no pair lacks its entry, and no set of the pairs is built.
        xy = next((k for k in mu if type(k) is not tuple or len(k) != 2 or k[0] not in basis
                   or k[1] not in basis or k[0][0] + k[1][0] > top), None)
        pairs = sum(n * sum(betti[:top + 1 - r]) for r, n in enumerate(betti))
        if xy is None and len(mu) != pairs:
            xy = next((x, y) for x in labels for y in labels
                      if x[0] + y[0] <= top and (x, y) not in mu)
        if xy is not None:
            raise ValueError(f"product at {xy}: need one entry per pair of labels "
                             f"of total degree <= {top}")
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


def addition_coproduct(g: LieAlgebra) -> GradedCoalgebra:
    """The coproduct induced by vector addition on an abelian algebra.

    Cohomology is the exterior algebra on n degree-1 generators; basis
    p-classes are indexed lexicographically like exterior basis forms.  The
    product is `exterior.wedge` on the forms' bitmasks, and the coproduct is
    that product read backwards: e^a ^ e^b = sign e^m puts sign e^a (x) e^b
    into D(e^m).  Both are written from the splits (a, m ^ a) of each form m,
    3^dim wedges in all; every other product is zero.  The coproduct lands in
    the cohomology of g + g, whose complex has 4^dim cochains; that count is
    checked against the budget before anything is built.
    """
    if not g.is_abelian():
        raise NotAbelianError("addition induces a coproduct only for abelian algebras")
    n = g.dim
    require_cochain_budget(1, 2 * n, "the addition coproduct")
    index = [basis_index(n, p) for p in range(n + 1)]
    label = {m: (p, i) for p, at in enumerate(index) for m, i in at.items()}
    mu: dict[tuple[Label, Label], dict] = {
        (x, y): {} for x in label.values() for y in label.values() if x[0] + y[0] <= n}
    delta: dict[Label, dict] = {z: {} for z in label.values()}
    for m, z in label.items():
        dz, a = delta[z], 0
        for _ in range(1 << m.bit_count()):  # a runs over the submasks of m, upwards
            xy = label[a], label[m ^ a]
            mu[xy][z] = dz[xy] = wedge(a, m ^ a)[0]
            a = (a - m) & m
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
    gens = _generators(c)
    morphism = _check_algebra_morphism(c, gens)
    coassoc = _check_coassociative(c, [(0, 0), *gens] if morphism else c.delta)
    antipode = counit and _check_antipode(c)
    return HopfReport(counit=counit, coassociative=coassoc,
                      algebra_morphism=morphism, antipode=antipode)


def _generators(c: GradedCoalgebra) -> list[Label]:
    """The degree-1 labels when H^1 (x) H^{r-1} -> H^r has rank betti[r] for
    every r >= 2, else every label."""
    betti, mu = c.betti, c.mu
    ones = [(1, a) for a in range(betti[1])] if c.top else []
    for r in range(2, c.top + 1):
        n = betti[r - 1]
        m = RationalMatrix.from_entries(betti[r], len(ones) * n, (
            ((k, a * n + b), v) for a, x in enumerate(ones) for b in range(n)
            for (_, k), v in mu[(x, (r - 1, b))].items()))
        if rank(m) != betti[r]:
            return list(c.delta)
    return ones


def _check_counit(c: GradedCoalgebra) -> bool:
    # (eps (x) id) D = id = (id (x) eps) D, eps reading off the degree-0 coefficient;
    # H^0 is spanned by 1, so the terms each side keeps carry distinct labels
    return c.betti[0] == 1 and all(
        {z: v for (y, z), v in dx.items() if not y[0]} == {x: 1} ==
        {y: v for (y, z), v in dx.items() if not z[0]} for x, dx in c.delta.items())


def _check_coassociative(c: GradedCoalgebra, labels) -> bool:
    delta = c.delta
    for x in labels:
        acc: dict = {}
        for (y, z), v in delta[x].items():
            for (y1, y2), w in delta[y].items():
                acc[y1, y2, z] = acc.get((y1, y2, z), 0) + v * w
            for (z1, z2), w in delta[z].items():
                acc[y, z1, z2] = acc.get((y, z1, z2), 0) - v * w
        if any(acc.values()):
            return False
    return True


def _check_algebra_morphism(c: GradedCoalgebra, gens: list[Label]) -> bool:
    delta, mu, top, one = c.delta, c.mu, c.top, (0, 0)
    # D(1) = 1 (x) 1, and 1 x = x = x 1: a morphism of algebras presupposes a unit
    if c.betti[0] != 1 or delta[one] != {(one, one): 1} or any(
            mu[(one, x)] != {x: 1} or mu[(x, one)] != {x: 1} for x in delta):
        return False
    right: dict[Label, dict] = {x: {} for x in delta}  # {y: x y} over the nonzero x y
    for (x, y), xy in mu.items():
        if xy:
            right[x][y] = xy
    for a in gens:
        for x, dx in delta.items():
            if a[0] + x[0] > top:
                continue
            # (a x) y = a (x y) by (y, z): with the unit law, the product is associative
            assoc: dict = {}
            for k, u in mu[(a, x)].items():
                for y, ky in right[k].items():
                    for z, w in ky.items():
                        assoc[y, z] = assoc.get((y, z), 0) + u * w
            for y, xy in right[x].items():
                for k, u in xy.items():
                    if ak := right[a].get(k):
                        for z, w in ak.items():
                            assoc[y, z] = assoc.get((y, z), 0) - u * w
            # D(a x) = D(a) D(x) by (k1, k2): (a1 (x) a2)(x1 (x) x2) = (-1)^{|a2||x1|} a1x1 (x) a2x2
            mult: dict = {}
            for k, u in mu[(a, x)].items():
                for pair, w in delta[k].items():
                    mult[pair] = mult.get(pair, 0) + u * w
            for (a1, a2), v in delta[a].items():
                right1, right2 = right[a1], right[a2]
                for (x1, x2), w in dx.items():
                    if (p1 := right1.get(x1)) and (p2 := right2.get(x2)):
                        f = v * w if a2[0] * x1[0] % 2 else -v * w
                        for k1, s in p1.items():
                            for k2, t in p2.items():
                                mult[k1, k2] = mult.get((k1, k2), 0) + f * s * t
            if any(assoc.values()) or any(mult.values()):
                return False
    return True


def _antipode(c: GradedCoalgebra) -> dict[Label, dict[Label, Fraction | int]]:
    """S degree by degree from connectedness: S(x) = -x - sum S(x') x'' over
    the terms x' (x) x'' of D(x) with both factors in positive degree."""
    s: dict[Label, dict[Label, Fraction | int]] = {(0, 0): {(0, 0): 1}}
    for r in range(1, c.top + 1):
        for a in range(c.betti[r]):
            x = (r, a)
            acc: dict = {x: -1}
            for (y, z), v in c.delta[x].items():
                if 0 < y[0] < r:
                    for k, t in s[y].items():
                        for m, u in c.mu[(k, z)].items():
                            acc[m] = acc.get(m, 0) - v * t * u
            s[x] = {m: v for m, v in acc.items() if v}
    return s


def _check_antipode(c: GradedCoalgebra) -> bool:
    """Verify both antipode identities for the S built from connectedness."""
    s, mu, one = _antipode(c), c.mu, (0, 0)
    # m(S (x) id) D = eps * unit = m(id (x) S) D on every basis vector x
    for x, dx in c.delta.items():
        left, right = ({one: -1}, {one: -1}) if x == one else ({}, {})
        for (y, z), v in dx.items():
            for k, t in s[y].items():
                for m, u in mu[(k, z)].items():
                    left[m] = left.get(m, 0) + v * t * u
            for k, t in s[z].items():
                for m, u in mu[(y, k)].items():
                    right[m] = right.get(m, 0) + v * t * u
        if any(left.values()) or any(right.values()):
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
