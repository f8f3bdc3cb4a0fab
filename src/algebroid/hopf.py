"""H-structures on Lie algebras and the Hopf structure of cohomology.

For a Lie algebra over a point the only candidate multiplication with the
zero vector as unit is vector addition, and addition is a morphism of Lie
algebras exactly when the bracket vanishes.  When it does, cohomology is
the full exterior algebra and pulling back along addition gives the
coproduct

    D(w) = w (x) 1 + 1 (x) w          on degree-1 classes,

extended multiplicatively with Koszul signs.  `GradedCoalgebra` takes the
coproduct and product as matrices in pinned bases; that is the input
format.  The Hopf checks read two sparse views decoded once from the
matrices' columns, D(x) as {(y, z): coeff} and x*y as {z: coeff} over basis
labels (degree, index), so every axiom is a comparison of two exact sparse
linear combinations.  The antipode is rebuilt degree by degree from
connectedness and then verified on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import NotAbelianError
from .exactlinalg import RationalMatrix, as_fraction, kernel_basis
from .exterior import sort_sign
from .liealg import LieAlgebra, bracket, bracket_basis

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- H-structures ------------------------------------------------------------

@dataclass(frozen=True)
class HStructure:
    """A candidate smooth multiplication, linearized: a dim x 2dim matrix
    acting on pairs (x, y) stacked as one coordinate vector."""

    algebra: LieAlgebra
    matrix: RationalMatrix

    def __post_init__(self):
        n = self.algebra.dim
        if self.matrix.rows != n or self.matrix.cols != 2 * n:
            raise ValueError("H must be dim x 2*dim")


def addition(g: LieAlgebra) -> HStructure:
    n = g.dim
    pairs = [((i, j), _ONE) for i in range(n) for j in (i, n + i)]
    return HStructure(algebra=g, matrix=RationalMatrix.from_entries(n, 2 * n, pairs))


def check_h_structure(h: HStructure) -> bool:
    """Unit law H(x, 0) = H(0, x) = x, plus morphism of Lie algebras."""
    g = h.algebra
    n = g.dim
    for i in range(n):
        for k in range(n):
            want = _ONE if i == k else _ZERO
            if h.matrix[k, i] != want or h.matrix[k, n + i] != want:
                return False
    # Morphism against the product bracket [(x,y),(x',y')] = ([x,x'],[y,y']).
    images = [h.matrix.column(a) for a in range(2 * n)]
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            lhs = h.matrix.apply(_pair_bracket(g, a, b))
            rhs = bracket(g, images[a], images[b])
            if lhs != rhs:
                return False
    return True


def _pair_bracket(g: LieAlgebra, a: int, b: int) -> list[Fraction]:
    n = g.dim
    out = [_ZERO] * (2 * n)
    if a < n and b < n:
        out[:n] = bracket_basis(g, a, b)
    elif a >= n and b >= n:
        out[n:] = bracket_basis(g, a - n, b - n)
    return out


# -- graded coalgebras -------------------------------------------------------

Label = tuple[int, int]  # a basis element: (degree, index)


@dataclass(frozen=True)
class GradedCoalgebra:
    """Graded vector space with product and coproduct in pinned bases.

    The matrices are the input format.  coproduct[r] maps H^r into the
    direct sum of H^i (x) H^{r-i} blocks, i ascending, left index major
    inside each block.  product[(p, q)] maps H^p (x) H^q (left major) to
    H^{p+q}, and is required for every p, q >= 0 with p + q <= top.  The
    counit is projection to degree 0, which must be one-dimensional for the
    Hopf machinery.  The checks do not apply the matrices: they read the
    sparse views `_delta` and `_mu`, decoded once from the matrices'
    columns, and the antipode `_antipode` built from them.
    """

    betti: tuple[int, ...]
    coproduct: tuple[RationalMatrix, ...]
    product: dict[tuple[int, int], RationalMatrix]

    def __post_init__(self):
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
        offs = [0]
        for i in range(r + 1):
            offs.append(offs[-1] + self.betti[i] * self.betti[r - i])
        return offs

    @cached_property
    def _delta(self) -> dict[Label, dict[tuple[Label, Label], Fraction]]:
        """D(x) = {(y, z): coeff} for every basis label x, read off coproduct[r]."""
        out = {}
        for r, m in enumerate(self.coproduct):
            pair_at = [((i, a), (r - i, b)) for i in range(r + 1)
                       for a in range(self.betti[i]) for b in range(self.betti[r - i])]
            for col in range(m.cols):
                out[(r, col)] = {pair_at[k]: v for k, v in enumerate(m.column(col)) if v}
        return out

    @cached_property
    def _mu(self) -> dict[tuple[Label, Label], dict[Label, Fraction]]:
        """x * y = {z: coeff} for every pair of basis labels a product matrix covers."""
        out = {}
        for (p, q), m in self.product.items():
            nb = self.betti[q]
            for col in range(m.cols):
                out[((p, col // nb), (q, col % nb))] = {
                    (p + q, k): v for k, v in enumerate(m.column(col)) if v}
        return out

    @cached_property
    def _antipode(self) -> dict[Label, dict[Label, Fraction]]:
        """S degree by degree from connectedness: S(x) = -x - sum S(x') x'' over
        the terms x' (x) x'' of D(x) with both factors in positive degree."""
        s: dict[Label, dict[Label, Fraction]] = {(0, 0): {(0, 0): _ONE}}
        for r in range(1, self.top + 1):
            for a in range(self.betti[r]):
                x = (r, a)
                s[x] = _lincomb([(x, -_ONE)] + [
                    (m, -v * t * u) for (y, z), v in self._delta[x].items() if 0 < y[0] < r
                    for k, t in s[y].items() for m, u in self._mu[(k, z)].items()])
        return s

    def coproduct_terms(self, r: int, coords) -> dict[tuple[int, int, int, int], Fraction]:
        """Sparse {(i, j, a, b): coeff} form of D(x) for x with given coords."""
        if len(coords) != self.betti[r]:
            raise ValueError("vector length mismatch")
        return _lincomb(((i, j, a, b), as_fraction(x) * v)
                        for col, x in enumerate(coords) if x
                        for ((i, a), (j, b)), v in self._delta[(r, col)].items())

    def multiply(self, p: int, q: int, u, v) -> list[Fraction]:
        """Product of elements of degrees p and q."""
        return self.product[(p, q)].apply([x * y for x in u for y in v])  # left index major


def _lincomb(terms) -> dict:
    """Sum (key, coeff) pairs into one sparse linear combination, zeros dropped."""
    acc: dict = {}
    for key, x in terms:
        acc[key] = acc.get(key, _ZERO) + x
    return {key: x for key, x in acc.items() if x}


def addition_coproduct(g: LieAlgebra) -> GradedCoalgebra:
    """The coproduct induced by vector addition on an abelian algebra.

    Cohomology is the exterior algebra on n degree-1 generators; basis
    p-classes are indexed lexicographically like exterior basis forms.
    """
    if not g.is_abelian():
        raise NotAbelianError("addition induces a coproduct only for abelian algebras")
    n = g.dim
    betti = tuple(comb(n, p) for p in range(n + 1))
    index_of = [{c: i for i, c in enumerate(combinations(range(n), p))}
                for p in range(n + 1)]
    labels = [list(combinations(range(n), p)) for p in range(n + 1)]
    # product: wedge with Koszul sign
    product = {}
    for p in range(n + 1):
        for q in range(n + 1 - p):
            pairs = []
            for a, lab_a in enumerate(labels[p]):
                for b, lab_b in enumerate(labels[q]):
                    merged = sort_sign(lab_a + lab_b)
                    if merged is None:
                        continue
                    sign, joined = merged
                    pairs.append(((index_of[p + q][joined], a * betti[q] + b), sign))
            product[(p, q)] = RationalMatrix.from_entries(betti[p + q], betti[p] * betti[q],
                                                          pairs)
    # coproduct: expand prod_{i in I} (w_i (x) 1 + 1 (x) w_i) with Koszul signs
    coproduct = []
    for r in range(n + 1):
        rows = sum(betti[i] * betti[r - i] for i in range(r + 1))
        offs = [0]
        for i in range(r + 1):
            offs.append(offs[-1] + betti[i] * betti[r - i])
        pairs = []
        for col, lab in enumerate(labels[r]):
            for term_sign, left, right in _shuffle_terms(lab):
                i = len(left)
                j = r - i
                a = index_of[i][left]
                b = index_of[j][right]
                pairs.append(((offs[i] + a * betti[j] + b, col), term_sign))
        coproduct.append(RationalMatrix.from_entries(rows, betti[r], pairs))
    return GradedCoalgebra(betti=betti, coproduct=tuple(coproduct), product=product)


def _shuffle_terms(lab: tuple[int, ...]):
    """Terms of prod_i (w_i (x) 1 + 1 (x) w_i) over increasing i in lab.

    Yields (sign, left_labels, right_labels); the sign is the Koszul sign
    picked up when a left factor crosses the right factors already placed.
    """
    terms = [(1, (), ())]
    for i in lab:
        new_terms = []
        for sign, left, right in terms:
            new_terms.append((sign * (-1) ** len(right), left + (i,), right))
            new_terms.append((sign, left, right + (i,)))
        terms = new_terms
    return terms


def primitives(c: GradedCoalgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Basis of {x : D(x) = x (x) 1 + 1 (x) x}, one tuple of vectors per degree."""
    if c.betti[0] != 1:
        raise ValueError("primitives need a one-dimensional degree-0 part")
    out: list[tuple[tuple[Fraction, ...], ...]] = [()]  # degree 0 has none
    for r in range(1, c.top + 1):
        dim_r = c.betti[r]
        offs = c.block_offsets(r)
        pairs = [((offs[r] + a, a), _ONE) for a in range(dim_r)]    # x (x) 1 in block (r, 0)
        pairs += [((offs[0] + a, a), _ONE) for a in range(dim_r)]   # 1 (x) x in block (0, r)
        expected = RationalMatrix.from_entries(offs[-1], dim_r, pairs)
        diff = c.coproduct[r] - expected
        out.append(tuple(tuple(v) for v in kernel_basis(diff)))
    return tuple(out)


@dataclass(frozen=True)
class HopfReport:
    counit: bool
    coassociative: bool
    algebra_morphism: bool
    antipode: bool

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


def verify_hopf(c: GradedCoalgebra) -> bool:
    """All graded-Hopf axioms: counit, coassociativity, multiplicativity of
    the coproduct, and existence of an antipode."""
    return hopf_axioms(c).ok


def _check_counit(c: GradedCoalgebra) -> bool:
    # (eps (x) id) D = id = (id (x) eps) D, eps reading off the degree-0 coefficient
    if c.betti[0] != 1:
        return False
    for x, dx in c._delta.items():
        left = _lincomb((z, v) for (y, z), v in dx.items() if y[0] == 0)
        right = _lincomb((y, v) for (y, z), v in dx.items() if z[0] == 0)
        if left != {x: _ONE} or right != {x: _ONE}:
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
    if c.betti[0] != 1 or delta[(0, 0)] != {((0, 0), (0, 0)): _ONE}:
        return False
    if any((p, q) not in c.product for p in range(c.top + 1) for q in range(c.top + 1 - p)):
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
        want = {(0, 0): _ONE} if x[0] == 0 else {}
        left = _lincomb((m, v * t * u) for (y, z), v in dx.items()
                        for k, t in s[y].items() for m, u in c._mu[(k, z)].items())
        right = _lincomb((m, v * t * u) for (y, z), v in dx.items()
                         for k, t in s[z].items() for m, u in c._mu[(y, k)].items())
        if left != want or right != want:
            return False
    return True


def antipode_matrices(c: GradedCoalgebra) -> tuple[RationalMatrix, ...] | None:
    """The degree-by-degree antipode, or None when the axioms fail."""
    if not verify_hopf(c):
        return None
    s = c._antipode
    return tuple(RationalMatrix.from_entries(n, n, (((k, a), t) for a in range(n)
                                                    for (_, k), t in s[(r, a)].items()))
                 for r, n in enumerate(c.betti))


def exterior_structure_check(betti) -> tuple[int, ...] | None:
    """Factor the Poincare polynomial as a product of (1 + t^d), d odd.

    Returns the generator degrees ascending, or None when no such
    factorization exists.
    """
    betti = list(betti)
    if not betti or betti[0] != 1:
        raise ValueError("need betti[0] = 1")
    poly = betti[:]
    while poly and poly[-1] == 0:
        poly.pop()
    degrees = []
    while poly != [1]:
        d = next((i for i in range(1, len(poly)) if poly[i]), None)
        if d is None or d % 2 == 0:
            return None
        divisor = [1] + [0] * (d - 1) + [1]
        quot, rem = _int_divmod(poly, divisor)
        if quot is None or rem:
            return None
        if any(x < 0 for x in quot) or not quot or quot[0] != 1:
            return None
        degrees.append(d)
        poly = quot
    return tuple(degrees)


def _int_divmod(p: list[int], q: list[int]) -> tuple[list[int] | None, bool]:
    # long division in Z[t] by a monic divisor; returns (quotient, nonzero_rem)
    rem = p[:]
    dq = len(q) - 1
    if len(rem) - 1 < dq:
        return None, True
    quot = [0] * (len(rem) - dq)
    for shift in range(len(rem) - dq - 1, -1, -1):
        c = rem[shift + dq]
        quot[shift] = c
        if c:
            for i in range(dq + 1):
                rem[shift + i] -= c * q[i]
    return quot, any(rem)


def ts1_coalgebra() -> GradedCoalgebra:
    """Cohomology coalgebra of the tangent algebroid of the circle.

    The stabilized Betti numbers are (1, 1); the degree-1 class is the
    translation-invariant form, and its coproduct is the primitive one:
    D[w] = [w] (x) 1 + 1 (x) [w].  Kept as a pinned regression.
    """
    line = LieAlgebra.make(1, {}, name="line")
    return addition_coproduct(line)
