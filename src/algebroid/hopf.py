"""H-structures on Lie algebras and the Hopf structure of cohomology.

For a Lie algebra over a point the only candidate multiplication with the
zero vector as unit is vector addition, and addition is a morphism of Lie
algebras exactly when the bracket vanishes.  When it does, cohomology is
the full exterior algebra and pulling back along addition gives the
coproduct

    D(w) = w (x) 1 + 1 (x) w          on degree-1 classes,

extended multiplicatively with Koszul signs.  `GradedCoalgebra` stores the
coproduct and product in matrix form so every Hopf axiom is a finite exact
check; the antipode is rebuilt degree by degree from connectedness and
then verified on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import NotAbelianError
from .exactlinalg import RationalMatrix, kernel_basis
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
    images = [h.matrix.apply(_pair_basis(n, a)) for a in range(2 * n)]
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            lhs = h.matrix.apply(_pair_bracket(g, a, b))
            rhs = bracket(g, images[a], images[b])
            if lhs != rhs:
                return False
    return True


def _pair_basis(n: int, a: int) -> list[Fraction]:
    v = [_ZERO] * (2 * n)
    v[a] = _ONE
    return v


def _pair_bracket(g: LieAlgebra, a: int, b: int) -> list[Fraction]:
    n = g.dim
    out = [_ZERO] * (2 * n)
    if a < n and b < n:
        out[:n] = bracket_basis(g, a, b)
    elif a >= n and b >= n:
        out[n:] = bracket_basis(g, a - n, b - n)
    return out


# -- graded coalgebras -------------------------------------------------------

@dataclass(frozen=True)
class GradedCoalgebra:
    """Graded vector space with product and coproduct in pinned bases.

    coproduct[r] maps H^r into the direct sum of H^i (x) H^{r-i} blocks,
    i ascending, left index major inside each block.  product[(p, q)] maps
    H^p (x) H^q (left major) to H^{p+q}.  The counit is projection to
    degree 0, which must be one-dimensional for the Hopf machinery.
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

    @property
    def top(self) -> int:
        return len(self.betti) - 1

    def block_offsets(self, r: int) -> list[int]:
        offs = [0]
        for i in range(r + 1):
            offs.append(offs[-1] + self.betti[i] * self.betti[r - i])
        return offs

    def coproduct_terms(self, r: int, coords) -> dict[tuple[int, int, int, int], Fraction]:
        """Sparse {(i, j, a, b): coeff} form of D(x) for x with given coords."""
        image = self.coproduct[r].apply(coords)
        offs = self.block_offsets(r)
        out = {}
        for i in range(r + 1):
            j = r - i
            nb = self.betti[j]
            base = offs[i]
            for a in range(self.betti[i]):
                for b in range(nb):
                    v = image[base + a * nb + b]
                    if v:
                        out[(i, j, a, b)] = v
        return out

    def multiply(self, p: int, q: int, u, v) -> list[Fraction]:
        """Product of elements of degrees p and q."""
        m = self.product[(p, q)]
        nb = self.betti[q]
        coords = [_ZERO] * (self.betti[p] * nb)
        for a, x in enumerate(u):
            if not x:
                continue
            for b, y in enumerate(v):
                if y:
                    coords[a * nb + b] = x * y
        return m.apply(coords)


def _basis_vec(n: int, i: int) -> list[Fraction]:
    v = [_ZERO] * n
    v[i] = _ONE
    return v


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
    if c.betti[0] != 1:
        return False
    for r in range(c.top + 1):
        for a in range(c.betti[r]):
            terms = c.coproduct_terms(r, _basis_vec(c.betti[r], a))
            left = [_ZERO] * c.betti[r]   # (eps (x) id) D
            right = [_ZERO] * c.betti[r]  # (id (x) eps) D
            for (i, j, aa, bb), v in terms.items():
                if i == 0:
                    left[bb] += v
                if j == 0:
                    right[aa] += v
            want = _basis_vec(c.betti[r], a)
            if left != want or right != want:
                return False
    return True


def _check_coassociative(c: GradedCoalgebra) -> bool:
    for r in range(c.top + 1):
        for col in range(c.betti[r]):
            terms = c.coproduct_terms(r, _basis_vec(c.betti[r], col))
            lhs: dict = {}
            rhs: dict = {}
            for (i, j, a, b), v in terms.items():
                for (i1, i2, a1, a2), w in c.coproduct_terms(i, _basis_vec(c.betti[i], a)).items():
                    key = (i1, i2, j, a1, a2, b)
                    lhs[key] = lhs.get(key, _ZERO) + v * w
                for (j1, j2, b1, b2), w in c.coproduct_terms(j, _basis_vec(c.betti[j], b)).items():
                    key = (i, j1, j2, a, b1, b2)
                    rhs[key] = rhs.get(key, _ZERO) + v * w
            if _clean(lhs) != _clean(rhs):
                return False
    return True


def _check_algebra_morphism(c: GradedCoalgebra) -> bool:
    # D(1) = 1 (x) 1
    unit_terms = _clean(c.coproduct_terms(0, [_ONE]))
    if unit_terms != {(0, 0, 0, 0): _ONE}:
        return False
    for p in range(c.top + 1):
        for q in range(c.top + 1 - p):
            if (p, q) not in c.product:
                return False
            for a in range(c.betti[p]):
                for b in range(c.betti[q]):
                    xy = c.multiply(p, q, _basis_vec(c.betti[p], a), _basis_vec(c.betti[q], b))
                    lhs = _clean(c.coproduct_terms(p + q, xy))
                    rhs: dict = {}
                    dx = c.coproduct_terms(p, _basis_vec(c.betti[p], a))
                    dy = c.coproduct_terms(q, _basis_vec(c.betti[q], b))
                    for (i1, j1, a1, b1), v in dx.items():
                        for (i2, j2, a2, b2), w in dy.items():
                            sign = -1 if (j1 * i2) % 2 else 1
                            lv = c.multiply(i1, i2, _basis_vec(c.betti[i1], a1),
                                            _basis_vec(c.betti[i2], a2))
                            rv = c.multiply(j1, j2, _basis_vec(c.betti[j1], b1),
                                            _basis_vec(c.betti[j2], b2))
                            for aa, x in enumerate(lv):
                                if not x:
                                    continue
                                for bb, y in enumerate(rv):
                                    if y:
                                        key = (i1 + i2, j1 + j2, aa, bb)
                                        rhs[key] = rhs.get(key, _ZERO) + sign * v * w * x * y
                    if lhs != _clean(rhs):
                        return False
    return True


def _build_antipode(c: GradedCoalgebra) -> list[RationalMatrix]:
    """S degree by degree from connectedness: S(x) = -x - sum S(x') x'' over
    the terms x' (x) x'' of D(x) with both factors in positive degree."""
    s_mats: list[RationalMatrix] = [RationalMatrix.identity(1)]
    for r in range(1, c.top + 1):
        pairs = []
        for a in range(c.betti[r]):
            acc = [-x for x in _basis_vec(c.betti[r], a)]
            terms = c.coproduct_terms(r, _basis_vec(c.betti[r], a))
            for (i, j, aa, bb), v in terms.items():
                if i == 0 or i == r:
                    continue
                sa = s_mats[i].apply(_basis_vec(c.betti[i], aa))
                prod = c.multiply(i, j, sa, _basis_vec(c.betti[j], bb))
                acc = [x - v * y for x, y in zip(acc, prod)]
            pairs += [((k, a), x) for k, x in enumerate(acc)]
        s_mats.append(RationalMatrix.from_entries(c.betti[r], c.betti[r], pairs))
    return s_mats


def _check_antipode(c: GradedCoalgebra) -> bool:
    """Build S from connectedness, then verify both antipode identities."""
    s_mats = _build_antipode(c)
    # verify m(S (x) id) D = eps * unit = m(id (x) S) D on every basis vector
    for r in range(c.top + 1):
        for a in range(c.betti[r]):
            want = [_ONE] if r == 0 else [_ZERO] * c.betti[r]
            terms = c.coproduct_terms(r, _basis_vec(c.betti[r], a))
            left = [_ZERO] * c.betti[r]
            right = [_ZERO] * c.betti[r]
            for (i, j, aa, bb), v in terms.items():
                sa = s_mats[i].apply(_basis_vec(c.betti[i], aa))
                prod = c.multiply(i, j, sa, _basis_vec(c.betti[j], bb))
                left = [x + v * y for x, y in zip(left, prod)]
                sb = s_mats[j].apply(_basis_vec(c.betti[j], bb))
                prod = c.multiply(i, j, _basis_vec(c.betti[i], aa), sb)
                right = [x + v * y for x, y in zip(right, prod)]
            if left != want or right != want:
                return False
    return True


def antipode_matrices(c: GradedCoalgebra) -> tuple[RationalMatrix, ...] | None:
    """The degree-by-degree antipode, or None when the axioms fail."""
    if not verify_hopf(c):
        return None
    return tuple(_build_antipode(c))


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


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
