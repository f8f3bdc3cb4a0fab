"""Trigonometric polynomials over Q and Fourier-truncated complexes on the
circle.

The window V_m is the span of {1, cos t, sin t, ..., cos mt, sin mt}, of
dimension 2m + 1, with that basis order pinned.  V_m is closed under d/dt
and multiplication by a degree-d trig polynomial lands in V_{m+d}.  For an
action algebroid whose fields have top degree d, a basis form lives on
V_{N + d*s}, s counting its slots whose field is nonzero, or all its slots
when the zero fields span no subalgebra.  Every differential then maps
exactly into the next windows and d^2 = 0 holds on the nose, not
approximately.  A product with a Lie algebra is built the same way.

One window operator, `field_matrix`, holds the product-to-sum table and
d/dt: u -> f u' is one matrix, the map the field f d/dt induces on windows.
The window complexes place it as their field blocks, and `action_violation`
applies it to the fields, comparing phi_i phi_j' - phi_j phi_i' with
sum_k c^k_ij phi_k on integers.  `_integer_coords`, f as integer window
coordinates over their lcm, is the one denominator rule.  `TrigPoly` has
no arithmetic operators: fields are combined only on their integer window
coordinates, so `window_coords` alone states the coefficient layout.

A window differential is written row by row from one loop over the source
masks, as `liealg` writes a CE differential.  Each term of d(e^w), from
`liealg.bracket_terms`, is placed on the inclusion of its windows, which is
the identity on the source window's coordinates since V_s's basis is a
prefix of V_t's.  Each e^i ^ e^w is placed on the integer rows of
u -> phi_i u'.  All terms share one denominator and are reduced once.

Window N is the subcomplex of any wider window spanned by the coordinates
whose harmonic fits, so `stabilized_cohomology` treats a sweep as one
filtered complex: the widest window, checked once for d^2 = 0 and then
eliminated once with clearing (`exactlinalg.pivot_levels`, which needs that
check); the pivot rows of level <= N number the ranks of window N.

Zero counting is exact.  Under u = tan(t/2) a degree-d f is P(u) / (1 + u^2)^d
(`weierstrass_numerator`); its zeros away from t = pi are the real roots of
P with their multiplicities, counted with one signed remainder sequence
(`polyroots`), and since f = v^(2d - deg P) times a unit near t = pi under
v = cot(t/2), the zero at t = pi has multiplicity 2d - deg P.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations
from math import lcm

from . import polyroots
from .errors import ChainConditionError, NonsimpleZeroError, ValidationError
from .exactlinalg import CochainComplex, CohomologyReport, RationalMatrix, _reduced, \
    as_fraction, cohomology_from_ranks, common_rows, pivot_levels, require_cochain_budget
from .exterior import basis_index, basis_masks
from .liealg import LieAlgebra, bracket_denominator, bracket_terms, require_jacobi

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TrigPoly:
    """constant + sum_k cos_coeffs[k-1] cos(kt) + sin_coeffs[k-1] sin(kt).

    The two coefficient tuples have equal length and the last pair is not
    both zero; use `make` to normalize raw data.
    """

    constant: Fraction = _ZERO
    cos_coeffs: tuple[Fraction, ...] = ()
    sin_coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if len(self.cos_coeffs) != len(self.sin_coeffs):
            raise ValueError("cos and sin coefficient lists must have equal length")
        if self.cos_coeffs and not (self.cos_coeffs[-1] or self.sin_coeffs[-1]):
            raise ValueError("trailing zero harmonic; use TrigPoly.make")

    @classmethod
    def make(cls, constant=0, cos_coeffs=(), sin_coeffs=()) -> "TrigPoly":
        cos_list = [as_fraction(x) for x in cos_coeffs]
        sin_list = [as_fraction(x) for x in sin_coeffs]
        n = max(len(cos_list), len(sin_list))
        cos_list += [_ZERO] * (n - len(cos_list))
        sin_list += [_ZERO] * (n - len(sin_list))
        while cos_list and not cos_list[-1] and not sin_list[-1]:
            cos_list.pop()
            sin_list.pop()
        return cls(as_fraction(constant), tuple(cos_list), tuple(sin_list))

    @classmethod
    def const(cls, c) -> "TrigPoly":
        return cls.make(constant=c)

    @classmethod
    def cos(cls, k: int, coeff=1) -> "TrigPoly":
        if k <= 0:
            raise ValueError("harmonic index must be positive")
        return cls.make(cos_coeffs=[0] * (k - 1) + [coeff], sin_coeffs=[0] * k)

    @classmethod
    def sin(cls, k: int, coeff=1) -> "TrigPoly":
        if k <= 0:
            raise ValueError("harmonic index must be positive")
        return cls.make(cos_coeffs=[0] * k, sin_coeffs=[0] * (k - 1) + [coeff])

    @property
    def deg(self) -> int:
        return len(self.cos_coeffs)

    def is_zero(self) -> bool:
        return not self.constant and not self.cos_coeffs

    def cos_coeff(self, k: int) -> Fraction:
        if k == 0:
            return self.constant
        return self.cos_coeffs[k - 1] if k <= self.deg else _ZERO

    def sin_coeff(self, k: int) -> Fraction:
        if k == 0:
            return _ZERO
        return self.sin_coeffs[k - 1] if k <= self.deg else _ZERO


def weierstrass_numerator(f: TrigPoly) -> list[Fraction]:
    """P with f(t) = P(u) / (1+u^2)^deg under u = tan(t/2), trimmed.

    C_k = (1+u^2)^k cos kt and S_k = (1+u^2)^k sin kt come from C_0 = 1,
    S_0 = 0 by angle addition, C_{k+1} + i S_{k+1} = (C_k + i S_k)(1 - u^2 + 2iu),
    and P is Horner's rule in 1 + u^2 over T_k = a_k C_k + b_k S_k: O(deg^2)
    integer operations on f's coefficients times their lcm denominator.
    """
    a, den = _integer_coords(f)
    c, s, p = [1], [0], [a[0]]
    for k in range(1, f.deg + 1):
        # Pad by two on both sides: index i + 2 is u^i, i + 1 is u^(i-1), i is u^(i-2).
        cp, sp, pp = [0, 0, *c, 0, 0], [0, 0, *s, 0, 0], [0, 0, *p, 0, 0]
        c = [cp[i + 2] - cp[i] - 2 * sp[i + 1] for i in range(2 * k + 1)]
        s = [sp[i + 2] - sp[i] + 2 * cp[i + 1] for i in range(2 * k + 1)]
        ak, bk = a[2 * k - 1], a[2 * k]
        p = [pp[i + 2] + pp[i] + ak * c[i] + bk * s[i] for i in range(2 * k + 1)]
    while p and not p[-1]:
        p.pop()
    return [Fraction(x, den) for x in p]


def has_zero_on_circle(*fs: TrigPoly) -> bool:
    """True iff the fs share a zero on the circle: all vanish at t = pi (zero
    inputs included), or the gcd of their numerators has a real root."""
    ps = [weierstrass_numerator(f) for f in fs]
    if all(len(p) - 1 < 2 * f.deg for f, p in zip(fs, ps)):  # all vanish at pi
        return True
    g = reduce(polyroots.poly_gcd, ps, [])
    return len(g) > 1 and polyroots.count_real_roots(g) > 0


def count_simple_zeros(f: TrigPoly) -> int:
    """Number of zeros of f on the circle, all required to be simple.

    Raises NonsimpleZeroError when some zero is also a zero of f', and
    ValueError for the identically zero input.
    """
    if f.is_zero():
        raise ValueError("zero trig polynomial")
    p = weierstrass_numerator(f)
    at_pi = 2 * f.deg - (len(p) - 1)  # the multiplicity of the zero at pi
    if at_pi > 1:
        raise NonsimpleZeroError("zero of f at t = pi is not simple")
    count = polyroots.simple_real_root_count(p)
    if count is None:
        raise NonsimpleZeroError("f has a repeated zero on the circle")
    return count + at_pi


# -- windows -----------------------------------------------------------------

def window_dim(m: int) -> int:
    return 2 * m + 1


def window_coords(f: TrigPoly, m: int) -> list[Fraction]:
    """f in the basis 1, cos t, sin t, ..., cos mt, sin mt of V_m."""
    if f.deg > m:
        raise ValueError(f"degree {f.deg} exceeds window V_{m}")
    return [f.constant, *chain.from_iterable(zip(f.cos_coeffs, f.sin_coeffs)),
            *[_ZERO] * (2 * (m - f.deg))]


def _integer_coords(f: TrigPoly) -> tuple[list[int], int]:
    """(a, den): f's coordinates on V_{deg f} are a / den, with den the lcm of
    their denominators."""
    coords = window_coords(f, f.deg)
    den = lcm(*[x.denominator for x in coords])
    return [x.numerator * (den // x.denominator) for x in coords], den


_COS, _SIN = "cos", "sin"


def _harmonic(i: int) -> tuple[str, int]:
    """(kind, k) of window coordinate i; the constant is cos 0t."""
    return (_SIN, i // 2) if i and i % 2 == 0 else (_COS, (i + 1) // 2)


def _coordinate(kind: str, k: int) -> tuple[int, int]:
    """(window coordinate, sign) of cos kt or sin kt for any integer k:
    cos(-kt) = cos kt, sin(-kt) = -sin kt, and sin 0t = 0 has sign 0."""
    if kind == _COS:
        return max(2 * abs(k) - 1, 0), 1
    return 2 * abs(k), (k > 0) - (k < 0)


# Product-to-sum rules: (kind of a, kind of b) -> (kind of the result, sign of
# its (a-b) term, sign of its (a+b) term), each term carrying a factor 1/2.
_PRODUCT_TO_SUM = {
    (_COS, _COS): (_COS, 1, 1),   # cos a cos b = (cos(a-b) + cos(a+b)) / 2
    (_SIN, _SIN): (_COS, 1, -1),  # sin a sin b = (cos(a-b) - cos(a+b)) / 2
    (_SIN, _COS): (_SIN, 1, 1),   # sin a cos b = (sin(a-b) + sin(a+b)) / 2
    (_COS, _SIN): (_SIN, -1, 1),  # cos a sin b = (sin(a+b) - sin(a-b)) / 2
}


def field_matrix(f: TrigPoly, src_m: int, tgt_m: int) -> RationalMatrix:
    """u -> f u' as a map V_src -> V_tgt; needs tgt >= src + deg f.

    Entries come straight from the product-to-sum table, one pass per nonzero
    harmonic of f over the basis functions' nonzero derivatives: the one home
    of the product rule and of d/dt.  Each term is an integer over 2 den, with
    f = a / den (`_integer_coords`).
    """
    if tgt_m < src_m + f.deg:
        raise ValueError("target window too small for the product")
    a, den = _integer_coords(f)
    # (column, kind, harmonic, factor) of each basis function's nonzero derivative:
    # cos bt -> -b sin bt, sin bt -> b cos bt
    basis = [(j, _SIN, b, -b) if kind == _COS else (j, _COS, b, b)
             for j in range(1, window_dim(src_m)) for kind, b in [_harmonic(j)]]
    rows: list[dict[int, int]] = [{} for _ in range(window_dim(tgt_m))]
    for i, x in enumerate(a):
        if not x:
            continue
        f_kind, h = _harmonic(i)
        for j, b_kind, b, scale in basis:
            kind, diff_sign, sum_sign = _PRODUCT_TO_SUM[f_kind, b_kind]
            for k, sign in ((h - b, diff_sign), (h + b, sum_sign)):
                row, k_sign = _coordinate(kind, k)
                if k_sign:
                    rows[row][j] = rows[row].get(j, 0) + x * sign * k_sign * scale
    return RationalMatrix._wrap(window_dim(tgt_m), window_dim(src_m), *_reduced(
        [{j: y for j, y in row.items() if y} for row in rows], 2 * den))


# -- algebroids --------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedComplex:
    """A window complex; `levels[p][i]` is the first N whose window holds
    coordinate i of degree p."""

    N: int
    complex: CochainComplex
    levels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(map(len, self.levels)) != tuple(self.complex.degrees):
            raise ValueError("need one level per coordinate of every degree")


@dataclass(frozen=True)
class ActionAlgebroid:
    """A Lie algebra acting on the circle through vector fields phi_i d/dt."""

    algebra: LieAlgebra
    phi: tuple[TrigPoly, ...]

    def anchor_degree(self) -> int:
        return max((f.deg for f in self.phi), default=0)

    def _is_transitive(self) -> bool:
        # The anchor at t is surjective iff some phi_i(t) != 0.
        return not has_zero_on_circle(*self.phi)

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        if n < 0:
            raise ValueError("window index must be nonnegative")
        g, d = self.algebra, self.anchor_degree()
        # A form lives on V_{N + d * (its moving slots)}.  A zero field's slot does not
        # move when the zero fields span a subalgebra: then no term of d(e^k), k moving,
        # has two fixed slots, so no CE term narrows a window.  Otherwise all slots move.
        zero = {i for i, f in enumerate(self.phi) if f.is_zero()}
        if any(i in zero and j in zero and any(k not in zero for k, _ in terms)
               for i, j, terms in g.brackets):
            zero = set()
        moving = sum(1 << i for i in range(g.dim) if i not in zero)
        require_cochain_budget(2 * n + 1 + d * moving.bit_count(), g.dim,
                               f"the window-{n} complex")
        if len(self.phi) != g.dim:
            raise ValidationError("need one vector field per basis vector")
        require_jacobi(g)
        if not check_action(self):
            raise ValidationError("vector fields do not represent the bracket "
                                  f"on basis pair {action_violation(self)}")
        masks = [basis_masks(g.dim, p) for p in range(g.dim + 1)]
        windows = [[n + d * (w & moving).bit_count() for w in ws] for ws in masks]
        offsets = [[0, *accumulate(map(window_dim, ws))] for ws in windows]
        degrees = tuple(offs[-1] for offs in offsets)
        # One denominator: the brackets' and 2 lcm(each field's), over which
        # `field_matrix` writes its terms.
        fields = [(i, f) for i, f in enumerate(self.phi) if not f.is_zero()]
        den = lcm(bracket_denominator(g), *[2 * _integer_coords(f)[1] for _, f in fields])
        d_triv = bracket_terms(g, den)
        blocks = {}  # (i, ws) -> integer rows over den of u -> phi_i u', V_ws -> V_{ws+d}
        diffs = []
        for p in range(g.dim):
            tgt, row_offsets = basis_index(g.dim, p + 1), offsets[p + 1]
            out: list[dict[int, int]] = [{} for _ in range(degrees[p + 1])]
            for src, w in enumerate(masks[p]):
                ws, c0 = windows[p][src], offsets[p][src]
                # Each term of d(e^w) times the inclusion of V_ws, the identity on its
                # coordinates: they are a prefix of the target window's.
                for r, v in d_triv(w, tgt).items():
                    for c in range(window_dim(ws)):
                        row = out[row_offsets[r] + c]
                        row[c0 + c] = row.get(c0 + c, 0) + v
                # e^i ^ e^w times u -> phi_i u'; the slot of a nonzero field moves.
                for i, f in fields:
                    if w >> i & 1:
                        continue
                    if (i, ws) not in blocks:
                        blocks[i, ws] = common_rows([field_matrix(f, ws, ws + d)], den)[1][0]
                    sign = -1 if (w & ((1 << i) - 1)).bit_count() & 1 else 1
                    r0 = row_offsets[tgt[w | 1 << i]]
                    for a, block_row in enumerate(blocks[i, ws]):
                        row = out[r0 + a]
                        for c, x in block_row.items():
                            row[c0 + c] = row.get(c0 + c, 0) + sign * x
            diffs.append(RationalMatrix._wrap(degrees[p + 1], degrees[p], *_reduced(
                [{j: x for j, x in row.items() if x} for row in out], den)))
        # Window coordinate j holds harmonic ceil(j/2); in a form of window w it
        # enters at N = that - (w - n).
        levels = tuple(tuple(max(0, (j + 1) // 2 - (w - n)) for w in ws
                             for j in range(window_dim(w))) for ws in windows)
        return TruncatedComplex(N=n, complex=CochainComplex(degrees, tuple(diffs)), levels=levels)


@dataclass(frozen=True, init=False)
class Rank1Anchor(ActionAlgebroid):
    """Line bundle over the circle anchored by f d/dt -> p * f' d/dt.

    This is the action algebroid of the line acting through the one vector
    field p d/dt, so its windows, degree and transitivity test are the
    action algebroid's.
    """

    def __init__(self, p: TrigPoly):
        super().__init__(LieAlgebra(1), (p,))

    @property
    def p(self) -> TrigPoly:
        return self.phi[0]


def action_violation(a: ActionAlgebroid) -> tuple[int, int] | None:
    """First basis pair i < j, in lexicographic order, with [phi_i, phi_j]
    != sum_k c^k_{ij} phi_k, or None; needs one phi per basis vector.  With
    phi_k = a_k / q on V_d (d the top degree), B_k / den the rows of
    u -> phi_k u' into V_2d, built once per nonzero field, and bden the
    brackets' lcm, it compares bden (B_i a_j - B_j a_i) with
    den sum_k bden c^k_ij a_k on integers."""
    g, d = a.algebra, a.anchor_degree()
    if g.dim < 2:
        return None
    ints = {k: _integer_coords(f) for k, f in enumerate(a.phi) if not f.is_zero()}
    q = lcm(*[den for _, den in ints.values()])
    coords = {k: [x * (q // den) for x in ak] + [0] * (window_dim(d) - len(ak))
              for k, (ak, den) in ints.items()}
    den, blocks = common_rows([field_matrix(a.phi[k], d, 2 * d) for k in coords])
    fields = dict(zip(coords, blocks))
    bden = bracket_denominator(g)
    table = {(i, j): terms for i, j, terms in g.brackets}
    for i, j in combinations(range(g.dim), 2):
        acc = [0] * window_dim(2 * d)
        if i in fields and j in fields:
            for rows, u, factor in ((fields[i], coords[j], bden), (fields[j], coords[i], -bden)):
                for r, row in enumerate(rows):
                    acc[r] += factor * sum(x * u[c] for c, x in row.items())
        for k, c in table.get((i, j), ()):
            if k in coords:
                v = den * c.numerator * (bden // c.denominator)
                for r, x in enumerate(coords[k]):
                    acc[r] -= v * x
        if any(acc):
            return (i, j)
    return None


def check_action(a: ActionAlgebroid) -> bool:
    """True iff [phi_i, phi_j] = sum_k c^k_{ij} phi_k for all i < j."""
    return len(a.phi) == a.algebra.dim and action_violation(a) is None


def truncated_complex(a, n: int) -> TruncatedComplex:
    """Window-N complex of a circle algebroid (an action algebroid, rank-1 anchors
    and products with Lie algebras included)."""
    return a._truncated_complex(n)


def is_transitive(a) -> bool:
    """Exact surjectivity test for the anchor: no zero shared by all its fields,
    found through the gcd of their half-angle numerators."""
    return a._is_transitive()


@dataclass(frozen=True)
class SweepResult:
    report: CohomologyReport
    per_n: tuple[tuple[int, tuple[int, ...]], ...]
    stabilized: bool


def stabilized_cohomology(a, n_min: int, n_max: int) -> SweepResult:
    """Sweep windows N = n_min..n_max and demand three equal Betti vectors.

    Only window n_max is assembled, validated and checked for d^2 = 0;
    window N is its subcomplex of coordinates of level <= N, and a nonzero
    entry from a column into a row of a later level raises ValidationError.
    The complex is then eliminated once with clearing (`pivot_levels`), and
    rank d_p on window N is the number of its pivot rows of level <= N.

    A sweep whose last three windows disagree is returned with `stabilized`
    off and the Betti numbers of the widest window; the caller decides
    whether that is an error.
    """
    if n_min < 0 or n_max < n_min + 2:
        raise ValueError("need three nonnegative windows: 0 <= n_min and n_max >= n_min + 2")
    tc = a._truncated_complex(n_max)
    defect = tc.complex.chain_defect()
    if defect is not None:
        raise ChainConditionError(defect)
    for p, d in enumerate(tc.complex.differentials):
        rows, cols = tc.levels[p + 1], tc.levels[p]
        for i, j in d.nonzero_positions():
            if rows[i] > cols[j]:
                raise ValidationError(f"windows are not nested: d_{p} maps column {j} "
                                      f"(level {cols[j]}) into row {i} (level {rows[i]})")
    pivots = [sorted(pv) for pv in pivot_levels(tc.complex, tc.levels)]
    levels = [sorted(lv) for lv in tc.levels]
    reports = [cohomology_from_ranks([bisect_right(lv, n) for lv in levels],
                                     [bisect_right(pv, n) for pv in pivots])
               for n in range(n_min, n_max + 1)]
    per_n = [(n, rep.betti) for n, rep in zip(range(n_min, n_max + 1), reports)]
    return SweepResult(report=reports[-1], per_n=tuple(per_n),
                       stabilized=len({b for _, b in per_n[-3:]}) == 1)
