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

One window operator, `field_matrix`, is the map u -> f u' that the field
f d/dt induces on windows, written from one closed product formula on
integer coefficient pairs.  A window complex cuts all its field blocks
from one per field, on the widest window, and `action_violation` applies
it to the fields, comparing phi_i phi_j' - phi_j phi_i' with
sum_k c^k_ij phi_k on integers.  `_integer_coords`, f as integer window
coordinates over their lcm, is the one denominator rule.  `TrigPoly` has
no arithmetic operators: fields are combined only on their integer
window coordinates, so `window_coords` alone states the coefficient layout.

A window differential is written by `liealg.form_columns`, the loop over
the source masks that writes every CE differential too; here each form
carries its window, and the windows of a degree sit one after another.
Each term of d(e^w) is placed on the inclusion of its windows, which is the
identity on the source window's coordinates since V_s's basis is a prefix
of V_t's.  Each e^i ^ e^w is placed on the integer columns of u -> phi_i u'
on the widest window, the first ones, as many as w's window has.  All terms
share one denominator, and the matrix constructor drops the cancelled
entries and reduces the columns once.

Window N is the subcomplex of any wider window spanned by the coordinates
whose harmonic fits, so `stabilized_cohomology` treats a sweep as one
filtered complex: the widest window, eliminated once with clearing by
`exactlinalg.pivot_levels`, which first checks d^2 = 0 and that the
windows nest; the pivot columns of level <= N number the ranks of window N.

Zero counting is exact.  Under u = tan(t/2) a degree-d f is P(u) / (1 + u^2)^d
(`weierstrass_numerator`); its zeros away from t = pi are the real roots of
P with their multiplicities, counted with one signed remainder sequence
(`polyroots`), and since f = v^(2d - deg P) times a unit near t = pi under
v = cot(t/2), the zero at t = pi has multiplicity 2d - deg P.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations
from math import lcm

from . import polyroots
from .errors import NonsimpleZeroError, ValidationError
from .exactlinalg import CochainComplex, CohomologyReport, RationalMatrix, as_fraction, \
    cohomology_from_ranks, common_columns, pivot_levels, require_cochain_budget
from .exterior import basis_masks
from .liealg import LieAlgebra, bracket_denominator, form_columns, require_jacobi

_ZERO = Fraction(0)


class TrigPoly:
    """constant + sum_k cos_coeffs[k-1] cos(kt) + sin_coeffs[k-1] sin(kt).

    The two coefficient tuples have equal length and the last pair is not
    both zero; use `make` to normalize raw data.
    """

    __slots__ = ("constant", "cos_coeffs", "sin_coeffs")

    def __init__(self, constant: Fraction = _ZERO, cos_coeffs: tuple[Fraction, ...] = (),
                 sin_coeffs: tuple[Fraction, ...] = ()):
        if len(cos_coeffs) != len(sin_coeffs):
            raise ValueError("cos and sin coefficient lists must have equal length")
        if cos_coeffs and not (cos_coeffs[-1] or sin_coeffs[-1]):
            raise ValueError("trailing zero harmonic; use TrigPoly.make")
        self.constant, self.cos_coeffs, self.sin_coeffs = constant, cos_coeffs, sin_coeffs

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.constant, self.cos_coeffs, self.sin_coeffs) == \
            (other.constant, other.cos_coeffs, other.sin_coeffs)

    def __hash__(self) -> int:
        return hash((self.constant, self.cos_coeffs, self.sin_coeffs))

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


def field_matrix(f: TrigPoly, src_m: int, tgt_m: int) -> RationalMatrix:
    """u -> f u' as a map V_src -> V_tgt; needs tgt >= src + deg f.

    The one home of the product rule and of d/dt.  With f = a / den
    (`_integer_coords`), a harmonic x cos ht + y sin ht of a (the constant is
    h = 0, y = 0) times u' = p cos bt + q sin bt, where (cos bt)' = -b sin bt
    and (sin bt)' = b cos bt, is

        ((xp + yq) cos(h-b)t + (yp - xq) sin(h-b)t
         + (xp - yq) cos(h+b)t + (yp + xq) sin(h+b)t) / 2,

    with cos(-kt) = cos kt and sin(-kt) = -sin kt.  So each entry is an
    integer over 2 den; the constructor drops those that cancel.  The loop
    costs per harmonic, so those with x = y = 0 are skipped: a sparse field
    near the degree cap would otherwise cost several times as much.
    """
    if tgt_m < src_m + f.deg:
        raise ValueError("target window too small for the product")
    a, den = _integer_coords(f)
    harmonics = [(h, x, y) for h, (x, y) in enumerate(zip([a[0], *a[1::2]], [0, *a[2::2]]))
                 if x or y]
    cols: list[dict[int, int]] = [{}]  # the constant's derivative is zero
    for b in range(1, src_m + 1):
        for p, q in ((0, -b), (b, 0)):  # the columns of cos bt and sin bt
            col: dict[int, int] = {}
            for h, x, y in harmonics:
                for k, c, s in ((h - b, x * p + y * q, y * p - x * q),
                                (h + b, x * p - y * q, y * p + x * q)):
                    if k < 0:
                        k, s = -k, -s
                    if c:  # cos kt is coordinate 2k - 1, and cos 0t = 1 is coordinate 0
                        r = max(2 * k - 1, 0)
                        col[r] = col.get(r, 0) + c
                    if s and k:  # sin kt is coordinate 2k, and sin 0t = 0
                        col[2 * k] = col.get(2 * k, 0) + s
            cols.append(col)
    return RationalMatrix(window_dim(tgt_m), window_dim(src_m), cols, 2 * den)


# -- algebroids --------------------------------------------------------------

class TruncatedComplex:
    """A window complex; `levels[p][i]` is the first N whose window holds
    coordinate i of degree p."""

    __slots__ = ("N", "complex", "levels")

    def __init__(self, N: int, complex: CochainComplex, levels: tuple[tuple[int, ...], ...]):
        if tuple(map(len, levels)) != tuple(complex.degrees):
            raise ValueError("need one level per coordinate of every degree")
        self.N, self.complex, self.levels = N, complex, levels


class ActionAlgebroid:
    """A Lie algebra acting on the circle through vector fields phi_i d/dt."""

    __slots__ = ("algebra", "phi")

    def __init__(self, algebra: LieAlgebra, phi: tuple[TrigPoly, ...]):
        self.algebra, self.phi = algebra, phi

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.algebra, self.phi) == (other.algebra, other.phi)

    def anchor_degree(self) -> int:
        return max((f.deg for f in self.phi), default=0)

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
        windows = [[n + d * (w & moving).bit_count() for w in basis_masks(g.dim, p)]
                   for p in range(g.dim + 1)]
        fibers = [list(map(window_dim, ws)) for ws in windows]
        offsets = [[0, *accumulate(fibs)] for fibs in fibers]
        degrees = tuple(offs[-1] for offs in offsets)
        # e^i ^ e^w moves a nonzero field's slot: u -> phi_i u' from V_ws to V_{ws+d},
        # ws = n + d s for s < m moving slots.  V_ws's basis is a prefix of the widest
        # window's and phi_i u' lies in V_{ws+d}, so the block of ws is the widest one's
        # first window_dim(ws) columns, which form_columns takes.  Those blocks and the
        # brackets set the denominator.
        fields = [i for i, f in enumerate(self.phi) if not f.is_zero()]
        widest = n + d * (moving.bit_count() - 1)
        den, wide = common_columns([field_matrix(self.phi[i], widest, widest + d)
                                    for i in fields], bracket_denominator(g))
        blocks = [(i, [(b, col) for b, col in enumerate(cols) if col])
                  for i, cols in zip(fields, wide)]
        diffs = tuple(RationalMatrix(
            degrees[p + 1], degrees[p],
            form_columns(g, p, den, fibers[p], (offsets[p], offsets[p + 1]), (1, 1), blocks,
                         degrees[p]), den) for p in range(g.dim))
        # Window coordinate j holds harmonic ceil(j/2); in a form of window w it
        # enters at N = that - (w - n).
        levels = tuple(tuple(max(0, (j + 1) // 2 - (w - n)) for w in ws
                             for j in range(window_dim(w))) for ws in windows)
        return TruncatedComplex(N=n, complex=CochainComplex(degrees, diffs), levels=levels)


class Rank1Anchor(ActionAlgebroid):
    """Line bundle over the circle anchored by f d/dt -> p * f' d/dt.

    This is the action algebroid of the line acting through the one vector
    field p d/dt, so its windows, degree and transitivity test are the
    action algebroid's.
    """

    __slots__ = ()

    def __init__(self, p: TrigPoly):
        super().__init__(LieAlgebra(1), (p,))

    @property
    def p(self) -> TrigPoly:
        return self.phi[0]


def action_violation(a: ActionAlgebroid) -> tuple[int, int] | None:
    """First basis pair i < j, in lexicographic order, with [phi_i, phi_j]
    != sum_k c^k_{ij} phi_k, or None; needs one phi per basis vector.  With
    phi_k = a_k / q on V_d (d the top degree), B_k / den the columns of
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
    den, blocks = common_columns([field_matrix(a.phi[k], d, 2 * d) for k in coords])
    fields = dict(zip(coords, blocks))
    bden = bracket_denominator(g)
    table = {(i, j): terms for i, j, terms in g.brackets}
    for i, j in combinations(range(g.dim), 2):
        acc = [0] * window_dim(2 * d)
        if i in fields and j in fields:
            for cols, u, factor in ((fields[i], coords[j], bden), (fields[j], coords[i], -bden)):
                for col, y in zip(cols, u):
                    for r, x in col.items():
                        acc[r] += factor * x * y
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


def is_transitive(a: ActionAlgebroid) -> bool:
    """Exact surjectivity test for the anchor: at t it is onto iff some
    phi_i(t) != 0, so no zero may be shared by all the fields, found through
    the gcd of their half-angle numerators."""
    return not has_zero_on_circle(*a.phi)


class SweepResult:
    __slots__ = ("report", "per_n", "stabilized")

    def __init__(self, report: CohomologyReport, per_n: tuple[tuple[int, tuple[int, ...]], ...],
                 stabilized: bool):
        self.report, self.per_n, self.stabilized = report, per_n, stabilized


def stabilized_cohomology(a, n_min: int, n_max: int) -> SweepResult:
    """Sweep windows N = n_min..n_max and demand three equal Betti vectors.

    Only window n_max is assembled and validated; window N is its
    subcomplex of coordinates of level <= N.  `pivot_levels` checks d^2 = 0
    and that nesting, then eliminates the complex once with clearing, and
    rank d_p on window N is the number of its pivot columns of level <= N.

    A sweep whose last three windows disagree is returned with `stabilized`
    off and the Betti numbers of the widest window; the caller decides
    whether that is an error.
    """
    if n_min < 0 or n_max < n_min + 2:
        raise ValueError("need three nonnegative windows: 0 <= n_min and n_max >= n_min + 2")
    tc = a._truncated_complex(n_max)
    pivots = [sorted(pv) for pv in pivot_levels(tc.complex, tc.levels)]
    levels = [sorted(lv) for lv in tc.levels]
    reports = [cohomology_from_ranks([bisect_right(lv, n) for lv in levels],
                                     [bisect_right(pv, n) for pv in pivots])
               for n in range(n_min, n_max + 1)]
    per_n = [(n, rep.betti) for n, rep in zip(range(n_min, n_max + 1), reports)]
    return SweepResult(report=reports[-1], per_n=tuple(per_n),
                       stabilized=len({b for _, b in per_n[-3:]}) == 1)
