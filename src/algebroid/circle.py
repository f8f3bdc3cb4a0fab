"""Trigonometric polynomials over Q and Fourier-truncated complexes on the
circle.

The window V_m is the span of {1, cos t, sin t, ..., cos mt, sin mt}, of
dimension 2m + 1, with that basis order pinned.  V_m is closed under d/dt
and multiplication by a degree-d trig polynomial lands in V_{m+d}, so for
an algebroid whose anchor data has top degree d the degree-p cochains live
on (forms) (x) V_{N + p*d}; every differential then maps exactly into the
next window and d^2 = 0 holds on the nose, not approximately.

Each harmonic rule is written once, as a window matrix: `multiplication_matrix`
holds the product-to-sum table and `derivative_matrix` holds d/dt.
`trig_mul` and `trig_derivative` apply those matrices to window coordinates.

Zero counting is exact.  Substituting u = tan(t/2) turns a degree-d trig
polynomial f into P(u) / (1 + u^2)^d with P rational of degree <= 2d; the
zeros of f away from t = pi correspond bijectively to the real roots of P
(with matching multiplicity), and t = pi is checked separately.  Real
roots of P are counted with Sturm chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import polyroots
from .errors import NonsimpleZeroError, NotStabilizedError, ValidationError
from .exactlinalg import (
    CochainComplex,
    CohomologyReport,
    RationalMatrix,
    as_fraction,
    complex_cohomology,
    kron_sum,
)
from .exterior import wedge_matrix
from .liealg import LieAlgebra, bracket_basis, require_jacobi, trivial_ce_differential

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


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

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        n = max(self.deg, other.deg)
        return TrigPoly.make(
            self.constant + other.constant,
            [self.cos_coeff(k) + other.cos_coeff(k) for k in range(1, n + 1)],
            [self.sin_coeff(k) + other.sin_coeff(k) for k in range(1, n + 1)],
        )

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(-self.constant, tuple(-x for x in self.cos_coeffs),
                        tuple(-x for x in self.sin_coeffs))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def scaled(self, c) -> "TrigPoly":
        return TrigPoly.make(
            as_fraction(c) * self.constant,
            [as_fraction(c) * x for x in self.cos_coeffs],
            [as_fraction(c) * x for x in self.sin_coeffs],
        )

    def value_at_quarter(self, q: int) -> Fraction:
        """Exact value at t = q * pi/2 (cos and sin of multiples are 0, +-1)."""
        cos_cycle = (1, 0, -1, 0)
        sin_cycle = (0, 1, 0, -1)
        total = self.constant
        for k in range(1, self.deg + 1):
            phase = (k * q) % 4
            total += self.cos_coeffs[k - 1] * cos_cycle[phase]
            total += self.sin_coeffs[k - 1] * sin_cycle[phase]
        return total


def trig_mul(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Product f g, read off the multiplication matrix of f on g's window."""
    m = multiplication_matrix(f, g.deg, f.deg + g.deg)
    return _from_window_coords(m.apply(window_coords(g, g.deg)))


def trig_derivative(f: TrigPoly) -> TrigPoly:
    """f', read off the d/dt matrix of f's window."""
    return _from_window_coords(derivative_matrix(f.deg).apply(window_coords(f, f.deg)))


def vf_bracket(u: TrigPoly, v: TrigPoly) -> TrigPoly:
    """Bracket of the vector fields u(t) d/dt and v(t) d/dt: u v' - v u'."""
    return trig_mul(u, trig_derivative(v)) - trig_mul(v, trig_derivative(u))


def weierstrass_numerator(f: TrigPoly) -> list[Fraction]:
    """P with f(t) = P(u) / (1+u^2)^deg under u = tan(t/2).

    Uses cos kt = Re (1+iu)^{2k} / (1+u^2)^k and the matching Im for sin.
    """
    d = f.deg
    one_plus = [_ONE, _ZERO, _ONE]  # 1 + u^2
    t_pow = [[_ONE]]
    for _ in range(d):
        t_pow.append(polyroots.mul(t_pow[-1], one_plus))
    p = polyroots.scale(t_pow[d], f.constant)
    re, im = [_ONE], []  # (1 + iu)^0
    for k in range(1, d + 1):
        for _ in range(2):
            # multiply (re + i im) by (1 + iu)
            u_im = [_ZERO] + im
            u_re = [_ZERO] + re
            re, im = polyroots.sub(re, u_im), polyroots.add(im, u_re)
        term = polyroots.add(
            polyroots.scale(re, f.cos_coeff(k)),
            polyroots.scale(im, f.sin_coeff(k)),
        )
        p = polyroots.add(p, polyroots.mul(term, t_pow[d - k]))
    return p


def has_zero_on_circle(f: TrigPoly) -> bool:
    if f.is_zero():
        return True
    if f.value_at_quarter(2) == 0:  # t = pi
        return True
    p = weierstrass_numerator(f)
    return polyroots.count_real_roots(p) > 0


def count_simple_zeros(f: TrigPoly) -> int:
    """Number of zeros of f on the circle, all required to be simple.

    Raises NonsimpleZeroError when some zero is also a zero of f', and
    ValueError for the identically zero input.
    """
    if f.is_zero():
        raise ValueError("zero trig polynomial")
    fp = trig_derivative(f)
    at_pi = f.value_at_quarter(2)
    if at_pi == 0 and fp.value_at_quarter(2) == 0:
        raise NonsimpleZeroError("zero of f at t = pi is not simple")
    p = weierstrass_numerator(f)
    if polyroots.has_multiple_real_root(p):
        raise NonsimpleZeroError("f has a repeated zero on the circle")
    count = polyroots.count_real_roots(p) if polyroots.degree(p) >= 1 else 0
    return count + (1 if at_pi == 0 else 0)


# -- windows -----------------------------------------------------------------

def window_dim(m: int) -> int:
    return 2 * m + 1


def window_coords(f: TrigPoly, m: int) -> list[Fraction]:
    if f.deg > m:
        raise ValueError(f"degree {f.deg} exceeds window V_{m}")
    coords = [f.constant]
    for k in range(1, m + 1):
        coords.append(f.cos_coeff(k))
        coords.append(f.sin_coeff(k))
    return coords


def _from_window_coords(coords) -> TrigPoly:
    """Inverse of window_coords."""
    return TrigPoly.make(coords[0], coords[1::2], coords[2::2])


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


def derivative_matrix(m: int) -> RationalMatrix:
    """d/dt on V_m: the one home of the derivative rule."""
    pairs = []
    for k in range(1, m + 1):
        pairs.append(((2 * k, 2 * k - 1), -k))  # cos kt -> -k sin kt
        pairs.append(((2 * k - 1, 2 * k), k))   # sin kt ->  k cos kt
    return RationalMatrix.from_entries(window_dim(m), window_dim(m), pairs)


def multiplication_matrix(f: TrigPoly, src_m: int, tgt_m: int) -> RationalMatrix:
    """Multiplication by f as a map V_src -> V_tgt; needs tgt >= src + deg f.

    Entries come straight from the product-to-sum table, one pass per nonzero
    harmonic of f; this is the one home of the product rule.
    """
    if tgt_m < src_m + f.deg:
        raise ValueError("target window too small for the product")
    pairs = []
    for i, x in enumerate(window_coords(f, f.deg)):
        if not x:
            continue
        f_kind, a = _harmonic(i)
        half = _HALF * x
        for j in range(window_dim(src_m)):
            b_kind, b = _harmonic(j)
            kind, diff_sign, sum_sign = _PRODUCT_TO_SUM[f_kind, b_kind]
            for k, sign in ((a - b, diff_sign), (a + b, sum_sign)):
                row, k_sign = _coordinate(kind, k)
                pairs.append(((row, j), half * (sign * k_sign)))
    return RationalMatrix.from_entries(window_dim(tgt_m), window_dim(src_m), pairs)


def inclusion_matrix(src_m: int, tgt_m: int) -> RationalMatrix:
    """V_src -> V_tgt as the identity on shared basis functions."""
    if tgt_m < src_m:
        raise ValueError("inclusion needs a larger target window")
    return RationalMatrix.from_entries(window_dim(tgt_m), window_dim(src_m),
                                       (((i, i), _ONE) for i in range(window_dim(src_m))))


# -- algebroids --------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedComplex:
    """A finite window complex; `windows` lists V-indices per degree when the
    degrees are single windows (None for product complexes)."""

    N: int
    complex: CochainComplex
    windows: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Rank1Anchor:
    """Line bundle over the circle anchored by f d/dt -> p * f' d/dt."""

    p: TrigPoly

    def anchor_degree(self) -> int:
        return self.p.deg

    def _is_transitive(self) -> bool:
        return not has_zero_on_circle(self.p)

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        if n < 0:
            raise ValueError("window index must be nonnegative")
        d = self.anchor_degree()
        diff = multiplication_matrix(self.p, n, n + d) @ derivative_matrix(n)
        cx = CochainComplex(
            degrees=(window_dim(n), window_dim(n + d)),
            differentials=(diff,),
        )
        return TruncatedComplex(N=n, complex=cx, windows=(n, n + d))


@dataclass(frozen=True)
class ActionAlgebroid:
    """A Lie algebra acting on the circle through vector fields phi_i d/dt."""

    algebra: LieAlgebra
    phi: tuple[TrigPoly, ...]

    def anchor_degree(self) -> int:
        return max((f.deg for f in self.phi), default=0)

    def _is_transitive(self) -> bool:
        # The anchor at t is surjective iff some phi_i(t) != 0, i.e. the sum
        # of squares has no zero on the circle.
        s = TrigPoly.const(0)
        for f in self.phi:
            s = s + trig_mul(f, f)
        return not has_zero_on_circle(s)

    def _truncated_complex(self, n: int) -> TruncatedComplex:
        if n < 0:
            raise ValueError("window index must be nonnegative")
        g = self.algebra
        if len(self.phi) != g.dim:
            raise ValidationError("need one vector field per basis vector")
        require_jacobi(g)
        if not check_action(self):
            raise ValidationError("vector fields do not represent the bracket "
                                  f"on basis pair {action_violation(self)}")
        d = self.anchor_degree()
        windows = tuple(n + p * d for p in range(g.dim + 1))
        degrees = tuple(comb(g.dim, p) * window_dim(windows[p]) for p in range(g.dim + 1))
        diffs = []
        for p in range(g.dim):
            src_w, tgt_w = windows[p], windows[p + 1]
            deriv = derivative_matrix(src_w)
            terms = [(0, 0, trivial_ce_differential(g, p), inclusion_matrix(src_w, tgt_w))]
            terms += [(0, 0, wedge_matrix(g.dim, p, i),
                       multiplication_matrix(self.phi[i], src_w, tgt_w) @ deriv)
                      for i in range(g.dim)]
            diffs.append(kron_sum(degrees[p + 1], degrees[p], terms))
        cx = CochainComplex(degrees=degrees, differentials=tuple(diffs))
        return TruncatedComplex(N=n, complex=cx, windows=windows)


def action_violation(a: ActionAlgebroid) -> tuple[int, int] | None:
    """First basis pair i < j, in lexicographic order, with [phi_i, phi_j]
    != sum_k c^k_{ij} phi_k, or None; needs one phi per basis vector."""
    g = a.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = vf_bracket(a.phi[i], a.phi[j])
            rhs = TrigPoly.const(0)
            for k, c in enumerate(bracket_basis(g, i, j)):
                if c:
                    rhs = rhs + a.phi[k].scaled(c)
            if lhs != rhs:
                return (i, j)
    return None


def check_action(a: ActionAlgebroid) -> bool:
    """True iff [phi_i, phi_j] = sum_k c^k_{ij} phi_k for all i < j."""
    return len(a.phi) == a.algebra.dim and action_violation(a) is None


def truncated_complex(a, n: int) -> TruncatedComplex:
    """Window-N complex of any circle algebroid (anchor, action, or product)."""
    return a._truncated_complex(n)


def is_transitive(a) -> bool:
    """Exact surjectivity test for the anchor, via Sturm-counted zeros."""
    return a._is_transitive()


@dataclass(frozen=True)
class SweepResult:
    report: CohomologyReport
    per_n: tuple[tuple[int, tuple[int, ...]], ...]
    stabilized: bool


def stabilized_cohomology(a, n_min: int, n_max: int, strict: bool = True) -> SweepResult:
    """Sweep windows N = n_min..n_max and demand three equal Betti vectors.

    With strict=True a failed sweep raises NotStabilizedError carrying the
    per-N table; with strict=False the result is returned with the flag off
    and the Betti numbers of the widest window.
    """
    if n_max < n_min + 2:
        raise ValueError("need at least three windows: n_max >= n_min + 2")
    windows = range(n_min, n_max + 1)
    reports = [complex_cohomology(a._truncated_complex(n).complex) for n in windows]
    per_n = [(n, rep.betti) for n, rep in zip(windows, reports)]
    tail = [b for _, b in per_n[-3:]]
    stable = tail[0] == tail[1] == tail[2]
    if not stable and strict:
        raise NotStabilizedError(per_n)
    return SweepResult(report=reports[-1], per_n=tuple(per_n), stabilized=stable)
