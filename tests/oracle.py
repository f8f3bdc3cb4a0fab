"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive and coded separately from the
package: textbook Gaussian elimination over Fraction with first-nonzero
pivoting, and Betti numbers straight from the rank formula.  Tests compare
package results against these.

`pivot_columns` eliminates one matrix with its columns in a given order, by
relabelling the rows of its transpose and running `leveled_echelon` on them
with no level, so it shares no loop with the package's column reduction.
It is the reference for the per-level pivot counts of `pivot_levels`.

`filtered_sweep` is the package's earlier sweep, kept as a cross-check
now that the package builds a sweep from window 0 or from its harmonics
(`circle`).  It takes the widest window alone, with each coordinate's level,
the first N whose window holds it (`window_levels`; `truncated_complex`
pairs a package window with its levels in a `TruncatedComplex`).
`pivot_levels` checks d^2 = 0 and that the windows nest, then eliminates
the complex once with clearing, rows by descending level and the pivot of
lowest level first (`leveled_echelon`, the package's earlier row-by-row
elimination with its `order` and `level` parameters), so the pivots of
level <= N number window N's ranks.

The dense Gauss-Jordan `rref` gives a reference `kernel_basis`, which the
package's back-substitution must equal entry for entry, and `inverse`.
`rank_modular` is a multi-prime modular rank certificate for the exact
rank, and `change_basis` rewrites a Lie algebra's structure constants in
another basis; only tests use them, so they live here and not in the
package.  These four take and return package objects.

`from_rows` builds a package matrix from dense rows through `from_entries`,
and `matrix_entry`, `matrix_row`, `matrix_column` and `transpose` read package
matrices through `to_rows` and `entries`; these and `kernel_dim`, `cokernel_dim`
and `euler_characteristic` are one-line wrappers over package calls.  Only
tests used them, so they left the package.
`hopf_verdicts` checks the four Hopf axioms on a coalgebra's matrices by
dense products of their blocks, sharing no code with `hopf`, and
`verify_hopf` asks it about a package coalgebra.  The dense blocks need
every Betti number positive; `hopf_label_verdicts` gives the same verdicts
for any Betti vector by looping over every label, pair and triple of labels,
where `hopf` loops over the degree-1 generators when they generate.
`codim1_prediction` gives the Betti numbers of g along an abelian ideal of
codimension one from the Hochschild-Serre sequence: dense ranks of the
action of g/h on Lambda h* (x) E, with no complex of g built.
`heisenberg_betti` and `diagonal_betti` predict the Betti numbers of two
indecomposable families, h_{2n+1} and R x_L Q^m with L diagonal, by
counting subsets alone.
`twisted_dual` is the coefficient module of twisted Poincare duality,
H^p(g; E) = H^{n-p}(g; E* (x) Lambda^n g)^*: a second complex, with
transposed action matrices and the modular character tr ad, whose Betti
vector must be the first one reversed.

`sort_sign` finds the sign of a wedge by insertion-sorting the concatenated
indices, and `shuffle_coproduct` expands prod_i (w_i (x) 1 + 1 (x) w_i)
with its own Koszul bookkeeping: the package's `exterior.wedge` counts the
sign instead, and its coproduct is its wedge product read backwards.
`exterior_factorization` looks a Betti vector up among the multiplied-out
products of (1 + t^d), d odd, where the package divides by one factor at a
time.
`symbol_differential` is the symbol complex as the formula
I_E (x) sum_i beta_i (e^i ^ -), which the package builds as a CE complex.
`jacobi_violation` evaluates the Jacobi sum with dense brackets on every
triple, where the package visits only triples that touch the table, and
`action_violation` takes `vf_bracket` of every pair and every term of
sum_k c^k_ij phi_k on dense Fraction window coordinates, where the package
applies one integer block of u -> phi_k u' per nonzero field to the fields'
integer coordinates.  `trig_mul`, `trig_derivative` and `vf_bracket` are
built on the flagged `multiplication_matrix` here, which reads the
product-to-sum table `_PRODUCT_TO_SUM` and its index helpers `_harmonic`
and `_coordinate`.  The oracle owns that table: the package's
`field_matrix` multiplies out one closed formula on coefficient pairs, so
the reference product shares no rule with it, and the half-angle
substitution test checks the table on its own.  `bracket_basis`, [e_i, e_j]
as a dense Fraction vector, reads the bracket table for the dense
references; the package writes ad_i's integer columns from it directly.  Package
matrices and trig polynomials have no arithmetic operators: every sum,
multiple and product here is taken on dense Fraction rows (`matrix_rows`,
`dense_product`, `dense_lincomb`, `fixtures.dense_apply`, and
`trig_lincomb` on window coordinates).

The reference builders are the package's earlier ones: wedges of index
tuples (`tuple_wedge`, `wedges`), the trivial CE differential through
`from_entries` on Fraction entries, `kron_sum` (the layout rule for blocks
and Kronecker products) and the CE differential as a `kron_sum` of every
term, the flatness check on dense Fraction rows, the window product with one
half-term per harmonic, `inclusion_matrix` (multiplication by 1), and the
window complex (`window_complex`) as a `kron_sum` of one term per CE entry,
that entry as a 1 x 1 matrix times its window block.  The package now writes
integer columns from bitmask forms, and its stored columns must equal these.

The Fraction polynomial arithmetic, Euclid and Sturm chains, the half-angle
numerator multiplied out from powers of 1 + iu and 1 + u^2, and zero
counting that reads t = pi off the values of f and f' there are the
references for `polyroots` and `circle`, which count on integer remainder
sequences and read t = pi off the numerator's degree.  `check_h_structure`
checks the morphism law on every pair of basis vectors, where the package
tests abelianness.

`reference_parser` is the argparse parser that `cli` used before it read
argv against its own command table; `test_cli` requires the same outcome of
both on generated argv.  A usage problem raises `UsageError` with argparse's
usage text, and a help request prints the help and raises `SystemExit(0)`.
"""

from __future__ import annotations

import argparse
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb, gcd, lcm

from algebroid import cli
from algebroid.circle import SweepResult, TrigPoly, window_coords
from algebroid.errors import ChainConditionError, NonsimpleZeroError, ValidationError
from algebroid.exactlinalg import RationalMatrix, cohomology_from_ranks, common_columns, rank
from algebroid.hopf import addition
from algebroid.liealg import LieAlgebra, Representation, lie_cohomology
from fixtures import (block_offsets, bracket, coalgebra_matrices, const, cos_coeff, dense_apply,
                      sin_coeff, value_at_quarter)


def gauss_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain fraction elimination, first nonzero pivot."""
    a = [list(map(Fraction, r)) for r in rows]
    if not a:
        return 0
    n_rows, n_cols = len(a), len(a[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        a[rank] = [x / pivot for x in a[rank]]
        for i in range(n_rows):
            if i != rank and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def pivot_columns(m, order=None) -> list[int]:
    """Columns of m that get a pivot when the distinct columns `order`
    (default all, left to right) are eliminated in that order, so the
    pivots among the first k columns of `order` number their rank.  The
    columns of m transposed are m's rows; column order[k] becomes row k."""
    order = list(range(m.cols) if order is None else order)
    at = {c: k for k, c in enumerate(order)}
    _, (rows,) = common_columns([transpose(m)])
    relabelled = [{at[c]: x for c, x in row.items() if c in at} for row in rows]
    return [order[k] for k, _, _ in leveled_echelon(relabelled, len(order))]


def leveled_echelon(cols, rows: int, order=None, level=None) -> list:
    """The package's earlier row-by-row elimination with `order` and
    `level`: the distinct rows `order` (default all, top to bottom) are
    eliminated in that order, and among several candidates the pivot is
    the one of the lowest `level` (if given), then the fewest nonzeros,
    then the smallest bit size of its entry in the row, then the lowest
    column index.
    Returns (row, column index, column) per pivot; consumes `cols`."""
    at: list[set[int]] = [set() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i in col:
            at[i].add(j)
    pivots = []
    for r in range(rows) if order is None else order:
        holders = at[r]
        if not holders:
            continue
        if len(holders) == 1:
            p = holders.pop()
        else:
            p = min(holders, key=lambda j: (level[j] if level else 0, len(cols[j]),
                                            abs(cols[j][r]).bit_length(), j))
        pcol = cols[p]
        for i in pcol:
            at[i].discard(p)
        piv = pcol[r]
        for j in list(holders):
            col = cols[j]
            f = col[r]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            if a != 1:
                for i in col:
                    col[i] *= a
            for i, y in pcol.items():
                v = col.get(i, 0) - b * y
                if v:
                    if i not in col:
                        at[i].add(j)
                    col[i] = v
                elif i in col:
                    del col[i]
                    at[i].discard(j)
            content = gcd(*col.values())
            if content > 1:
                for i in col:
                    col[i] //= content
        pivots.append((r, p, pcol))
    return pivots


def pivot_levels(c, levels=None) -> list[list[int]]:
    """The level of each pivot column of each d_p, from one pass with
    clearing.  levels[p][i] is the level of coordinate i of C^p, 0 without
    levels, and rank d_p on the coordinates of level <= N is its pivot count
    there.  Raises ChainConditionError when d^2 != 0, and ValidationError
    when some d_p maps a column into a row of a later level.

    The stored columns of each d_p are eliminated with their rows, C^{p+1},
    taken by descending level.  The columns of the lows (pivot rows) of
    d_{p-1} are left out, and that keeps every rank: a pivot column v with
    low s lies in im d_p, on s and on rows taken after s, of level <=
    level(s), and d_{p+1} v = 0 makes column s of d_{p+1} a combination of
    its columns at those rows; so, from the last low back, each low is a
    combination of columns that are no lows and of no higher level.  The
    pivot column is the candidate of the lowest level, so a column of level
    <= N changes only by pivot columns of level <= N, and for every N the
    pivot columns of level <= N, which are independent, span what the input
    columns of level <= N span.
    """
    defect = c.chain_defect()
    if defect is not None:
        raise ChainConditionError(defect)
    out, lows = [], []
    for p, d in enumerate(c.differentials):
        order = level = None
        if levels:
            above, level = levels[p + 1], levels[p]
            order = sorted(range(d.rows), key=above.__getitem__, reverse=True)
            for j, col in enumerate(d._num):
                for i in col:
                    if above[i] > level[j]:
                        raise ValidationError(f"windows are not nested: d_{p} maps column {j} "
                                              f"(level {level[j]}) into row {i} (level {above[i]})")
        cols = list(map(dict, d._num))  # leveled_echelon consumes its input
        for s in lows:
            cols[s] = {}
        pivots = leveled_echelon(cols, d.rows, order, level)
        out.append([level[i] for _, i, _ in pivots] if level else [0] * len(pivots))
        lows = [s for s, _, _ in pivots]
    return out


class TruncatedComplex:
    """A window complex; `levels[p][i]` is the first N whose window holds
    coordinate i of degree p."""

    __slots__ = ("N", "complex", "levels")

    def __init__(self, N: int, complex, levels: tuple[tuple[int, ...], ...]):
        if tuple(map(len, levels)) != tuple(complex.degrees):
            raise ValueError("need one level per coordinate of every degree")
        self.N, self.complex, self.levels = N, complex, levels


def filtered_sweep(a, n_min: int, n_max: int) -> SweepResult:
    """The sweep of windows n_min..n_max as one filtered complex: the widest
    window from `a._truncated_complex`, which for a stub is a
    `TruncatedComplex` and for an action algebroid is paired with its
    `window_levels`, eliminated once by `pivot_levels`; rank d_p on window N
    is the number of its pivot columns of level <= N."""
    if n_min < 0 or n_max < n_min + 2:
        raise ValueError("need three nonnegative windows: 0 <= n_min and n_max >= n_min + 2")
    tc = truncated_complex(a, n_max)
    pivots = [sorted(pv) for pv in pivot_levels(tc.complex, tc.levels)]
    levels = [sorted(lv) for lv in tc.levels]
    reports = [cohomology_from_ranks([bisect_right(lv, n) for lv in levels],
                                     [bisect_right(pv, n) for pv in pivots])
               for n in range(n_min, n_max + 1)]
    per_n = [(n, rep.betti) for n, rep in zip(range(n_min, n_max + 1), reports)]
    return SweepResult(report=reports[-1], per_n=tuple(per_n),
                       stabilized=len({b for _, b in per_n[-3:]}) == 1)


def rref(rows: list[list[Fraction]], n_cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by plain fraction elimination, first nonzero
    pivot, and its pivot columns.  The zero rows are dropped."""
    a = [list(map(Fraction, row)) for row in rows]
    n_rows = len(a)
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][col]
        a[r] = [x / pivot for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a[:len(pivots)], pivots


def kernel_basis(m) -> list[list[Fraction]]:
    """Null space basis of a package matrix read off its RREF: one vector
    per free column in column order, 1 there and 0 on the other free
    columns."""
    a, pivots = rref(matrix_rows(m), m.cols)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for row, col in zip(a, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def inverse(m) -> RationalMatrix:
    """Inverse of a square package matrix from the RREF of [m | I]; raises
    ValueError when m is singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    a, pivots = rref([row + [Fraction(int(i == j)) for j in range(n)]
                      for i, row in enumerate(matrix_rows(m))], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return from_rows([row[n:] for row in a])


# Fixed, well-known primes, so the certificate is deterministic.
MODULAR_PRIMES = (1000000007, 1000000009, 998244353, 754974721, 167772161)


def rank_modular(m, primes=MODULAR_PRIMES) -> int:
    """Largest rank of a package matrix modulo the given primes.

    Always a lower bound for the exact rank, and equal to it unless every
    prime divides some unlucky minor.  The rows are reduced after scaling by
    the lcm of the entry denominators; a prime dividing that lcm is skipped,
    and if all are skipped the package's exact `rank` is used.
    """
    rows = m.to_rows()
    den = lcm(*[x.denominator for row in rows for x in row])
    best = None
    for p in primes:
        if den % p == 0:
            continue
        a = [[int(x * den) % p for x in row] for row in rows]
        r = _rank_mod_p(a, m.rows, m.cols, p)
        best = r if best is None else max(best, r)
    return rank(m) if best is None else best


def _rank_mod_p(a: list[list[int]], nr: int, nc: int, p: int) -> int:
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(r + 1, nr):
            if a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def change_basis(g, p) -> LieAlgebra:
    """Structure constants of a Lie algebra in the basis whose vectors are
    the columns of the package matrix `p`; raises ValueError when p is
    singular."""
    if p.rows != g.dim or p.cols != g.dim:
        raise ValueError("basis-change matrix must be dim x dim")
    p_inv = inverse(p)
    n = g.dim
    new_brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = dense_apply(p_inv, bracket(g, matrix_column(p, i), matrix_column(p, j)))
            terms = {k: c for k, c in enumerate(coords) if c}
            if terms:
                new_brackets[(i, j)] = terms
    return LieAlgebra.make(n, new_brackets, name=g.name + "~" if g.name else "")


def bracket_basis(g, i: int, j: int) -> list[Fraction]:
    """[e_i, e_j] as a coordinate vector."""
    out = [Fraction(0)] * g.dim
    sign, pair = (1, (i, j)) if i < j else (-1, (j, i))
    for bi, bj, terms in g.brackets:
        if (bi, bj) == pair:
            for k, c in terms:
                out[k] = sign * c
    return out


def jacobi_violation(g) -> tuple[int, int, int] | None:
    """First triple i < j < k, lexicographically, with a nonzero
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]."""
    e = [[Fraction(int(a == b)) for b in range(g.dim)] for a in range(g.dim)]
    for i, j, k in combinations(range(g.dim), 3):
        total = [Fraction(0)] * g.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            total = [x + y for x, y in zip(total, bracket(g, bracket(g, e[a], e[b]), e[c]))]
        if any(total):
            return (i, j, k)
    return None


def betti_numbers(degrees: list[int], diffs: list[list[list[Fraction]]]) -> list[int]:
    """Betti numbers of a complex given as raw row lists.

    diffs[p] is the matrix of d_p as a list of rows; there is one fewer
    matrix than degrees.
    """
    assert len(diffs) == len(degrees) - 1
    ranks = [gauss_rank(m) for m in diffs]
    out = []
    top = len(degrees) - 1
    for p in range(top + 1):
        r_out = ranks[p] if p < top else 0
        r_in = ranks[p - 1] if p > 0 else 0
        out.append(degrees[p] - r_out - r_in)
    return out


def codim1_prediction(g, x: int, e) -> tuple[int, ...]:
    """Betti numbers of g with coefficients in the representation e, from the
    Hochschild-Serre sequence along h = span(e_j : j != x), which must be an
    abelian ideal that acts by zero on E.  g/h is one-dimensional, so the
    sequence has two columns and degenerates at E_2:
    H^n(g; E) = ker theta_n + coker theta_{n-1}, where theta_k is e_x acting
    on H^k(h; E) = Lambda^k h* (x) E by
    (e_x w)(y_1, .., y_k) = rho_x w(y_1, .., y_k) - sum_t w(y_1, .., [e_x, y_t], .., y_k).
    Its ranks come from `gauss_rank`; no complex of g is built."""
    h = [j for j in range(g.dim) if j != x]
    ad = {j: {} for j in h}  # [e_x, e_j] as {k: c}
    for i, j, terms in g.brackets:
        if x not in (i, j):
            raise ValueError(f"h is not abelian: [e_{i}, e_{j}] != 0")
        if any(k == x for k, _ in terms):
            raise ValueError("h is not an ideal")
        ad[j if i == x else i] = {k: c if i == x else -c for k, c in terms}
    if any(not e.action[j].is_zero() for j in h):
        raise ValueError("h must act by zero on E")
    rho, dim_e = matrix_rows(e.action[x]), e.dim_e
    ranks, dims = [], []
    for k in range(len(h) + 1):
        forms = list(combinations(h, k))
        at = {form: r for r, form in enumerate(forms)}
        theta = [[Fraction(0)] * (len(forms) * dim_e) for _ in range(len(forms) * dim_e)]
        for col, form in enumerate(forms):
            for b in range(dim_e):
                for a in range(dim_e):
                    theta[col * dim_e + a][col * dim_e + b] += rho[a][b]
                # e_x e^s = -sum_i (coefficient of e_s in [e_x, e_i]) e^i, slot by slot
                for t, s in enumerate(form):
                    for i in h:
                        c = ad[i].get(s)
                        signed = c and sort_sign(form[:t] + (i,) + form[t + 1:])
                        if signed:
                            sign, merged = signed
                            theta[at[merged] * dim_e + b][col * dim_e + b] -= sign * c
        ranks.append(gauss_rank(theta))
        dims.append(len(forms) * dim_e)
    ker = [d - r for d, r in zip(dims, ranks)]  # theta_k is square: coker has ker's dimension
    return tuple((ker[n] if n < len(ker) else 0) + (ker[n - 1] if n else 0)
                 for n in range(g.dim + 1))


def heisenberg_betti(n: int) -> tuple[int, ...]:
    """Betti numbers of the Heisenberg algebra h_{2n+1}, [x_i, y_i] = z, by
    counting alone (Santharoubane, Proc. AMS 87, 1983):
    b_p = C(2n, p) - C(2n, p - 2) for p <= n, and b_{2n+1-p} = b_p."""
    low = [comb(2 * n, p) - (comb(2 * n, p - 2) if p >= 2 else 0) for p in range(n + 1)]
    return (*low, *reversed(low))


def diagonal_betti(weights) -> tuple[int, ...]:
    """Betti numbers of R x_L Q^m, e_0 acting on e_i by the nonzero integer
    weights[i - 1], by counting alone: b_p = N_p + N_{p-1}, with N_p the
    number of p-subsets of the weights that sum to zero (the invariants and
    coinvariants of e_0 on Lambda^p of the ideal's dual)."""
    m = len(weights)
    zero_sums = [sum(1 for s in combinations(weights, p) if not sum(s)) for p in range(m + 1)]
    return tuple((zero_sums[p] if p <= m else 0) + (zero_sums[p - 1] if p else 0)
                 for p in range(m + 2))


def twisted_dual(r):
    """E* (x) Lambda^n g: e_i acts by -rho_i^T + tr(ad e_i) I, the dual action
    on E* twisted by the character through which e_i acts on the top power
    Lambda^n g."""
    g, n = r.algebra, r.dim_e
    action = []
    for i, m in enumerate(r.action):
        trace = sum(bracket_basis(g, i, j)[j] for j in range(g.dim))
        rows = matrix_rows(m)
        action.append(RationalMatrix.from_entries(n, n, [
            ((a, b), -rows[b][a] + (trace if a == b else 0)) for a in range(n) for b in range(n)]))
    return Representation(g, n, tuple(action))


def euler(betti: list[int]) -> int:
    return sum((-1) ** p * b for p, b in enumerate(betti))


def matrix_rows(m) -> list[list[Fraction]]:
    """Raw rows of a package matrix, for feeding the oracle."""
    return m.to_rows()


def from_rows(data, rows: int | None = None, cols: int | None = None) -> RationalMatrix:
    """A package matrix from dense rows of ints, Fractions or "p/q" strings,
    built through `from_entries`.  The shape is read off the rows unless
    given, as it must be when there are none, and must fit them."""
    rows = len(data) if rows is None else rows
    cols = (len(data[0]) if data else 0) if cols is None else cols
    if len(data) != rows or any(len(row) != cols for row in data):
        raise ValueError("shape mismatch")
    return RationalMatrix.from_entries(rows, cols, (((i, j), x) for i, row in enumerate(data)
                                                    for j, x in enumerate(row)))


# -- readers and wrappers that only tests call -----------------------------------

def matrix_entry(m, i: int, j: int) -> Fraction:
    """Entry (i, j) of a package matrix; a position outside it raises IndexError."""
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError(f"entry ({i}, {j}) outside a {m.rows}x{m.cols} matrix")
    return Fraction(next((x for a, b, x in m.entries() if (a, b) == (i, j)), 0))


def matrix_row(m, i: int) -> list[Fraction]:
    return m.to_rows()[i]


def matrix_column(m, j: int) -> list[Fraction]:
    return [row[j] for row in m.to_rows()]


def transpose(m) -> RationalMatrix:
    return RationalMatrix.from_entries(m.cols, m.rows, (((j, i), x) for i, j, x in m.entries()))


def kernel_dim(m) -> int:
    return m.cols - rank(m)


def cokernel_dim(m) -> int:
    return m.rows - rank(m)


def truncated_complex(a, n: int) -> TruncatedComplex:
    """Window-N complex of a circle algebroid (an action algebroid, rank-1 anchors
    and products with Lie algebras included) with its `window_levels`; a stub's
    `_truncated_complex` gives its levels itself."""
    c = a._truncated_complex(n)
    return c if isinstance(c, TruncatedComplex) else TruncatedComplex(n, c, window_levels(a, n))


def verify_hopf(c) -> bool:
    """All graded-Hopf axioms of a package coalgebra, on its matrices: counit,
    coassociativity, multiplicativity of the coproduct, and an antipode."""
    return all(hopf_verdicts(c.betti, *coalgebra_matrices(c)))


def euler_characteristic(r) -> int:
    return lie_cohomology(r).euler


def complex_betti(c) -> list[int]:
    """Oracle Betti numbers of a package complex object."""
    return betti_numbers(list(c.degrees), [matrix_rows(d) for d in c.differentials])


def kron_sum(rows: int, cols: int, terms) -> RationalMatrix:
    """Sum of A (x) B over the terms (r0, c0, A, B), as a rows x cols matrix.

    A[i, j] B[k, l] lands at (r0 + i*B.rows + k, c0 + j*B.cols + l): each
    product has its top-left entry at (r0, c0) and the index of A is major.
    Terms add, cancelled entries are dropped, and a term that does not fit
    raises ValueError.  A plain block M is the term (r0, c0, identity(1), M).
    Integer columns are multiplied over the lcm of the terms' denominator
    products.
    """
    terms = [(r0, c0, a, b, common_columns([a]), common_columns([b])) for r0, c0, a, b in terms]
    den = lcm(*[da * db for *_, (da, _), (db, _) in terms])
    out: list[dict[int, int]] = [{} for _ in range(cols)]
    for r0, c0, a, b, (da, (anum,)), (db, (bnum,)) in terms:
        br, bc = b.rows, b.cols
        if min(r0, c0) < 0 or r0 + a.rows * br > rows or c0 + a.cols * bc > cols:
            raise ValueError(f"a {a.rows * br}x{a.cols * bc} term at ({r0}, {c0}) "
                             f"does not fit a {rows}x{cols} matrix")
        scale = den // (da * db)
        bcols = [(l, bcol.items()) for l, bcol in enumerate(bnum) if bcol]
        for j, acol in enumerate(anum):
            for i, x in acol.items():
                x *= scale
                base = r0 + i * br
                for l, bitems in bcols:
                    col = out[c0 + j * bc + l]
                    for k, y in bitems:
                        old = col.get(base + k)
                        col[base + k] = x * y if old is None else old + x * y
    return RationalMatrix(rows, cols, out, den)


def kron_sum_dense(rows: int, cols: int, terms) -> list[list[Fraction]]:
    """Sum of Kronecker products A (x) B by nested loops over dense rows.

    Each term is (r0, c0, A, B) with A and B given as nonempty row lists;
    A[i][j] B[k][l] is added at (r0 + i*len(B) + k, c0 + j*len(B[0]) + l).
    """
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, a, b in terms:
        p, q = len(b), len(b[0])
        for i, a_row in enumerate(a):
            for j, x in enumerate(a_row):
                for k, b_row in enumerate(b):
                    for l, y in enumerate(b_row):
                        out[r0 + i * p + k][c0 + j * q + l] += Fraction(x) * Fraction(y)
    return out


def dense_lincomb(s, a: list[list], t, b: list[list]) -> list[list[Fraction]]:
    """s*a + t*b for dense row lists of one shape."""
    return [[s * Fraction(x) + t * Fraction(y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_product(a: list[list], b: list[list]) -> list[list[Fraction]]:
    """a @ b by the textbook triple loop."""
    return [[sum((Fraction(x) * Fraction(b[k][j]) for k, x in enumerate(row)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def dense_transpose(a: list[list]) -> list[list[Fraction]]:
    return [[Fraction(row[j]) for row in a] for j in range(len(a[0]))]


def sort_sign(seq) -> tuple[int, tuple[int, ...]] | None:
    """Sign of the permutation sorting `seq`, or None when it has duplicates."""
    arr = list(seq)
    sign = 1
    for k in range(1, len(arr)):
        x = arr[k]
        j = k - 1
        while j >= 0 and arr[j] > x:
            arr[j + 1] = arr[j]
            j -= 1
            sign = -sign
        if j >= 0 and arr[j] == x:
            return None
        arr[j + 1] = x
    return sign, tuple(arr)


def symbol_differential(dim_e: int, beta, r: int) -> list[list[Fraction]]:
    """Dense I_E (x) sum_i beta_i (e^i ^ -) from degree r to r + 1, the
    coefficient index major and forms in lexicographic order."""
    n = len(beta)
    src, tgt = list(combinations(range(n), r)), list(combinations(range(n), r + 1))
    at = {form: row for row, form in enumerate(tgt)}
    out = [[Fraction(0)] * (dim_e * len(src)) for _ in range(dim_e * len(tgt))]
    for a in range(dim_e):
        for col, form in enumerate(src):
            for i, b in enumerate(beta):
                signed = sort_sign((i,) + form)
                if signed is not None:
                    sign, merged = signed
                    out[a * len(tgt) + at[merged]][a * len(src) + col] += sign * Fraction(b)
    return out


def shuffle_coproduct(n: int) -> list[RationalMatrix]:
    """Coproduct matrices of the exterior algebra on n degree-1 primitives,
    in the layout of `fixtures.coalgebra_from_matrices`, from the expansion of
    prod_{i in I} (w_i (x) 1 + 1 (x) w_i) over increasing i: a left factor
    crossing the right factors already placed picks up their parity."""
    betti = [comb(n, p) for p in range(n + 1)]
    labels = [list(combinations(range(n), p)) for p in range(n + 1)]
    index_of = [{c: i for i, c in enumerate(lab)} for lab in labels]
    out = []
    for r in range(n + 1):
        offs = [0]
        for i in range(r + 1):
            offs.append(offs[-1] + betti[i] * betti[r - i])
        pairs = []
        for col, lab in enumerate(labels[r]):
            terms = [(1, (), ())]
            for i in lab:
                terms = [t for sign, left, right in terms
                         for t in ((sign * (-1) ** len(right), left + (i,), right),
                                   (sign, left, right + (i,)))]
            for sign, left, right in terms:
                i, j = len(left), r - len(left)
                pairs.append(((offs[i] + index_of[i][left] * betti[j] + index_of[j][right], col),
                              sign))
        out.append(RationalMatrix.from_entries(offs[-1], betti[r], pairs))
    return out


def hopf_verdicts(betti, coproduct, product) -> tuple[bool, bool, bool, bool]:
    """(counit, coassociative, algebra morphism, antipode) of the matrices in
    the layout of `fixtures.coalgebra_from_matrices`, each an identity
    between dense composites of their blocks.

    Block i of coproduct[r] is D_r^i : H^r -> H^i (x) H^{r-i}, and M_pq is
    product[(p, q)].  The counit holds when H^0 is a line and D_r^0 and
    D_r^r are identities.  Coassociativity compares (D_{i+j}^i (x) I) D_r^{i+j}
    with (I (x) D_{j+k}^j) D_r^i on every block (i, j, k).  The coproduct is a
    morphism when D_0 = 1 (x) 1, the unit blocks M_0r and M_r0 are
    identities, the product is associative, M_{p+q,r} (M_pq (x) I) =
    M_{p,q+r} (I (x) M_qr) for p + q + r <= top, and D_{p+q}^i M_pq is the sum over
    i1 + j1 = i of (M (x) M) T (D_p^{i1} (x) D_q^{j1}), T the flip of the
    middle factors with the Koszul sign (-1)^{(p-i1) j1}.  The antipode is
    solved degree by degree, S_0 = 1 and S_r = -I - sum_{0<i<r}
    M (S_i (x) I) D_r^i, and must satisfy sum_i M (S_i (x) I) D_r^i = eps =
    sum_i M (I (x) S_{r-i}) D_r^i in every degree; it is false whenever the
    counit is.
    """
    if not all(betti):
        raise ValueError("the dense check needs every Betti number positive")
    top = len(betti) - 1
    eye = [[[int(a == b) for b in range(n)] for a in range(n)] for n in betti]
    cop = []
    for r, m in enumerate(coproduct):
        rows, offs = _dense(m), block_offsets(betti, r)
        cop.append([rows[offs[i]:offs[i + 1]] for i in range(r + 1)])
    mul = {key: _dense(m) for key, m in product.items()}

    counit = betti[0] == 1 and all(cop[r][0] == eye[r] == cop[r][r] for r in range(top + 1))
    coassociative = all(
        _mul(_kron(cop[i + j][i], eye[r - i - j]), cop[r][i + j])
        == _mul(_kron(eye[i], cop[r - i][j]), cop[r][i])
        for r in range(top + 1) for i in range(r + 1) for j in range(r - i + 1))

    def multiplicative(p, q, i):
        want = _mul(cop[p + q][i], mul[(p, q)])
        got = [[0] * len(want[0]) for _ in want]
        for i1 in range(max(0, i - q), min(i, p) + 1):
            j1 = i - i1
            split = _flip_middle(_kron(cop[p][i1], cop[q][j1]),
                                 [betti[i1], betti[p - i1], betti[j1], betti[q - j1]],
                                 (-1) ** ((p - i1) * j1))
            got = _add(got, _mul(_kron(mul[(i1, j1)], mul[(p - i1, q - j1)]), split))
        return got == want

    associative = all(
        _mul(mul[(p + q, r)], _kron(mul[(p, q)], eye[r]))
        == _mul(mul[(p, q + r)], _kron(eye[p], mul[(q, r)]))
        for p in range(top + 1) for q in range(top + 1 - p) for r in range(top + 1 - p - q))
    morphism = betti[0] == 1 and cop[0][0] == [[1]] and all(
        mul[(0, r)] == eye[r] == mul[(r, 0)] for r in range(top + 1)) and associative and all(
        multiplicative(p, q, i)
        for p in range(top + 1) for q in range(top + 1 - p) for i in range(p + q + 1))

    def convolution(s, r, left, blocks):
        # the sum over the blocks i of M (S_i (x) I) D_r^i, or of M (I (x) S_{r-i}) D_r^i
        out = [[0] * betti[r] for _ in range(betti[r])]
        for i in blocks:
            side = _kron(s[i], eye[r - i]) if left else _kron(eye[i], s[r - i])
            out = _add(out, _mul(mul[(i, r - i)], _mul(side, cop[r][i])))
        return out

    antipode = counit
    if counit:
        s = [eye[0]]
        for r in range(1, top + 1):
            rest = convolution(s, r, True, range(1, r))
            s.append([[-x - y for x, y in zip(ri, rr)] for ri, rr in zip(eye[r], rest)])
        eps = [eye[0]] + [[[0] * n for _ in range(n)] for n in betti[1:]]
        antipode = all(convolution(s, r, left, range(r + 1)) == eps[r]
                       for r in range(top + 1) for left in (True, False))
    return counit, coassociative, morphism, antipode


def hopf_label_verdicts(c) -> tuple[bool, bool, bool, bool]:
    """The verdicts of `hopf_verdicts` for a package coalgebra with any Betti
    numbers, by loops over its basis labels: the counit and coassociativity on
    every label, associativity on every triple and D(xy) = D(x) D(y) on every
    pair of labels, with the antipode solved by the same recursion.  Linear
    combinations are dicts over labels, or pairs and triples of labels, with
    zeros dropped; no generator argument shortens a loop.
    """
    betti, delta, mu = c.betti, c.delta, c.mu
    top, one = len(betti) - 1, (0, 0)
    labels = sorted(delta)

    def add(terms):
        out = {}
        for key, v in terms:
            out[key] = out.get(key, 0) + v
        return {key: v for key, v in out.items() if v}

    def times(u, v):
        return add((z, a * b * w) for x, a in u.items() for y, b in v.items()
                   if x[0] + y[0] <= top for z, w in mu[(x, y)].items())

    def cop(u):
        return add((pair, a * w) for x, a in u.items() for pair, w in delta[x].items())

    def tensor_times(s, t):
        # (x1 (x) x2)(y1 (x) y2) = (-1)^{|x2||y1|} x1 y1 (x) x2 y2
        return add(((k1, k2), (-1) ** (x2[0] * y1[0]) * a * b * u * w)
                   for (x1, x2), a in s.items() for (y1, y2), b in t.items()
                   for k1, u in times({x1: 1}, {y1: 1}).items()
                   for k2, w in times({x2: 1}, {y2: 1}).items())

    counit = betti[0] == 1 and all(
        add((pair[1 - side], v) for pair, v in delta[x].items() if pair[side][0] == 0) == {x: 1}
        for x in labels for side in (0, 1))
    coassociative = all(
        add(((y1, y2, z), v * w) for (y, z), v in delta[x].items()
            for (y1, y2), w in delta[y].items())
        == add(((y, z1, z2), v * w) for (y, z), v in delta[x].items()
               for (z1, z2), w in delta[z].items())
        for x in labels)
    pairs = [(x, y) for x in labels for y in labels if x[0] + y[0] <= top]
    morphism = (betti[0] == 1 and delta[one] == {(one, one): 1}
                and all(times({one: 1}, {x: 1}) == {x: 1} == times({x: 1}, {one: 1})
                        for x in labels)
                and all(times(times({x: 1}, {y: 1}), {z: 1}) == times({x: 1}, times({y: 1}, {z: 1}))
                        for x, y in pairs for z in labels if x[0] + y[0] + z[0] <= top)
                and all(cop(times({x: 1}, {y: 1})) == tensor_times(delta[x], delta[y])
                        for x, y in pairs))
    antipode = counit
    if counit:
        s = {one: {one: 1}}
        for x in labels[1:]:
            s[x] = add([(x, -1)] + [(m, -v * t) for (y, z), v in delta[x].items()
                                    if 0 < y[0] < x[0] for m, t in times(s[y], {z: 1}).items()])
        antipode = all(
            add((m, v * t) for (y, z), v in delta[x].items()
                for m, t in (times(s[y], {z: 1}) if left else times({y: 1}, s[z])).items())
            == ({one: 1} if x[0] == 0 else {})
            for x in labels for left in (True, False))
    return counit, coassociative, morphism, antipode


def _dense(m) -> list[list]:
    """Dense rows of a package matrix, an entry an int when it is integral."""
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in matrix_rows(m)]


# The Hopf check multiplies Kronecker products that are mostly zeros, so it
# skips them and keeps integral entries as ints; `dense_product`, which makes
# a Fraction of every entry, made the single-entry comparison in test_hopf
# several times slower.

def _add(a: list[list], b: list[list]) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mul(a: list[list], b: list[list]) -> list[list]:
    """a @ b on dense rows, by the triple loop that skips zero entries of a."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(acc)
    return out


def _kron(a: list[list], b: list[list]) -> list[list]:
    """The Kronecker product of dense rows, the index of a major."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _flip_middle(rows: list[list], dims: list[int], sign: int) -> list[list]:
    """sign times the rows indexed over V_a (x) V_b (x) V_c (x) V_d, moved to
    V_a (x) V_c (x) V_b (x) V_d."""
    a, b, c, d = dims
    out = [None] * len(rows)
    for x in range(a):
        for y in range(b):
            for z in range(c):
                for w in range(d):
                    out[((x * c + z) * b + y) * d + w] = [
                        sign * v for v in rows[((x * b + y) * c + z) * d + w]]
    return out


def exterior_factorization(betti) -> tuple[int, ...] | None:
    """The odd degrees d, ascending, whose product of (1 + t^d) is the
    Poincare polynomial of betti, or None.  Since 1 + t^d is the product of
    the cyclotomic polynomials Phi_2e over e | d, the factorization is
    unique, so one lookup in every product of degree <= len(betti) - 1,
    trailing zeros stripped, decides it."""
    poly = list(betti)
    while poly[-1] == 0:
        poly.pop()
    return _exterior_poincare(len(betti) - 1).get(tuple(poly))


@cache
def _exterior_poincare(top: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    table = {}
    for k in range(top + 1):
        for degrees in combinations_with_replacement(range(1, top + 1, 2), k):
            if sum(degrees) <= top:
                poly = [1]
                for d in degrees:
                    poly = [x + (poly[i - d] if i >= d else 0)
                            for i, x in enumerate(poly + [0] * d)]
                assert tuple(poly) not in table
                table[tuple(poly)] = degrees
    return table


# -- reference builders ---------------------------------------------------------

def tuple_wedge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """e^a ^ e^b as (sign, c) for increasing index tuples, or None on a shared index."""
    out = list(b)
    sign = 1
    for x in reversed(a):
        # x passes the k entries below it, all from b: the later ones of a are larger
        k = bisect_left(out, x)
        if k < len(out) and out[k] == x:
            return None
        if k & 1:
            sign = -sign
        out.insert(k, x)
    return sign, tuple(out)


def wedges(n: int, degree: int, left, right) -> RationalMatrix:
    """Matrix of a (x) b -> a ^ b into `degree` on index tuples, a in left
    major, b in right minor."""
    tgt = {t: r for r, t in enumerate(combinations(range(n), degree))}
    pairs = []
    for ia, a in enumerate(left):
        for ib, b in enumerate(right):
            merged = tuple_wedge(a, b)
            if merged is not None:
                pairs.append(((tgt[merged[1]], ia * len(right) + ib), merged[0]))
    return RationalMatrix.from_entries(len(tgt), len(left) * len(right), pairs)


def wedge_matrix(n: int, p: int, i: int) -> RationalMatrix:
    return wedges(n, p + 1, [(i,)], list(combinations(range(n), p)))


def wedge_product(n: int, p: int, q: int) -> RationalMatrix:
    return wedges(n, p + q, list(combinations(range(n), p)), list(combinations(range(n), q)))


def trivial_ce_differential(g, p: int) -> RationalMatrix:
    """d(e^k) = - sum_{i<j} c^k_{ij} e^i ^ e^j as a graded derivation, from
    wedges of index tuples, divided once by the constants' lcm denominator."""
    n = g.dim
    tgt = {t: r for r, t in enumerate(combinations(range(n), p + 1))}
    den = lcm(*[c.denominator for _, _, terms in g.brackets for _, c in terms])
    by_target = [[] for _ in range(n)]
    for bi, bj, terms in g.brackets:
        for k, c in terms:
            by_target[k].append(((bi, bj), c.numerator * (den // c.denominator)))
    pairs = []
    for col, idx in enumerate(combinations(range(n), p)):
        for s, k in enumerate(idx):
            rest, slot_sign = idx[:s] + idx[s + 1:], (-1) ** s
            for pair, c in by_target[k]:
                merged = tuple_wedge(pair, rest)
                if merged is not None:
                    pairs.append(((tgt[merged[1]], col), Fraction(-slot_sign * merged[0] * c, den)))
    return RationalMatrix.from_entries(comb(n, p + 1), comb(n, p), pairs)


def ce_differential(r, p: int) -> RationalMatrix:
    """I_E (x) d_trivial + sum_i rho_i (x) (e^i ^ -) summed by `kron_sum`,
    every term kept."""
    n, e = r.algebra.dim, r.dim_e
    terms = [(0, 0, RationalMatrix.identity(e), trivial_ce_differential(r.algebra, p))]
    terms += [(0, 0, rho, wedge_matrix(n, p, i)) for i, rho in enumerate(r.action)]
    return kron_sum(e * comb(n, p + 1), e * comb(n, p), terms)


def action_violation(a) -> tuple[int, int] | None:
    """First pair i < j with [phi_i, phi_j] != sum_k c^k_ij phi_k, each
    bracket from `vf_bracket` and every term of the sum added."""
    g = a.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if vf_bracket(a.phi[i], a.phi[j]) != trig_lincomb(zip(bracket_basis(g, i, j), a.phi)):
                return (i, j)
    return None


def representation_violation(r) -> tuple[int, int] | None:
    """First pair i < j with rho_i rho_j != rho_j rho_i + sum_k c^k_ij rho_k,
    compared on dense Fraction rows."""
    g, rho = r.algebra, [matrix_rows(m) for m in r.action]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            expected = dense_product(rho[j], rho[i])
            for c, rho_k in zip(bracket_basis(g, i, j), rho):
                expected = dense_lincomb(1, expected, c, rho_k)
            if dense_product(rho[i], rho[j]) != expected:
                return (i, j)
    return None


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


def multiplication_matrix(f, src_m: int, tgt_m: int, derivative: bool = False) -> RationalMatrix:
    """u -> f u (or f u') from the product-to-sum table, one half-term per
    (a - b) and (a + b) harmonic, each a Fraction entry for `from_entries`.
    The table and its index helpers are the oracle's own: the package's
    `field_matrix` multiplies out a closed formula instead."""
    if tgt_m < src_m + f.deg:
        raise ValueError("target window too small for the product")
    coords = window_coords(f, f.deg)
    den = lcm(*[x.denominator for x in coords])
    basis = [(j, *_harmonic(j), 1) for j in range(2 * src_m + 1)]
    if derivative:
        basis = [(j, _SIN, b, -b) if kind == _COS else (j, _COS, b, b)
                 for j, kind, b, _ in basis if b]
    pairs = []
    for i, x in enumerate(coords):
        if not x:
            continue
        f_kind, a = _harmonic(i)
        x = x.numerator * (den // x.denominator)
        for j, b_kind, b, scale in basis:
            kind, diff_sign, sum_sign = _PRODUCT_TO_SUM[f_kind, b_kind]
            for k, sign in ((a - b, diff_sign), (a + b, sum_sign)):
                row, k_sign = _coordinate(kind, k)
                if k_sign:
                    pairs.append(((row, j), Fraction(x * sign * k_sign * scale, 2 * den)))
    return RationalMatrix.from_entries(2 * tgt_m + 1, 2 * src_m + 1, pairs)


def inclusion_matrix(src_m: int, tgt_m: int) -> RationalMatrix:
    """V_src -> V_tgt, the identity on shared basis functions: multiplication by 1."""
    return multiplication_matrix(const(1), src_m, tgt_m)


def _from_coords(coords) -> TrigPoly:
    return TrigPoly.make(coords[0], coords[1::2], coords[2::2])


def trig_lincomb(terms) -> TrigPoly:
    """sum c f over the (c, f) terms, added on dense window coordinates."""
    terms = list(terms)
    m = max((f.deg for _, f in terms), default=0)
    coords = [window_coords(TrigPoly(), m)]
    for c, f in terms:
        coords = dense_lincomb(1, coords, c, [window_coords(f, m)])
    return _from_coords(coords[0])


def trig_mul(f, g) -> TrigPoly:
    """f g, read off the multiplication matrix of f on g's window."""
    m = multiplication_matrix(f, g.deg, f.deg + g.deg)
    return _from_coords(dense_apply(m, window_coords(g, g.deg)))


def trig_derivative(f) -> TrigPoly:
    """f', read off the d/dt operator on f's window."""
    d = multiplication_matrix(const(1), f.deg, f.deg, derivative=True)
    return _from_coords(dense_apply(d, window_coords(f, f.deg)))


def vf_bracket(u, v) -> TrigPoly:
    """Bracket of the vector fields u(t) d/dt and v(t) d/dt: u v' - v u'."""
    return trig_lincomb([(1, trig_mul(u, trig_derivative(v))),
                         (-1, trig_mul(v, trig_derivative(u)))])


def window_complex(a, n: int):
    """(degrees, levels, differentials) of the window-n complex of an action
    algebroid: each entry x of a CE map of forms (the tuple-wedge trivial
    differential, or e^i ^ - for a nonzero field) becomes the term
    (x as a 1 x 1 matrix) (x) (its window block), and `kron_sum` adds them.
    The blocks are inclusions, and u -> phi_i u' for e^i ^ -."""
    g, windows = a.algebra, form_windows(a, n)
    offsets = [[0, *accumulate(2 * w + 1 for w in ws)] for ws in windows]
    degrees = tuple(offs[-1] for offs in offsets)
    blocks = {}

    def block(field, s, t):
        if (field, s, t) not in blocks:
            blocks[field, s, t] = inclusion_matrix(s, t) if field is None else \
                multiplication_matrix(a.phi[field], s, t, derivative=True)
        return blocks[field, s, t]

    diffs = []
    for p in range(g.dim):
        maps = [(None, trivial_ce_differential(g, p))]
        maps += [(i, wedge_matrix(g.dim, p, i)) for i, f in enumerate(a.phi) if not f.is_zero()]
        terms = [(offsets[p + 1][r], offsets[p][c], from_rows([[x]]),
                  block(field, windows[p][c], windows[p + 1][r]))
                 for field, forms in maps for r, c, x in forms.entries()]
        diffs.append(kron_sum(degrees[p + 1], degrees[p], terms))
    return degrees, window_levels(a, n), diffs


def form_windows(a, n: int) -> list[list[int]]:
    """The window w of each basis form of each degree of window n, forms in
    lexicographic order: n + d times the number of the form's slots whose
    field is nonzero, or of all its slots when the zero fields span no
    subalgebra."""
    g, d = a.algebra, a.anchor_degree()
    zero = {i for i, f in enumerate(a.phi) if f.is_zero()}
    if any(i in zero and j in zero and any(k not in zero for k, _ in terms)
           for i, j, terms in g.brackets):
        zero = set()
    return [[n + d * sum(i not in zero for i in form) for form in combinations(range(g.dim), p)]
            for p in range(g.dim + 1)]


def window_levels(a, n: int) -> tuple[tuple[int, ...], ...]:
    """The level of each coordinate of each degree of window n: coordinate j
    of a form on V_w holds harmonic ceil(j/2) and enters at N = that - (w - n)."""
    return tuple(tuple(max(0, (j + 1) // 2 - (w - n)) for w in ws for j in range(2 * w + 1))
                 for ws in form_windows(a, n))


# -- Fraction polynomials and half-angle zero counting -------------------------

Poly = list[Fraction]


def trim(p) -> Poly:
    q = [Fraction(x) for x in p]
    while q and not q[-1]:
        q.pop()
    return q


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(trim(p)) - 1


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def neg(p: Poly) -> Poly:
    return [-x for x in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def scale(p: Poly, c) -> Poly:
    return trim([c * x for x in p])


def mul(p: Poly, q: Poly) -> Poly:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    rem = p[:]
    while rem and len(rem) >= len(q):
        shift = len(rem) - len(q)
        c = rem[-1] / q[-1]
        quot[shift] = c
        for i, y in enumerate(q):
            rem[shift + i] -= c * y
        rem = trim(rem)
    return trim(quot), rem


def derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over Fraction."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return scale(a, 1 / a[-1]) if a else a


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    if not chain[1]:
        chain.pop()
    while len(chain) >= 2:
        r = divmod_poly(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(neg(r))
    return chain


def count_real_roots(p: Poly) -> int:
    """Distinct real roots of a nonzero polynomial, from its Sturm chain."""
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial has every point as a root")

    def variations(signs):
        signs = [s for s in signs if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    chain = sturm_chain(p)
    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s * (-1) ** (len(q) - 1) for s, q in zip(at_plus, chain)]
    return variations(at_minus) - variations(at_plus)


def has_multiple_real_root(p: Poly) -> bool:
    g = poly_gcd(p, derivative(p))
    return degree(g) >= 1 and count_real_roots(g) > 0


def weierstrass_numerator(f) -> Poly:
    """P with f(t) = P(u) / (1+u^2)^deg under u = tan(t/2), from
    cos kt = Re (1+iu)^{2k} / (1+u^2)^k and the matching Im for sin, with
    every power of 1 + u^2 multiplied out."""
    d = f.deg
    t_pow = [[Fraction(1)]]
    for _ in range(d):
        t_pow.append(mul(t_pow[-1], [1, 0, 1]))
    p = scale(t_pow[d], f.constant)
    re, im = [Fraction(1)], []  # (1 + iu)^0
    for k in range(1, d + 1):
        for _ in range(2):  # multiply (re + i im) by (1 + iu)
            re, im = sub(re, [0] + im), add(im, [0] + re)
        term = add(scale(re, cos_coeff(f, k)), scale(im, sin_coeff(f, k)))
        p = add(p, mul(term, t_pow[d - k]))
    return p


def has_zero_on_circle(*fs) -> bool:
    """The fs share a zero: all vanish at pi, or their numerators' gcd has a real root."""
    if all(value_at_quarter(f, 2) == 0 for f in fs):
        return True
    g: Poly = []
    for f in fs:
        g = poly_gcd(g, weierstrass_numerator(f))
    return degree(g) >= 1 and count_real_roots(g) > 0


def count_simple_zeros(f) -> int:
    """Zeros of f on the circle, with f(pi) and f'(pi) read off the values at pi."""
    if f.is_zero():
        raise ValueError("zero trig polynomial")
    at_pi = value_at_quarter(f, 2)
    if at_pi == 0 and value_at_quarter(trig_derivative(f), 2) == 0:
        raise NonsimpleZeroError("zero of f at t = pi is not simple")
    p = weierstrass_numerator(f)
    if has_multiple_real_root(p):
        raise NonsimpleZeroError("f has a repeated zero on the circle")
    return (count_real_roots(p) if degree(p) >= 1 else 0) + (1 if at_pi == 0 else 0)


def outcome(fn, *args):
    """The result of fn(*args), or the (class, message) it raised, so that a
    package function and its reference compare on errors too."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# -- H-structures ---------------------------------------------------------------

def check_h_structure(h) -> bool:
    """Unit law H(x, 0) = H(0, x) = x, then H a morphism of Lie algebras
    against the product bracket [(x,y),(x',y')] = ([x,x'],[y,y']), checked on
    every pair of basis vectors of g + g."""
    g, n = h.algebra, h.algebra.dim
    if h.matrix != addition(g).matrix:
        return False
    images = [matrix_column(h.matrix, a) for a in range(2 * n)]
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            lhs = dense_apply(h.matrix, _pair_bracket(g, a, b))
            if lhs != bracket(g, images[a], images[b]):
                return False
    return True


def _pair_bracket(g, a: int, b: int) -> list[Fraction]:
    n = g.dim
    out = [Fraction(0)] * (2 * n)
    if a < n and b < n:
        out[:n] = bracket_basis(g, a, b)
    elif a >= n and b >= n:
        out[n:] = bracket_basis(g, a - n, b - n)
    return out


# -- the command line as argparse read it --------------------------------------------

class UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for validation
    # failures, so route usage problems through an exception instead.
    def error(self, message):
        raise UsageError(message, self.format_usage())


@cache
def reference_parser() -> _Parser:
    parser = _Parser(prog="algebroid",
                     description="Exact cohomology of Lie algebras and "
                                 "circle algebroids.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    lie = sub.add_parser("lie", help="Lie algebra cohomology")
    lie_sub = lie.add_subparsers(dest="action", required=True, parser_class=_Parser)
    for action in ("cohomology", "euler"):
        p = lie_sub.add_parser(action)
        p.add_argument("algebra", help="algebra JSON file or catalog name")
        p.add_argument("--rep", help="representation JSON file or catalog name")
        p.set_defaults(handler=cli._cmd_lie)

    circle = sub.add_parser("circle", help="truncated algebroid cohomology")
    circle_sub = circle.add_subparsers(dest="action", required=True,
                                       parser_class=_Parser)
    p = circle_sub.add_parser("sweep")
    p.add_argument("algebroid", help="algebroid JSON file or catalog name")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(handler=cli._cmd_circle)

    p = sub.add_parser("kunneth", help="verify a product against the factors")
    p.add_argument("left", help="algebra or algebroid (file or catalog name)")
    p.add_argument("right", help="algebra or algebroid (file or catalog name)")
    p.set_defaults(handler=cli._cmd_kunneth)

    p = sub.add_parser("hopf", help="H-structure and Hopf axioms")
    p.add_argument("algebra", help="algebra JSON file or catalog name")
    p.set_defaults(handler=cli._cmd_hopf)

    p = sub.add_parser("symbol", help="pointwise symbol complex exactness")
    p.add_argument("fiber", help="fiber-data JSON file")
    p.add_argument("--alpha", required=True,
                   help="comma-separated rational covector components")
    p.set_defaults(handler=cli._cmd_symbol)

    p = sub.add_parser("catalog", help="list built-in examples")
    p.set_defaults(handler=cli._cmd_catalog)
    return parser
