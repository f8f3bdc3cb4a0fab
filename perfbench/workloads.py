"""Seeded inputs and job lists for the four benchmark workloads.

Every input the program reads is generated here from `--seed` and written
as a JSON file; the program never sees the seed.  A seed changes numbers,
never sizes: algebras get a monomial change of basis (a permutation times a
diagonal of small nonzero rationals) that carries the action fields phi
along, rank-1 anchors are rescaled by a nonzero rational, and symbol fibers
are random surjective anchors with a random nonzero covector.  None of
these changes can move a Betti number, so the goldens do not depend on the
seed.

The canonical structure constants are written out here rather than read
from the package's catalog, so a change to the catalog cannot change the
benchmark's inputs.

Each job carries `cochains`: the sum of dim C^p over the complexes its
result is a statement about, computed from the input's dimensions alone.
It is the work unit of the `cochains_per_s` throughput figure and does not
depend on how the program solves those complexes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

# Brackets {(i, j): {k: c}} with i < j, meaning [e_i, e_j] = sum_k c e_k.
ALGEBRAS = {
    "su2": (3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}),
    "sl2": (3, {(0, 1): {2: -2}, (0, 2): {1: 2}, (1, 2): {0: 2}}),
    "h3": (3, {(0, 1): {2: 1}}),
    "aff1": (2, {(0, 1): {1: 1}}),
    "diamond4": (4, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {3: 1}}),
}

# (constant, ((kind, k, coeff), ...)) per basis vector of sl2, as in sl2_action.
SL2_PHI = ((1, ()), (0, (("cos", 2, 1),)), (0, (("sin", 2, 1),)))

# The diagonal of a basis change is a shuffled prefix of SCALES, and an
# anchor is rescaled by one entry of ANCHOR_SCALES; the entries are close in
# size so that no seed makes the exact arithmetic much dearer than another.
SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-2", "3/2", "-2/3", "3", "-1/2"))
ANCHOR_SCALES = tuple(Fraction(s) for s in ("2", "-3", "3/2", "-2/3", "5/4"))

WORKLOADS = ("ce-adjoint", "window-sweep", "kunneth-product", "catalog-mix")


# -- algebra ---------------------------------------------------------------

def _structure(dim, brackets):
    """Full antisymmetric table c[i][j] = {k: coeff} from the i < j form."""
    c = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in brackets.items():
        for k, v in terms.items():
            v = Fraction(v)
            if v:
                c[i][j][k] = v
                c[j][i][k] = -v
    return c


def direct_sum(a, b):
    (n, ba), (m, bb) = a, b
    table = dict(ba)
    for (i, j), terms in bb.items():
        table[(i + n, j + n)] = {k + n: v for k, v in terms.items()}
    return n + m, table


class BasisChange:
    """e'_j = d_j e_{perm[j]}: a permutation times a diagonal."""

    def __init__(self, rng: random.Random, dim: int):
        self.perm = list(range(dim))
        rng.shuffle(self.perm)
        scales = list(SCALES[:dim])
        rng.shuffle(scales)
        self.d = scales
        self.inv = {p: j for j, p in enumerate(self.perm)}

    def algebra(self, dim, brackets):
        """Structure constants in the new basis, in the i < j form."""
        c = _structure(dim, brackets)
        out = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                terms = {}
                for k, v in c[self.perm[i]][self.perm[j]].items():
                    l = self.inv[k]
                    terms[l] = self.d[i] * self.d[j] * v / self.d[l]
                if terms:
                    out[(i, j)] = terms
        return dim, out

    def action_matrices(self, mats):
        """rho'(e'_j) = d_j rho(e_{perm[j]})."""
        return [[[self.d[j] * x for x in row] for row in mats[self.perm[j]]]
                for j in range(len(mats))]

    def phi(self, phi):
        return [(self.d[j] * phi[self.perm[j]][0],
                 tuple((kind, k, self.d[j] * c) for kind, k, c in phi[self.perm[j]][1]))
                for j in range(len(phi))]


def adjoint(dim, brackets):
    """ad(e_i)[k][j] = coefficient of e_k in [e_i, e_j]."""
    c = _structure(dim, brackets)
    return [[[c[i][j].get(k, Fraction(0)) for j in range(dim)] for k in range(dim)]
            for i in range(dim)]


# -- wire format -----------------------------------------------------------

def _q(x) -> str:
    return str(Fraction(x))


def algebra_json(dim, brackets, name=""):
    return {"name": name, "dim": dim, "brackets": [
        {"i": i, "j": j, "coeffs": [[k, _q(v)] for k, v in sorted(terms.items())]}
        for (i, j), terms in sorted(brackets.items())]}


def trig_string(constant, terms) -> str:
    parts = [_q(constant)] if constant else []
    parts += [f"{_q(c)}*{kind}({k}t)" for kind, k, c in terms if c]
    return " + ".join(parts) if parts else "0"


def matrix_json(m):
    return [[_q(x) for x in row] for row in m]


# -- complex sizes ---------------------------------------------------------

def window_cochains(gdim, degree, n):
    """Sum over p of dim C^p of one window-n complex of an action algebroid
    with a gdim-dimensional algebra (a rank-1 anchor has gdim = 1)."""
    return sum(comb(gdim, p) * (2 * (n + p * degree) + 1) for p in range(gdim + 1))


def sweep_cochains(gdim, degree, n_min, n_max):
    return sum(window_cochains(gdim, degree, n) for n in range(n_min, n_max + 1))


# -- generator -------------------------------------------------------------

class _Writer:
    def __init__(self, directory: Path, rng: random.Random):
        self.dir = directory
        self.rng = rng
        self.jobs = []

    def write(self, name, obj) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def job(self, name, argv, cochains):
        self.jobs.append({"name": name, "argv": argv, "cochains": cochains})

    def algebra(self, label, dim, brackets):
        """A seeded copy of an algebra, written to a file: (change, dim, table, path)."""
        change = BasisChange(self.rng, dim)
        dim, table = change.algebra(dim, brackets)
        return change, dim, table, self.write(label, algebra_json(dim, table, label))

    def adjoint_job(self, label, algebra):
        _, dim, table, path = self.algebra(label, *algebra)
        rep = self.write(f"{label}_ad", {"dim_E": dim, "action": [
            matrix_json(m) for m in adjoint(dim, table)]})
        self.job(f"adjoint-{label}", ["lie", "cohomology", path, "--rep", rep], dim * 2 ** dim)

    def sl2_action(self, label, n_min, n_max):
        change = BasisChange(self.rng, ALGEBRAS["sl2"][0])
        dim, table = change.algebra(*ALGEBRAS["sl2"])
        phi = [trig_string(c, t) for c, t in change.phi(SL2_PHI)]
        path = self.write(label, {"kind": "action", "g": algebra_json(dim, table, "sl2"),
                                  "phi": phi, "N_range": [n_min, n_max]})
        return path, sweep_cochains(dim, 2, n_min, n_max)

    def sine(self, label, k, n_min, n_max):
        c = self.rng.choice(ANCHOR_SCALES)
        path = self.write(label, {"kind": "rank1", "p": trig_string(0, (("sin", k, c),)),
                                  "N_range": [n_min, n_max]})
        return path, sweep_cochains(1, k, n_min, n_max)

    def fiber(self, label, dim_a, dim_m, dim_e):
        """A random surjective anchor and a random nonzero covector."""
        while True:
            anchor = [[Fraction(self.rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(dim_a)]
                      for _ in range(dim_m)]
            if _rank(anchor) == dim_m:
                break
        alpha = [0] * dim_m
        while not any(alpha):
            alpha = [self.rng.randint(-3, 3) for _ in range(dim_m)]
        path = self.write(label, {"dim_A": dim_a, "dim_M": dim_m, "dim_E": dim_e,
                                  "anchor": matrix_json(anchor)})
        # `--alpha=` form, because a leading minus sign would read as an option
        self.job(f"symbol-{label}", ["symbol", path, "--alpha=" + ",".join(map(str, alpha))],
                 dim_e * 2 ** dim_a)


def _rank(rows) -> int:
    a = [list(r) for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _ce_adjoint(w: _Writer):
    w.adjoint_job("su2_diamond4", direct_sum(ALGEBRAS["su2"], ALGEBRAS["diamond4"]))
    w.adjoint_job("h3_aff1", direct_sum(ALGEBRAS["h3"], ALGEBRAS["aff1"]))
    for label in ("su2", "sl2", "h3", "aff1", "diamond4"):
        w.adjoint_job(label, ALGEBRAS[label])


def _window_sweep(w: _Writer):
    path, cochains = w.sl2_action("sl2_action", 4, 16)
    w.job("sweep-sl2_action", ["circle", "sweep", path], cochains)
    for k, n_max in ((1, 60), (2, 24)):
        path, cochains = w.sine(f"sin{k}", k, 3, n_max)
        w.job(f"sweep-sin{k}", ["circle", "sweep", path], cochains)


def _kunneth_product(w: _Writer):
    roid, roid_cochains = w.sl2_action("sl2_action", 4, 7)
    _, dim, _, su2 = w.algebra("su2", *ALGEBRAS["su2"])
    ce = 2 ** dim
    # the factor's sweep, the product's sweep (window x CE of su2), and su2 alone
    w.job("kunneth-sl2_action-su2", ["kunneth", roid, su2], roid_cochains * (1 + ce) + ce)


def _catalog_mix(w: _Writer):
    w.job("catalog", ["catalog"], 0)
    files = {}
    for label in ("su2", "sl2", "h3", "aff1", "diamond4"):
        change, dim, _, path = w.algebra(label, *ALGEBRAS[label])
        files[label] = (change, dim, path)
        w.job(f"lie-cohomology-{label}", ["lie", "cohomology", path], 2 ** dim)
    for label in ("h3", "diamond4"):
        w.job(f"lie-euler-{label}", ["lie", "euler", files[label][2]], 2 ** files[label][1])
    change, dim, path = files["aff1"]
    rep2 = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    rep = w.write("aff1_rep2", {"dim_E": 2, "action": [
        matrix_json(m) for m in change.action_matrices(rep2)]})
    w.job("lie-cohomology-aff1-rep2", ["lie", "cohomology", path, "--rep", rep], 2 * 2 ** dim)
    w.job("lie-cohomology-aff1-char-catalog",
          ["lie", "cohomology", "aff1", "--rep", "aff1_char"], 4)
    w.job("lie-cohomology-h3-catalog", ["lie", "cohomology", "h3"], 8)

    for k in (1, 2):
        path, cochains = w.sine(f"sin{k}", k, 3, 8)
        w.job(f"circle-sin{k}", ["circle", "sweep", path], cochains)
    c = w.rng.choice(ANCHOR_SCALES)
    path = w.write("r_action", {"kind": "action", "g": algebra_json(1, {}, "r1"),
                                "phi": [trig_string(c, ())], "N_range": [3, 6]})
    w.job("circle-r_action", ["circle", "sweep", path], sweep_cochains(1, 0, 3, 6))
    w.job("circle-const1-catalog", ["circle", "sweep", "const1"], sweep_cochains(1, 0, 3, 6))
    path, cochains = w.sl2_action("sl2_action", 2, 4)
    w.job("circle-sl2_action", ["circle", "sweep", path], cochains)

    h3_dim, aff1_dim = files["h3"][1], files["aff1"][1]
    w.job("kunneth-h3-aff1", ["kunneth", files["h3"][2], files["aff1"][2]],
          2 ** h3_dim + 2 ** aff1_dim + 2 ** (h3_dim + aff1_dim))
    w.job("kunneth-su2-r2", ["kunneth", files["su2"][2], "r2"], 8 + 4 + 32)
    path, cochains = w.sine("kunneth_sin1", 1, 3, 5)
    w.job("kunneth-sin1-r1", ["kunneth", path, "r1"], cochains * (1 + 2) + 2)

    for n in (1, 2, 3, 4):
        w.job(f"hopf-r{n}", ["hopf", f"r{n}"], 2 ** n)
    for label in ("su2", "h3"):
        w.job(f"hopf-{label}", ["hopf", files[label][2]], 2 ** files[label][1])

    for dim_a, dim_m, dim_e in ((3, 1, 1), (4, 2, 1), (4, 1, 2), (5, 2, 1), (5, 3, 1), (6, 2, 1)):
        w.fiber(f"fiber_a{dim_a}_m{dim_m}_e{dim_e}", dim_a, dim_m, dim_e)


_BUILDERS = {
    "ce-adjoint": _ce_adjoint,
    "window-sweep": _window_sweep,
    "kunneth-product": _kunneth_product,
    "catalog-mix": _catalog_mix,
}


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's inputs for `seed` into `directory`; return its jobs."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    w = _Writer(directory, rng)
    _BUILDERS[workload](w)
    return w.jobs
