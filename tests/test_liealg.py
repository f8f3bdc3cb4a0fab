"""Lie algebra structures and their cochain complexes."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from fixtures import bracket, const
from algebroid import catalog
from algebroid.circle import ActionAlgebroid
from algebroid.errors import DegreeOutOfRangeError, ValidationError
from oracle import bracket_basis, change_basis, euler_characteristic, from_rows, inverse, \
    kron_sum, transpose, truncated_complex
from algebroid.exactlinalg import RationalMatrix, complex_cohomology
from algebroid.exterior import wedge_matrix
from algebroid.kunneth import direct_sum, product_with_lie_algebra
from algebroid.liealg import (
    LieAlgebra,
    Representation,
    adjoint_representation,
    ce_complex,
    ce_differential,
    check_jacobi,
    check_representation,
    jacobi_violation,
    lie_cohomology,
    representation_violation,
    trivial_ce_differential,
    trivial_representation,
)


def test_make_and_bracket():
    g = LieAlgebra.make(2, {(0, 1): {1: 1}}, name="aff1")
    assert bracket_basis(g, 0, 1) == [Fraction(0), Fraction(1)]
    assert bracket_basis(g, 1, 0) == [Fraction(0), Fraction(-1)]
    assert bracket_basis(g, 0, 0) == [Fraction(0), Fraction(0)]
    # bilinearity: [2 e0 + e1, 3 e1] = 6 [e0, e1]
    assert bracket(g, [2, 1], [0, 3]) == [Fraction(0), Fraction(6)]


def test_is_abelian():
    assert catalog.algebra("r3").is_abelian()
    assert not catalog.algebra("su2").is_abelian()


def test_jacobi_catalog_passes():
    for name in ("zero",) + catalog.ALGEBRA_NAMES:
        assert check_jacobi(catalog.algebra(name)), name


def test_jacobi_detects_failure():
    # [e0,e1] = e2 and [e1,e2] = e1 leave a jacobiator of -e2 on (e0,e1,e2)
    bad = LieAlgebra.make(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
    assert not check_jacobi(bad)
    with pytest.raises(ValidationError):
        ce_complex(trivial_representation(bad))


def test_jacobi_violation_names_first_triple():
    for name in ("zero",) + catalog.ALGEBRA_NAMES:
        assert jacobi_violation(catalog.algebra(name)) is None, name
    # e0 is central; on e1, e2, e3 the brackets of test_jacobi_detects_failure
    bad = LieAlgebra.make(4, {(1, 2): {3: 1}, (2, 3): {2: 1}})
    assert jacobi_violation(bad) == (1, 2, 3)
    assert not check_jacobi(bad)
    action = ActionAlgebroid(algebra=bad, phi=(const(0),) * 4)
    for build in (lambda: ce_complex(trivial_representation(bad)),
                  lambda: product_with_lie_algebra(catalog.algebroid("sin_t")[0], bad),
                  lambda: truncated_complex(action, 1)):
        with pytest.raises(ValidationError, match="Jacobi") as err:
            build()
        assert "(1, 2, 3)" in str(err.value)


def test_representation_checks():
    su2 = catalog.algebra("su2")
    assert check_representation(adjoint_representation(su2))
    assert check_representation(trivial_representation(su2, 3))
    # constant identity action cannot represent a nonabelian bracket
    eye = RationalMatrix.identity(2)
    fake = Representation(algebra=su2, dim_e=2, action=(eye, eye, eye))
    assert not check_representation(fake)
    with pytest.raises(ValidationError):
        ce_complex(fake)


def test_differential_golden_aff1():
    # d e^0 = 0 and d e^1 = -e^0 ^ e^1
    d1 = ce_differential(trivial_representation(catalog.algebra("aff1")), 1)
    assert d1.to_rows() == [[Fraction(0), Fraction(-1)]]


def test_differential_golden_su2():
    d1 = ce_differential(trivial_representation(catalog.algebra("su2")), 1)
    # rows are e^01, e^02, e^12; d e^k = -sum c^k_{ij} e^i^e^j
    assert d1.to_rows() == [
        [Fraction(0), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(0)],
    ]


def test_differential_golden_h3():
    rep = trivial_representation(catalog.algebra("h3"))
    d1 = ce_differential(rep, 1)
    assert d1.to_rows() == [
        [Fraction(0), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]
    assert ce_differential(rep, 2).is_zero()


def test_degree_bounds():
    rep = trivial_representation(catalog.algebra("su2"))
    with pytest.raises(DegreeOutOfRangeError):
        ce_differential(rep, 4)
    with pytest.raises(DegreeOutOfRangeError):
        ce_differential(rep, -1)


def test_betti_golden_values():
    cases = {
        "aff1": (1, 1, 0),
        "h3": (1, 2, 2, 1),
        "su2": (1, 0, 0, 1),
        "sl2": (1, 0, 0, 1),
        "r2": (1, 2, 1),
        "diamond4": (1, 1, 0, 1, 1),
    }
    for name, betti in cases.items():
        rep = lie_cohomology(trivial_representation(catalog.algebra(name)))
        assert rep.betti == betti, name


def test_betti_matches_oracle():
    reps = [trivial_representation(catalog.algebra(n))
            for n in ("aff1", "h3", "su2", "sl2", "r3", "diamond4")]
    reps += [adjoint_representation(catalog.algebra(n)) for n in ("su2", "sl2", "h3")]
    reps += [catalog.representation(n) for n in catalog.REPRESENTATION_NAMES]
    for rep in reps:
        cx = ce_complex(rep)
        assert complex_cohomology(cx).betti == tuple(oracle.complex_betti(cx))


def test_nontrivial_coefficients_golden():
    assert lie_cohomology(catalog.representation("aff1_rep2")).betti == (0, 0, 0)
    assert lie_cohomology(catalog.representation("aff1_char")).betti == (0, 1, 1)
    assert lie_cohomology(adjoint_representation(catalog.algebra("su2"))).betti == (0, 0, 0, 0)


def test_euler_vanishes_on_catalog():
    for name in catalog.ALGEBRA_NAMES:
        assert euler_characteristic(trivial_representation(catalog.algebra(name))) == 0


def test_zero_algebra():
    rep = lie_cohomology(trivial_representation(catalog.algebra("zero")))
    assert rep.betti == (1,)
    assert rep.euler == 1
    for k in (1, 2, 3):
        r = lie_cohomology(trivial_representation(catalog.algebra("zero"), k))
        assert r.betti == (k,) and r.euler == k


def test_change_basis_preserves_everything():
    su2 = catalog.algebra("su2")
    p = from_rows([[1, 1, 0], [0, 1, 2], [0, 0, "1/3"]])
    g2 = change_basis(su2, p)
    assert check_jacobi(g2)
    assert g2.brackets != su2.brackets
    assert lie_cohomology(trivial_representation(g2)).betti == (1, 0, 0, 1)
    # changing back recovers the original table
    assert change_basis(g2, inverse(p)).brackets == su2.brackets


def test_change_basis_rejects_singular():
    with pytest.raises(ValueError):
        change_basis(catalog.algebra("su2"),
                     from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))


def test_random_semidirect_products_are_complexes():
    # R acting on R^n by any matrix A: [e0, ei] = sum_j A[j][i] e_j is a
    # solvable algebra for every A, so d^2 = 0 must hold for each sample.
    rng = random.Random(20260818)
    for _ in range(12):
        n = rng.randint(1, 3)
        table = {}
        for i in range(1, n + 1):
            col = {j + 1: Fraction(rng.randint(-3, 3)) for j in range(n)}
            table[(0, i)] = {k: v for k, v in col.items() if v}
        g = LieAlgebra.make(n + 1, table)
        assert check_jacobi(g)
        cx = ce_complex(trivial_representation(g))
        assert cx.chain_defect() is None
        rep = complex_cohomology(cx)
        assert rep.euler == 0
        assert rep.betti == tuple(oracle.complex_betti(cx))


def test_ce_differential_is_coefficient_major():
    # d = I_E (x) d_trivial + sum_i rho_i (x) (e^i ^ -) with the coefficient
    # index major; aff1_rep2 has dim_E = 2 and a non-scalar action.
    r = catalog.representation("aff1_rep2")
    g, n = r.algebra, r.algebra.dim
    rows = oracle.matrix_rows
    for p in range(n):
        terms = [(0, 0, rows(RationalMatrix.identity(2)), rows(trivial_ce_differential(g, p)))]
        terms += [(0, 0, rows(r.action[i]), rows(wedge_matrix(n, p, i))) for i in range(n)]
        dense = oracle.kron_sum_dense(2 * comb(n, p + 1), 2 * comb(n, p), terms)
        assert ce_differential(r, p) == from_rows(dense)


def test_representation_violation_names_the_pair():
    # abelian r3 on Q^2: rho_1 and rho_2 do not commute, so the pair (1, 2) fails
    r3 = catalog.algebra("r3")
    e12 = from_rows([[0, 1], [0, 0]])
    rep = Representation(algebra=r3, dim_e=2,
                         action=(RationalMatrix.zeros(2, 2), e12, transpose(e12)))
    assert representation_violation(rep) == (1, 2)
    assert not check_representation(rep)
    assert representation_violation(adjoint_representation(catalog.algebra("su2"))) is None
    with pytest.raises(ValidationError, match=r"on basis pair \(1, 2\)"):
        ce_complex(rep)


def test_ce_differential_skips_zero_actions_without_changing_it():
    # The reference keeps a wedge term for every basis vector, zero actions included.
    algebras = [catalog.algebra(name) for name in ("zero",) + catalog.ALGEBRA_NAMES]
    algebras += [direct_sum(catalog.algebra(a), catalog.algebra(b))
                 for a, b in (("su2", "diamond4"), ("r2", "r3"))]
    reps = [build(g) for g in algebras for build in (
        trivial_representation, lambda g: trivial_representation(g, 2), adjoint_representation)]
    reps += [catalog.representation(name) for name in catalog.REPRESENTATION_NAMES]
    for r in reps:
        n, e = r.algebra.dim, r.dim_e
        for p in range(n):
            terms = [(0, 0, RationalMatrix.identity(e), trivial_ce_differential(r.algebra, p))]
            terms += [(0, 0, r.action[i], wedge_matrix(n, p, i)) for i in range(n)]
            reference = kron_sum(e * comb(n, p + 1), e * comb(n, p), terms)
            assert ce_differential(r, p) == reference, (r.algebra.name, p)


@st.composite
def bracket_tables(draw):
    """Structure constants on dim <= 6, Jacobi or not; most pairs unbracketed."""
    n = draw(st.integers(0, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2),
                                        min_size=1, max_size=2))
             for pair in pairs if draw(st.integers(0, 3)) == 0}
    return LieAlgebra.make(n, table)


def _solvable4(c: int) -> LieAlgebra:
    # [e0, e1] = e1, [e0, e2] = e2, [e1, e2] = e3, [e0, e3] = c e3: a Lie algebra for c = 2;
    # the Jacobi sum on (0, 1, 2) is (2 - c) e3, and each of its terms has a bracket partner
    return LieAlgebra.make(4, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {3: 1}, (0, 3): {3: c}})


@settings(max_examples=300, deadline=None)
@given(bracket_tables())
@example(direct_sum(catalog.algebra("su2"), catalog.algebra("diamond4")))
@example(direct_sum(catalog.algebra("su2"), _solvable4(2)))
@example(direct_sum(catalog.algebra("su2"), _solvable4(3)))  # violated on (3, 4, 5)
def test_jacobi_violation_matches_the_loop_over_every_triple(g):
    # the package visits only a bracketed pair with a bracket partner of one of its
    # targets; the first violation must not move
    assert jacobi_violation(g) == oracle.jacobi_violation(g)
    assert check_jacobi(g) == (oracle.jacobi_violation(g) is None)


def test_jacobi_skips_the_central_indices_of_a_hostile_dimension():
    # [e0, e1] = e2 in dimension 10^6: every other e_k is central, so no triple
    # holding one is visited and nothing is allocated per basis vector
    g = LieAlgebra.make(1_000_000, {(0, 1): {2: 1}})
    tracemalloc.start()
    try:
        assert check_jacobi(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def stored(m):
    return m.rows, m.cols, m._num, m._den


def test_catalog_ce_differentials_store_the_reference_rows():
    # the mask loop against tuple wedges summed by kron_sum, every term kept
    algebras = [catalog.algebra(name) for name in ("zero",) + catalog.ALGEBRA_NAMES]
    algebras += [direct_sum(catalog.algebra(a), catalog.algebra(b))
                 for a, b in (("su2", "diamond4"), ("r2", "r3"))]
    reps = [build(g) for g in algebras for build in (
        trivial_representation, lambda g: trivial_representation(g, 2), adjoint_representation)]
    reps += [catalog.representation(name) for name in catalog.REPRESENTATION_NAMES]
    for r in reps:
        whole = ce_complex(r).differentials  # one form_columns call for every degree
        for p in range(r.algebra.dim + 1):
            reference = stored(oracle.ce_differential(r, p))
            assert stored(ce_differential(r, p)) == reference, (r.algebra.name, r.dim_e, p)
            if p < r.algebra.dim:
                assert stored(whole[p]) == reference, (r.algebra.name, r.dim_e, p)
            assert stored(trivial_ce_differential(r.algebra, p)) == \
                stored(oracle.trivial_ce_differential(r.algebra, p))


def test_adjoint_matrices_store_the_dense_bracket_columns():
    # ad_i is written from the bracket table as integer columns; column j of the
    # reference is [e_i, e_j] as a dense Fraction vector through from_entries
    algebras = [catalog.algebra(name) for name in ("zero",) + catalog.ALGEBRA_NAMES]
    algebras += [direct_sum(catalog.algebra(a), catalog.algebra(b))
                 for a, b in (("su2", "diamond4"), ("r2", "r3"), ("aff1", "h3"))]
    algebras += [change_basis(catalog.algebra(name),
                              from_rows([[F(1, 2), 1, 0], [0, F(2, 3), 0], [0, F(-1, 5), 3]]))
                 for name in ("su2", "sl2", "h3")]
    for g in algebras:
        for i, ad in enumerate(adjoint_representation(g).action):
            reference = RationalMatrix.from_entries(g.dim, g.dim, [
                ((k, j), c) for j in range(g.dim) for k, c in enumerate(bracket_basis(g, i, j))])
            assert stored(ad) == stored(reference), (g.name, i)


F = Fraction
constants = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-2, 3),
                             F(3, 2)])


def semidirect(a) -> LieAlgebra:
    """R x_A Q^m: [e0, ei] = sum_k A[k][i] ek."""
    m = len(a)
    return LieAlgebra.make(m + 1, {(0, i + 1): {k + 1: a[k][i] for k in range(m)}
                                   for i in range(m)})


@st.composite
def solvable_representations(draw):
    """R acting on Q^m (m <= 4) by a matrix A, [e0, ei] = sum_k A[k][i] ek, half
    the time singular, with its trivial (of dim 1, 0 or 2) or adjoint
    representation or a random character: chi(e0) anything and chi on Q^m in
    the left kernel of A, so chi kills [g, g]."""
    m = draw(st.integers(0, 4))
    a = [[draw(constants) for _ in range(m)] for _ in range(m)]
    if m and draw(st.booleans()):  # a singular A, whose left kernel carries characters
        a[-1] = [draw(constants) * x for x in a[0]] if m > 1 else [F(0)]
    g = semidirect(a)
    kind = draw(st.sampled_from(["trivial", "trivial0", "trivial2", "adjoint", "character"]))
    if kind.startswith("trivial"):
        return trivial_representation(g, int(kind[7:] or 1))
    if kind == "adjoint":
        return adjoint_representation(g)
    left_kernel = oracle.kernel_basis(from_rows(
        [list(col) for col in zip(*a)])) if m else []
    coeffs = [draw(constants) for _ in left_kernel]
    mu = [sum((c * v[k] for c, v in zip(coeffs, left_kernel)), F(0)) for k in range(m)]
    chi = [draw(constants), *mu]
    return Representation(g, 1, tuple(from_rows([[x]]) for x in chi))


@settings(max_examples=150, deadline=None)
@given(solvable_representations())
def test_ce_differentials_store_the_reference_rows(r):
    assert representation_violation(r) is None
    assert oracle.representation_violation(r) is None
    whole = ce_complex(r).differentials  # one form_columns call for every degree
    for p in range(r.algebra.dim + 1):
        reference = stored(oracle.ce_differential(r, p))
        assert stored(ce_differential(r, p)) == reference, p
        if p < r.algebra.dim:
            assert stored(whole[p]) == reference, p
        assert stored(trivial_ce_differential(r.algebra, p)) == \
            stored(oracle.trivial_ce_differential(r.algebra, p)), p


def bumped(r: Representation, i: int, a: int, b: int, delta: int) -> Representation:
    """r with delta added to entry (a, b) of the action of e_i."""
    rho = r.action[i]
    entry = RationalMatrix.from_entries(
        r.dim_e, r.dim_e, [*(((k, l), x) for k, l, x in rho.entries()), ((a, b), delta)])
    return Representation(r.algebra, r.dim_e, r.action[:i] + (entry,) + r.action[i + 1:])


@settings(max_examples=200, deadline=None)
@given(solvable_representations(), st.data())
def test_representation_violation_names_the_reference_pair(r, data):
    assume(r.dim_e > 0)  # no entry to change
    i = data.draw(st.integers(0, r.algebra.dim - 1))
    a, b = (data.draw(st.integers(0, r.dim_e - 1)) for _ in range(2))
    r = bumped(r, i, a, b, data.draw(st.sampled_from([-1, 1])))
    assert representation_violation(r) == oracle.representation_violation(r)
    assert check_representation(r) == (oracle.representation_violation(r) is None)


def test_representation_violation_names_the_reference_pair_on_the_catalog():
    reps = [adjoint_representation(catalog.algebra(name)) for name in ("su2", "aff1", "h3")]
    reps += [catalog.representation(name) for name in catalog.REPRESENTATION_NAMES]
    for r in reps:
        for i in range(r.algebra.dim):
            for a in range(r.dim_e):
                for b in range(r.dim_e):
                    for delta in (-1, 1):
                        s = bumped(r, i, a, b, delta)
                        assert representation_violation(s) == oracle.representation_violation(s)


@st.composite
def codim1_representations(draw):
    """(x, E): R e0 acting on Q^m (m <= 5) by an integer matrix A with entries
    in -2..2, [e0, ei] = sum_k A[k][i] ek, half the time summed with r1 on
    either side (r1 joins the ideal), with trivial coefficients or a
    character that is lambda on e0 and zero on the ideal; x is e0's index."""
    m = draw(st.integers(0, 5))
    g = semidirect([[draw(st.integers(-2, 2)) for _ in range(m)] for _ in range(m)])
    x, side = 0, draw(st.sampled_from(["none", "left", "right"]))
    if side == "left":
        g, x = direct_sum(catalog.algebra("r1"), g), 1
    elif side == "right":
        g = direct_sum(g, catalog.algebra("r1"))
    if draw(st.booleans()):
        return x, trivial_representation(g)
    lam = draw(constants)
    return x, Representation(g, 1, tuple(from_rows([[lam if i == x else 0]])
                                         for i in range(g.dim)))


@settings(max_examples=120, deadline=None)
@given(codim1_representations())
def test_betti_numbers_match_hochschild_serre_along_a_codim1_ideal(case):
    x, r = case
    assert lie_cohomology(r).betti == oracle.codim1_prediction(r.algebra, x, r)


def test_hochschild_serre_prediction_on_the_exterior_counterexample():
    # R acting on Q^4, whose Betti vector (1, 1, 0, 1, 1, 0) factors as
    # (1 + t)(1 + t^3) although H is not exterior on degrees 1 and 3
    g = LieAlgebra.make(5, {(0, 1): {3: -1, 4: -1}, (0, 2): {1: 2, 2: 1, 3: 1},
                            (0, 3): {2: 2}, (0, 4): {1: -1, 3: -1}})
    r = trivial_representation(g)
    assert oracle.codim1_prediction(g, 0, r) == lie_cohomology(r).betti == (1, 1, 0, 1, 1, 0)
    su2 = catalog.algebra("su2")
    with pytest.raises(ValueError):  # no codimension-one ideal is abelian
        oracle.codim1_prediction(su2, 0, trivial_representation(su2))


def assert_twisted_poincare_duality(r: Representation) -> None:
    # H^p(g; E) = H^{n-p}(g; E* (x) Lambda^n g)^*: a second complex, whose
    # assembly and elimination errors would not cancel with the first's
    assert lie_cohomology(r).betti == lie_cohomology(oracle.twisted_dual(r)).betti[::-1]


DUALITY_CASES = {
    **{f"{name}-{kind}": (name, kind) for name in catalog.ALGEBRA_NAMES
       for kind in ("trivial", "adjoint")},
    **{name: (name, "catalog") for name in catalog.REPRESENTATION_NAMES},
    "aff1+h3-adjoint": ("aff1+h3", "adjoint"),
}


@pytest.mark.parametrize("name, kind", DUALITY_CASES.values(), ids=DUALITY_CASES)
def test_twisted_poincare_duality_on_the_catalog(name, kind):
    if kind == "catalog":
        r = catalog.representation(name)
    else:
        g = direct_sum(*map(catalog.algebra, name.split("+"))) if "+" in name \
            else catalog.algebra(name)
        r = (trivial_representation if kind == "trivial" else adjoint_representation)(g)
    assert_twisted_poincare_duality(r)


def test_twisted_dual_is_a_representation_with_the_modular_twist():
    # aff1: tr ad e0 = 1, so its trivial dual is the character 1 on e0, and
    # the asymmetric vectors (1, 1, 0) and (0, 1, 1) match only through it
    twisted = oracle.twisted_dual(trivial_representation(catalog.algebra("aff1")))
    assert [oracle.matrix_rows(m) for m in twisted.action] == [[[1]], [[0]]]
    assert lie_cohomology(twisted).betti == (0, 1, 1)
    assert check_representation(twisted)


@settings(max_examples=150, deadline=None)
@given(solvable_representations())
def test_twisted_poincare_duality_on_solvable_algebras(r):
    assert check_representation(oracle.twisted_dual(r))
    assert_twisted_poincare_duality(r)


def convolve(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_adjoint_betti_at_the_budget_edge_match_the_direct_sum_prediction():
    # The adjoint module of g + h is ad g (x) Q plus Q (x) ad h, so by Kunneth
    # b(g + h; ad) = b(g; ad) * b(h; triv) + b(g; triv) * b(h; ad), with * the
    # convolution, read off the factors' small complexes.  The sum here is of
    # dim 14, and its adjoint complex of 14 * 2^14 cochains is near MAX_COCHAINS.
    factors = [catalog.algebra(name) for name in ("su2", "su2", "diamond4", "diamond4")]
    ad, triv = [0], [1]  # the zero algebra
    for h in factors:
        h_ad = lie_cohomology(adjoint_representation(h)).betti
        h_triv = lie_cohomology(trivial_representation(h)).betti
        ad = [x + y for x, y in zip(convolve(ad, h_triv), convolve(triv, h_ad))]
        triv = convolve(triv, h_triv)
    c = ce_complex(adjoint_representation(reduce(direct_sum, factors)))
    assert sum(c.degrees) == 229376
    assert list(complex_cohomology(c).betti) == ad


# -- the split into summands ---------------------------------------------------

def eye(d: int) -> list[list[Fraction]]:
    return [[F(int(i == j)) for j in range(d)] for i in range(d)]


def summand_module(draw, h: LieAlgebra, kind: str) -> list[list[list[Fraction]]]:
    """One dense matrix per basis vector of h: its adjoint module, or a
    character that is zero on every bracket target, so it kills [h, h]."""
    if kind == "adjoint":
        return [oracle.matrix_rows(m) for m in adjoint_representation(h).action]
    targets = {k for _, _, terms in h.brackets for k, _ in terms}
    return [[[F(0) if x in targets else draw(constants)]] for x in range(h.dim)]


@st.composite
def direct_sum_representations(draw):
    """A sum of two or three catalog algebras and R x_A Q^m (m <= 3), with
    trivial, adjoint or block coefficients, in a basis e'_j = s_j e_perm[j]
    and with E's coordinates permuted.  A block is a character or the
    adjoint module of one summand, tensored with characters of up to one
    other summand, which couples the two summands' factors."""
    parts = []
    for _ in range(draw(st.integers(2, 3))):
        if draw(st.booleans()):
            parts.append(catalog.algebra(draw(st.sampled_from(
                ["su2", "sl2", "h3", "aff1", "diamond4", "r1", "r2"]))))
        else:
            m = draw(st.integers(0, 3))
            parts.append(semidirect([[draw(st.integers(-2, 2)) for _ in range(m)]
                                     for _ in range(m)]))
    g = reduce(direct_sum, parts)
    n = g.dim
    assume(n <= 8)
    kind = draw(st.sampled_from(["trivial", "adjoint", "blocks"]))
    if kind == "trivial":
        e = draw(st.integers(0, 2))
        rho = [[[F(0)] * e for _ in range(e)] for _ in range(n)]
    elif kind == "adjoint":
        e, rho = n, [oracle.matrix_rows(m) for m in adjoint_representation(g).action]
    else:
        blocks = []
        for _ in range(draw(st.integers(1, 3))):
            d, action = 1, [None] * n  # None acts by zero
            chosen = draw(st.lists(st.integers(0, len(parts) - 1), min_size=1, max_size=2,
                                   unique=True))
            for t, s in enumerate(chosen):
                module = summand_module(draw, parts[s], draw(st.sampled_from(
                    ["adjoint", "character"])) if t == 0 else "character")
                k, lo = len(module[0]), sum(h.dim for h in parts[:s])
                action = [oracle._kron(eye(d), module[x - lo]) if lo <= x < lo + parts[s].dim
                          else a and oracle._kron(a, eye(k)) for x, a in enumerate(action)]
                d *= k
            blocks.append((d, action))
        e = sum(d for d, _ in blocks)
        rho = [[[F(0)] * e for _ in range(e)] for _ in range(n)]
        at = 0
        for d, action in blocks:
            for x, a in enumerate(action):
                for i, row in enumerate(a or ()):
                    rho[x][at + i][at:at + d] = row
            at += d
    assume(e << n <= 1024)
    perm = draw(st.permutations(range(n)))
    scales = draw(st.lists(st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 2), F(-2, 3)]),
                           min_size=n, max_size=n))
    sigma = draw(st.permutations(range(e)))
    p = RationalMatrix.from_entries(n, n, [((i, j), scales[j]) for j, i in enumerate(perm)])
    action = []
    for j in range(n):
        m = [[F(0)] * e for _ in range(e)]
        for a in range(e):
            for b in range(e):
                m[sigma[a]][sigma[b]] = scales[j] * rho[perm[j]][a][b]
        action.append(from_rows(m, e, e))
    return Representation(change_basis(g, p), e, tuple(action))


def character(g: LieAlgebra, values) -> Representation:
    return Representation(g, 1, tuple(from_rows([[x]]) for x in values))


@settings(max_examples=200, deadline=None)
@given(direct_sum_representations())
# a character nonzero on both summands joins aff1 and h3 into one factor
@example(character(direct_sum(catalog.algebra("aff1"), catalog.algebra("h3")), [1, 0, 2, -1, 0]))
@example(trivial_representation(direct_sum(catalog.algebra("su2"), catalog.algebra("aff1")), 0))
@example(trivial_representation(catalog.algebra("r4")))  # bracket-free: the binomial row alone
@example(trivial_representation(catalog.algebra("zero")))
def test_split_equals_the_full_path(r):
    assert check_representation(r)
    assert lie_cohomology(r) == complex_cohomology(ce_complex(r))
