"""Lie algebra structures and their cochain complexes."""

import random
from fractions import Fraction
from math import comb

import pytest

import oracle
from algebroid import catalog
from algebroid.circle import ActionAlgebroid, TrigPoly, truncated_complex
from algebroid.errors import DegreeOutOfRangeError, ValidationError
from algebroid.exactlinalg import RationalMatrix, complex_cohomology, inverse
from algebroid.exterior import wedge_matrix
from algebroid.kunneth import product_with_lie_algebra
from algebroid.liealg import (
    LieAlgebra,
    Representation,
    adjoint_representation,
    bracket,
    bracket_basis,
    ce_complex,
    ce_differential,
    change_basis,
    check_jacobi,
    check_representation,
    euler_characteristic,
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
    action = ActionAlgebroid(algebra=bad, phi=(TrigPoly.const(0),) * 4)
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
    p = RationalMatrix.from_rows([[1, 1, 0], [0, 1, 2], [0, 0, "1/3"]])
    g2 = change_basis(su2, p)
    assert check_jacobi(g2)
    assert g2.brackets != su2.brackets
    assert lie_cohomology(trivial_representation(g2)).betti == (1, 0, 0, 1)
    # changing back recovers the original table
    assert change_basis(g2, inverse(p)).brackets == su2.brackets


def test_change_basis_rejects_singular():
    with pytest.raises(ValueError):
        change_basis(catalog.algebra("su2"),
                     RationalMatrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))


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
        assert ce_differential(r, p) == RationalMatrix.from_rows(dense)


def test_representation_violation_names_the_pair():
    # abelian r3 on Q^2: rho_1 and rho_2 do not commute, so the pair (1, 2) fails
    r3 = catalog.algebra("r3")
    e12 = RationalMatrix.from_rows([[0, 1], [0, 0]])
    rep = Representation(algebra=r3, dim_e=2,
                         action=(RationalMatrix.zeros(2, 2), e12, e12.transpose()))
    assert representation_violation(rep) == (1, 2)
    assert not check_representation(rep)
    assert representation_violation(adjoint_representation(catalog.algebra("su2"))) is None
    with pytest.raises(ValidationError, match=r"on basis pair \(1, 2\)"):
        ce_complex(rep)
