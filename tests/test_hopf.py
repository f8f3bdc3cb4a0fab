"""H-structures, coproducts, and Hopf axioms of cohomology."""

from fractions import Fraction

import pytest

from algebroid import catalog
from algebroid.errors import NotAbelianError
from algebroid.exactlinalg import RationalMatrix
from algebroid.hopf import (
    GradedCoalgebra,
    HStructure,
    addition,
    addition_coproduct,
    antipode_matrices,
    check_h_structure,
    exterior_structure_check,
    hopf_axioms,
    primitives,
    ts1_coalgebra,
    verify_hopf,
)

F = Fraction


def test_addition_is_h_structure_on_abelian():
    for name in ("r1", "r2", "r3", "r4"):
        assert check_h_structure(addition(catalog.algebra(name))), name


def test_addition_fails_on_nonabelian():
    for name in ("su2", "sl2", "h3", "aff1", "diamond4"):
        assert not check_h_structure(addition(catalog.algebra(name))), name


def test_scaled_addition_violates_unit_law():
    r2 = catalog.algebra("r2")
    m = RationalMatrix.from_rows([[1, 0, 2, 0], [0, 1, 0, 2]])  # H(x,y) = x + 2y
    assert not check_h_structure(HStructure(algebra=r2, matrix=m))


def test_h_structure_shape_validation():
    with pytest.raises(ValueError):
        HStructure(algebra=catalog.algebra("r2"), matrix=RationalMatrix.identity(2))


def test_addition_coproduct_requires_abelian():
    with pytest.raises(NotAbelianError):
        addition_coproduct(catalog.algebra("su2"))


def test_coproduct_golden_degree_two():
    # D(w0 ^ w1) = w0^w1 (x) 1 + w0 (x) w1 - w1 (x) w0 + 1 (x) w0^w1
    c = addition_coproduct(catalog.algebra("r2"))
    assert c.betti == (1, 2, 1)
    terms = c.coproduct_terms(2, [F(1)])
    assert terms == {
        (0, 2, 0, 0): F(1),
        (1, 1, 0, 1): F(1),
        (1, 1, 1, 0): F(-1),
        (2, 0, 0, 0): F(1),
    }


def test_coproduct_primitive_generators():
    c = addition_coproduct(catalog.algebra("r3"))
    terms = c.coproduct_terms(1, [F(1), F(0), F(0)])
    assert terms == {(0, 1, 0, 0): F(1), (1, 0, 0, 0): F(1)}
    dims = [len(p) for p in primitives(c)]
    assert dims == [0, 3, 0, 0]


def test_multiply_graded_commutative():
    c = addition_coproduct(catalog.algebra("r3"))
    u, v = [F(1), F(0), F(0)], [F(0), F(1), F(0)]
    uv = c.multiply(1, 1, u, v)
    vu = c.multiply(1, 1, v, u)
    assert uv == [-x for x in vu]
    assert any(uv)
    # squares of odd elements vanish
    assert not any(c.multiply(1, 1, u, u))


def test_hopf_axioms_abelian():
    for name in ("r1", "r2", "r3", "r4"):
        c = addition_coproduct(catalog.algebra(name))
        report = hopf_axioms(c)
        assert report.counit and report.coassociative, name
        assert report.algebra_morphism and report.antipode, name
        assert verify_hopf(c), name


def test_antipode_is_parity():
    c = addition_coproduct(catalog.algebra("r3"))
    mats = antipode_matrices(c)
    assert mats is not None
    for r, m in enumerate(mats):
        expected = RationalMatrix.identity(c.betti[r]).scaled((-1) ** r)
        assert m == expected, r


def test_broken_coproduct_fails_counit():
    c = addition_coproduct(catalog.algebra("r1"))
    # drop the 1 (x) w term from D(w); the right counit law now fails
    broken_top = RationalMatrix.from_rows([[0], [1]])
    broken = GradedCoalgebra(betti=c.betti,
                             coproduct=(c.coproduct[0], broken_top),
                             product=c.product)
    report = hopf_axioms(broken)
    assert not report.counit
    assert not report.antipode
    assert not verify_hopf(broken)


def _bumped(m, i, j, delta=1):
    rows = m.to_rows()
    rows[i][j] += delta
    return RationalMatrix.from_rows(rows)


# (counit, coassociative, algebra_morphism, antipode) after adding 1 (or the
# optional third entry) to one entry of one matrix of the addition coproduct.
# The r3 coproduct[3] cases fail only the right identity m(id (x) S) D = eps;
# the left identity m(S (x) id) D = eps still holds there.
@pytest.mark.parametrize("name, which, key, entry, verdicts", [
    ("r2", "coproduct", 2, (1, 0), (True, True, False, True)),
    ("r1", "product", (0, 1), (0, 0), (True, True, True, False)),
    ("r3", "coproduct", 2, (3, 0), (True, False, False, True)),
    ("r3", "coproduct", 3, (12, 0), (True, False, False, False)),
    ("r3", "coproduct", 3, (12, 0, -1), (True, False, False, False)),
])
def test_broken_matrix_fails_its_axioms(name, which, key, entry, verdicts):
    c = addition_coproduct(catalog.algebra(name))
    if which == "coproduct":
        coproduct = list(c.coproduct)
        coproduct[key] = _bumped(coproduct[key], *entry)
        broken = GradedCoalgebra(betti=c.betti, coproduct=tuple(coproduct), product=c.product)
    else:
        product = dict(c.product)
        product[key] = _bumped(product[key], *entry)
        broken = GradedCoalgebra(betti=c.betti, coproduct=c.coproduct, product=product)
    report = hopf_axioms(broken)
    assert (report.counit, report.coassociative,
            report.algebra_morphism, report.antipode) == verdicts
    assert not verify_hopf(broken)
    assert antipode_matrices(broken) is None


def test_product_shape_validation():
    c = addition_coproduct(catalog.algebra("r2"))
    for key, m in (((1, 1), RationalMatrix.zeros(2, 4)),   # H^2 is one-dimensional
                   ((1, 1), RationalMatrix.zeros(1, 2)),   # H^1 (x) H^1 is four-dimensional
                   ((2, 1), RationalMatrix.zeros(0, 2))):  # no degree 3
        with pytest.raises(ValueError):
            GradedCoalgebra(betti=c.betti, coproduct=c.coproduct, product={**c.product, key: m})


def test_missing_product_key_is_rejected():
    c = addition_coproduct(catalog.algebra("r2"))
    product = dict(c.product)
    del product[(1, 1)]
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        GradedCoalgebra(betti=c.betti, coproduct=c.coproduct, product=product)


def test_primitives_validation():
    c = addition_coproduct(catalog.algebra("r2"))
    two_units = GradedCoalgebra(
        betti=(2,),
        coproduct=(RationalMatrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 1]]),),
        product={(0, 0): RationalMatrix.from_rows(
            [[1, 0, 0, 0], [0, 0, 0, 1]])},
    )
    with pytest.raises(ValueError):
        primitives(two_units)
    assert [len(p) for p in primitives(c)] == [0, 2, 0]


def test_ts1_coalgebra_golden():
    c = ts1_coalgebra()
    assert c.betti == (1, 1)
    assert c.coproduct[1].to_rows() == [[F(1)], [F(1)]]
    assert verify_hopf(c)
    assert [len(p) for p in primitives(c)] == [0, 1]


def test_exterior_structure_check():
    assert exterior_structure_check((1, 1)) == (1,)
    assert exterior_structure_check((1, 1, 0)) == (1,)
    assert exterior_structure_check((1, 0, 0, 1)) == (3,)
    assert exterior_structure_check((1, 3, 3, 1)) == (1, 1, 1)
    assert exterior_structure_check((1, 2, 1)) == (1, 1)
    assert exterior_structure_check((1, 1, 0, 1, 1)) == (1, 3)
    assert exterior_structure_check((1, 2, 2, 1)) is None
    assert exterior_structure_check((1, 0, 1)) is None
    assert exterior_structure_check((1,)) == ()
    with pytest.raises(ValueError):
        exterior_structure_check((2, 1))
    with pytest.raises(ValueError):
        exterior_structure_check(())


def test_exterior_check_matches_cohomology_rings():
    from algebroid.liealg import lie_cohomology, trivial_representation

    su2 = lie_cohomology(trivial_representation(catalog.algebra("su2")))
    assert exterior_structure_check(su2.betti) == (3,)
    r4 = lie_cohomology(trivial_representation(catalog.algebra("r4")))
    assert exterior_structure_check(r4.betti) == (1, 1, 1, 1)
    h3 = lie_cohomology(trivial_representation(catalog.algebra("h3")))
    assert exterior_structure_check(h3.betti) is None
