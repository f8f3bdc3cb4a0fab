"""H-structures, coproducts, and Hopf axioms of cohomology."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from algebroid import catalog
from algebroid.errors import NotAbelianError
from algebroid.exactlinalg import RationalMatrix
from algebroid.exterior import wedge_product
from algebroid.hopf import (
    GradedCoalgebra,
    HStructure,
    addition,
    addition_coproduct,
    check_h_structure,
    exterior_structure_check,
    hopf_axioms,
    primitives,
    verify_hopf,
)
from algebroid.liealg import LieAlgebra
from fixtures import antipode_matrices, coproduct_terms, multiply, ts1_coalgebra
from oracle import shuffle_coproduct

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


@st.composite
def h_structures(draw):
    """A bracket table on dim <= 4, Jacobi or not, with addition's matrix
    bumped in one entry in half the draws."""
    n = draw(st.integers(0, 4))
    table = {(i, j): draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2), max_size=2))
             for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    g = LieAlgebra.make(n, table)
    rows = addition(g).matrix.to_rows()
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 2 * n - 1))] += \
            draw(st.sampled_from([-1, 1, F(1, 2)]))
    return HStructure(algebra=g, matrix=RationalMatrix(n, 2 * n, rows))


def test_h_structure_check_matches_the_morphism_loop_on_the_catalog():
    for name in ("zero", *catalog.ALGEBRA_NAMES):
        h = addition(catalog.algebra(name))
        assert check_h_structure(h) == oracle.check_h_structure(h), name


@settings(max_examples=200, deadline=None)
@given(h_structures())
def test_h_structure_check_matches_the_morphism_loop(h):
    assert check_h_structure(h) == oracle.check_h_structure(h)


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
    terms = coproduct_terms(c, 2, [F(1)])
    assert terms == {
        (0, 2, 0, 0): F(1),
        (1, 1, 0, 1): F(1),
        (1, 1, 1, 0): F(-1),
        (2, 0, 0, 0): F(1),
    }


@pytest.mark.parametrize("n", range(8))
def test_coproduct_equals_the_shuffle_expansion(n):
    c = addition_coproduct(LieAlgebra(n))
    assert list(c.coproduct) == shuffle_coproduct(n)


def test_coproduct_blocks_are_transposed_products():
    n = 4
    c = addition_coproduct(LieAlgebra(n))
    for (p, q), m in c.product.items():
        assert m == wedge_product(n, p, q)
    for r, m in enumerate(c.coproduct):
        offs = c.block_offsets(r)
        for i in range(r + 1):
            block = [m.row(k) for k in range(offs[i], offs[i + 1])]
            assert block == c.product[(i, r - i)].transpose().to_rows()


def test_coproduct_primitive_generators():
    c = addition_coproduct(catalog.algebra("r3"))
    terms = coproduct_terms(c, 1, [F(1), F(0), F(0)])
    assert terms == {(0, 1, 0, 0): F(1), (1, 0, 0, 0): F(1)}
    dims = [len(p) for p in primitives(c)]
    assert dims == [0, 3, 0, 0]


def test_multiply_graded_commutative():
    c = addition_coproduct(catalog.algebra("r3"))
    u, v = [F(1), F(0), F(0)], [F(0), F(1), F(0)]
    uv = multiply(c, 1, 1, u, v)
    vu = multiply(c, 1, 1, v, u)
    assert uv == [-x for x in vu]
    assert any(uv)
    # squares of odd elements vanish
    assert not any(multiply(c, 1, 1, u, u))


def test_hopf_axioms_abelian():
    for name in ("r1", "r2", "r3", "r4"):
        c = addition_coproduct(catalog.algebra(name))
        report = hopf_axioms(c)
        assert report.counit and report.coassociative, name
        assert report.algebra_morphism and report.antipode, name
        assert verify_hopf(c), name


def _parity(n: int, r: int) -> RationalMatrix:
    """(-1)^r times the n x n identity."""
    return RationalMatrix.from_entries(n, n, [((a, a), (-1) ** r) for a in range(n)])


def test_antipode_is_parity():
    c = addition_coproduct(catalog.algebra("r3"))
    mats = antipode_matrices(c)
    assert mats is not None
    for r, m in enumerate(mats):
        assert m == _parity(c.betti[r], r), r


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


def _rescaled(c, scale):
    """The coalgebra in the basis x' = scale(p) x of each degree p.

    D(x') = sum v * scale(r) / (scale(i) scale(r - i)) y' (x) z' and
    x' y' = scale(p) scale(q) / scale(p + q) (xy)'.
    """
    coproduct = []
    for r, m in enumerate(c.coproduct):
        offs = c.block_offsets(r)
        factor = [scale(r) / (scale(i) * scale(r - i))
                  for i in range(r + 1) for _ in range(offs[i], offs[i + 1])]
        coproduct.append(RationalMatrix.from_entries(
            m.rows, m.cols, (((k, col), v * factor[k]) for k, col, v in m.entries())))
    product = {(p, q): RationalMatrix.from_entries(m.rows, m.cols, (
        ((k, col), v * scale(p) * scale(q) / scale(p + q)) for k, col, v in m.entries()))
        for (p, q), m in c.product.items()}
    return GradedCoalgebra(betti=c.betti, coproduct=tuple(coproduct), product=product)


@pytest.mark.parametrize("name", ["r2", "r3"])
def test_hopf_checks_on_rational_coefficients(name):
    # A power scale(p) = t^p cancels out of every matrix; 1/(p + 1) does not,
    # so the rescaled coproduct and product carry denominators.
    c = addition_coproduct(catalog.algebra(name))
    n = c.top
    scaled = _rescaled(c, lambda p: F(1, p + 1))
    for mats in (scaled.coproduct, scaled.product.values()):
        # entries() gives an int for an integral entry and a Fraction otherwise
        assert any(isinstance(v, F) for m in mats for *_, v in m.entries())
    report = hopf_axioms(scaled)
    assert (report.counit, report.coassociative,
            report.algebra_morphism, report.antipode) == (True, True, True, True)
    # the antipode is (-1)^p on degree p in any rescaled basis
    for r, m in enumerate(antipode_matrices(scaled)):
        assert m == _parity(c.betti[r], r), r
    assert [len(p) for p in primitives(scaled)] == [0, n] + [0] * (n - 1)


def _dense_primitives(c):
    """Per degree r >= 1, the RREF kernel basis of the dense coproduct[r] minus
    x (x) 1 + 1 (x) x, which is 1 at row a of blocks (r, 0) and (0, r) in column a."""
    out = [()]
    for r in range(1, c.top + 1):
        dim_r, offs = c.betti[r], c.block_offsets(r)
        rows = oracle.matrix_rows(c.coproduct[r])
        for a in range(dim_r):
            rows[offs[r] + a][a] -= 1
            rows[offs[0] + a][a] -= 1
        diff = RationalMatrix.from_entries(offs[-1], dim_r, [
            ((i, j), x) for i, row in enumerate(rows) for j, x in enumerate(row)])
        out.append(tuple(tuple(v) for v in oracle.kernel_basis(diff)))
    return tuple(out)


def _single_entry_changes(c):
    """c with one entry of one coproduct matrix moved by +1 or -1, every way."""
    for r, m in enumerate(c.coproduct):
        entries = [((i, j), x) for i, j, x in m.entries()]
        for i in range(m.rows):
            for j in range(m.cols):
                for step in (1, -1):
                    changed = RationalMatrix.from_entries(m.rows, m.cols,
                                                          entries + [((i, j), step)])
                    coproduct = c.coproduct[:r] + (changed,) + c.coproduct[r + 1:]
                    yield GradedCoalgebra(betti=c.betti, coproduct=coproduct, product=c.product)


def test_primitives_match_the_dense_kernel():
    coalgebras = [addition_coproduct(catalog.algebra(f"r{n}")) for n in range(1, 5)]
    coalgebras += [addition_coproduct(LieAlgebra(n)) for n in range(7)]
    coalgebras += [ts1_coalgebra()]
    coalgebras += [_rescaled(addition_coproduct(catalog.algebra(name)), scale)
                   for name in ("r2", "r3") for scale in (lambda p: F(1, p + 1),
                                                          lambda p: F(p + 2, 3))]
    coalgebras += list(_single_entry_changes(addition_coproduct(catalog.algebra("r2"))))
    assert len(coalgebras) == 12 + 4 + 30
    for c in coalgebras:
        got = primitives(c)
        assert got == _dense_primitives(c), c.coproduct
        assert all(isinstance(x, F) for vecs in got for v in vecs for x in v)
