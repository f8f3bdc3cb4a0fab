"""H-structures, coproducts, and Hopf axioms of cohomology."""

import re
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from algebroid import catalog
from algebroid.errors import NotAbelianError
from algebroid.exactlinalg import RationalMatrix
from algebroid.hopf import (
    GradedCoalgebra,
    HStructure,
    addition,
    addition_coproduct,
    check_h_structure,
    exterior_structure_check,
    hopf_axioms,
    primitives,
)
from algebroid.liealg import LieAlgebra
from fixtures import (antipode_matrices, block_offsets, coalgebra_from_matrices,
                      coalgebra_matrices, coproduct_terms, multiply, ts1_coalgebra)
from oracle import from_rows, matrix_row, shuffle_coproduct, transpose, verify_hopf

F = Fraction


def test_addition_is_h_structure_on_abelian():
    for name in ("r1", "r2", "r3", "r4"):
        assert check_h_structure(addition(catalog.algebra(name))), name


def test_addition_fails_on_nonabelian():
    for name in ("su2", "sl2", "h3", "aff1", "diamond4"):
        assert not check_h_structure(addition(catalog.algebra(name))), name


def test_scaled_addition_violates_unit_law():
    r2 = catalog.algebra("r2")
    m = from_rows([[1, 0, 2, 0], [0, 1, 0, 2]])  # H(x,y) = x + 2y
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
    return HStructure(algebra=g, matrix=from_rows(rows, n, 2 * n))


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
    coproduct, _ = coalgebra_matrices(addition_coproduct(LieAlgebra(n)))
    assert list(coproduct) == shuffle_coproduct(n)


@pytest.mark.parametrize("n", range(6))
def test_matrix_layout_round_trips(n):
    c = addition_coproduct(LieAlgebra(n))
    back = coalgebra_from_matrices(c.betti, *coalgebra_matrices(c))
    assert (back.betti, back.delta, back.mu) == (c.betti, c.delta, c.mu)


def test_coproduct_blocks_are_transposed_products():
    n = 4
    c = addition_coproduct(LieAlgebra(n))
    coproduct, products = coalgebra_matrices(c)
    for (p, q), m in products.items():
        assert m == oracle.wedge_product(n, p, q)
    for r, m in enumerate(coproduct):
        offs = block_offsets(c.betti, r)
        for i in range(r + 1):
            block = [matrix_row(m, k) for k in range(offs[i], offs[i + 1])]
            assert block == transpose(products[(i, r - i)]).to_rows()


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
    coproduct, products = coalgebra_matrices(c)
    # drop the 1 (x) w term from D(w); the right counit law now fails
    broken_top = from_rows([[0], [1]])
    broken = coalgebra_from_matrices(c.betti, (coproduct[0], broken_top), products)
    report = hopf_axioms(broken)
    assert not report.counit
    assert not report.antipode
    assert not verify_hopf(broken)


def _bumped(m, i, j, delta=1):
    rows = m.to_rows()
    rows[i][j] += delta
    return from_rows(rows)


# (counit, coassociative, algebra_morphism, antipode) after adding 1 (or the
# optional third entry) to one entry of one matrix of the addition coproduct.
# The r3 coproduct[3] cases fail only the right identity m(id (x) S) D = eps;
# the left identity m(S (x) id) D = eps still holds there.
@pytest.mark.parametrize("name, which, key, entry, verdicts", [
    ("r2", "coproduct", 2, (1, 0), (True, True, False, True)),
    ("r1", "product", (0, 1), (0, 0), (True, True, False, False)),
    ("r3", "coproduct", 2, (3, 0), (True, False, False, True)),
    ("r3", "coproduct", 3, (12, 0), (True, False, False, False)),
    ("r3", "coproduct", 3, (12, 0, -1), (True, False, False, False)),
])
def test_broken_matrix_fails_its_axioms(name, which, key, entry, verdicts):
    c = addition_coproduct(catalog.algebra(name))
    coproduct, product = coalgebra_matrices(c)
    if which == "coproduct":
        coproduct = list(coproduct)
        coproduct[key] = _bumped(coproduct[key], *entry)
        broken = coalgebra_from_matrices(c.betti, tuple(coproduct), product)
    else:
        product[key] = _bumped(product[key], *entry)
        broken = coalgebra_from_matrices(c.betti, coproduct, product)
    report = hopf_axioms(broken)
    assert (report.counit, report.coassociative,
            report.algebra_morphism, report.antipode) == verdicts
    assert not verify_hopf(broken)
    assert antipode_matrices(broken) is None


def test_a_product_without_unit_is_not_an_algebra_morphism():
    # 1 w = w 1 = 2 w on r1, D unchanged: the counit, coassociativity and both
    # antipode identities hold, so only the unit law fails
    c = addition_coproduct(catalog.algebra("r1"))
    one, w = (0, 0), (1, 0)
    broken = GradedCoalgebra(c.betti, c.delta, {**c.mu, (one, w): {w: 2}, (w, one): {w: 2}})
    report = hopf_axioms(broken)
    verdicts = (report.counit, report.coassociative, report.algebra_morphism, report.antipode)
    assert verdicts == (True, True, False, True)
    assert not report.ok
    assert oracle.hopf_verdicts(broken.betti, *coalgebra_matrices(broken)) == verdicts


def test_product_shape_validation():
    c = addition_coproduct(catalog.algebra("r2"))
    coproduct, product = coalgebra_matrices(c)
    for key, m in (((1, 1), RationalMatrix.zeros(2, 4)),   # H^2 is one-dimensional
                   ((1, 1), RationalMatrix.zeros(1, 2)),   # H^1 (x) H^1 is four-dimensional
                   ((2, 1), RationalMatrix.zeros(0, 2))):  # no degree 3
        with pytest.raises(ValueError):
            coalgebra_from_matrices(c.betti, coproduct, {**product, key: m})


ONE = RationalMatrix.identity(1)


@pytest.mark.parametrize("coproduct, product, message", [
    ((), {(0, 0): ONE}, "one coproduct matrix per degree"),
    ((RationalMatrix.zeros(2, 1),), {(0, 0): ONE}, "coproduct matrix at degree 0 has wrong shape"),
    ((ONE,), {(0, 0): RationalMatrix.zeros(1, 2)}, "product matrix at (0, 0) has wrong shape"),
    ((ONE,), {(0, 0): ONE, (0, 1): ONE}, "product matrix at (0, 1) has wrong shape"),
    ((ONE,), {}, "product matrix at (0, 0) is missing"),
])
def test_matrix_layout_checks(coproduct, product, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coalgebra_from_matrices((1,), coproduct, product)


def test_missing_product_key_is_rejected():
    c = addition_coproduct(catalog.algebra("r2"))
    coproduct, product = coalgebra_matrices(c)
    del product[(1, 1)]
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        coalgebra_from_matrices(c.betti, coproduct, product)


def test_primitives_validation():
    c = addition_coproduct(catalog.algebra("r2"))
    two_units = coalgebra_from_matrices(
        betti=(2,),
        coproduct=(from_rows([[1, 0], [0, 0], [0, 0], [0, 1]]),),
        product={(0, 0): from_rows(
            [[1, 0, 0, 0], [0, 0, 0, 1]])},
    )
    with pytest.raises(ValueError):
        primitives(two_units)
    assert [len(p) for p in primitives(c)] == [0, 2, 0]


def test_ts1_coalgebra_golden():
    c = ts1_coalgebra()
    assert c.betti == (1, 1)
    assert coalgebra_matrices(c)[0][1].to_rows() == [[F(1)], [F(1)]]
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


def test_exterior_structure_check_matches_the_product_table():
    # every (1, b_1, ..., b_k) with k <= 7 and b_i in 0..3: 21,845 vectors
    vectors = [(1, *rest) for k in range(8) for rest in product(range(4), repeat=k)]
    assert len(vectors) == 21845
    for v in vectors:
        assert exterior_structure_check(v) == oracle.exterior_factorization(v), v


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
    matrices, products = coalgebra_matrices(c)
    coproduct = []
    for r, m in enumerate(matrices):
        offs = block_offsets(c.betti, r)
        factor = [scale(r) / (scale(i) * scale(r - i))
                  for i in range(r + 1) for _ in range(offs[i], offs[i + 1])]
        coproduct.append(RationalMatrix.from_entries(
            m.rows, m.cols, (((k, col), v * factor[k]) for k, col, v in m.entries())))
    product = {(p, q): RationalMatrix.from_entries(m.rows, m.cols, (
        ((k, col), v * scale(p) * scale(q) / scale(p + q)) for k, col, v in m.entries()))
        for (p, q), m in products.items()}
    return coalgebra_from_matrices(c.betti, tuple(coproduct), product)


@pytest.mark.parametrize("name", ["r2", "r3"])
def test_hopf_checks_on_rational_coefficients(name):
    # A power scale(p) = t^p cancels out of every matrix; 1/(p + 1) does not,
    # so the rescaled coproduct and product carry denominators.
    c = addition_coproduct(catalog.algebra(name))
    n = c.top
    scaled = _rescaled(c, lambda p: F(1, p + 1))
    coproduct, product = coalgebra_matrices(scaled)
    for mats in (coproduct, product.values()):
        # entries() gives an int for an integral entry and a Fraction otherwise
        assert any(isinstance(v, F) for m in mats for *_, v in m.entries())
    report = hopf_axioms(scaled)
    assert (report.counit, report.coassociative,
            report.algebra_morphism, report.antipode) == (True, True, True, True)
    assert verify_hopf(scaled)
    # the antipode is (-1)^p on degree p in any rescaled basis
    for r, m in enumerate(antipode_matrices(scaled)):
        assert m == _parity(c.betti[r], r), r
    assert [len(p) for p in primitives(scaled)] == [0, n] + [0] * (n - 1)


def _dense_primitives(c):
    """Per degree r >= 1, the RREF kernel basis of the dense coproduct[r] minus
    x (x) 1 + 1 (x) x, which is 1 at row a of blocks (r, 0) and (0, r) in column a."""
    out = [()]
    coproduct, _ = coalgebra_matrices(c)
    for r in range(1, c.top + 1):
        dim_r, offs = c.betti[r], block_offsets(c.betti, r)
        rows = oracle.matrix_rows(coproduct[r])
        for a in range(dim_r):
            rows[offs[r] + a][a] -= 1
            rows[offs[0] + a][a] -= 1
        diff = RationalMatrix.from_entries(offs[-1], dim_r, [
            ((i, j), x) for i, row in enumerate(rows) for j, x in enumerate(row)])
        out.append(tuple(tuple(v) for v in oracle.kernel_basis(diff)))
    return tuple(out)


def _bumps(m):
    """m with one entry moved by +1 or -1, every way."""
    entries = [((i, j), x) for i, j, x in m.entries()]
    for i in range(m.rows):
        for j in range(m.cols):
            for step in (1, -1):
                yield RationalMatrix.from_entries(m.rows, m.cols, entries + [((i, j), step)])


def _single_entry_changes(c):
    """c with one entry of one coproduct matrix moved by +1 or -1, every way."""
    matrices, product = coalgebra_matrices(c)
    for r, m in enumerate(matrices):
        for changed in _bumps(m):
            coproduct = matrices[:r] + (changed,) + matrices[r + 1:]
            yield coalgebra_from_matrices(c.betti, coproduct, product)


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
        assert got == _dense_primitives(c), c.delta
        assert all(isinstance(x, F) for vecs in got for v in vecs for x in v)


@pytest.mark.parametrize("name, cases", [("r1", 12), ("r2", 60), ("r3", 336)])
def test_dense_verdicts_match_the_report_on_every_single_entry_change(name, cases):
    # oracle.hopf_verdicts multiplies the dense blocks and shares no code with
    # hopf; the unchanged matrices come first
    c = addition_coproduct(catalog.algebra(name))
    coproduct, product = coalgebra_matrices(c)
    changes = [(coproduct[:r] + (m,) + coproduct[r + 1:], product)
               for r, old in enumerate(coproduct) for m in _bumps(old)]
    changes += [(coproduct, {**product, key: m}) for key, old in product.items()
                for m in _bumps(old)]
    assert len(changes) == cases
    seen = set()
    for matrices in [(coproduct, product), *changes]:
        report = hopf_axioms(coalgebra_from_matrices(c.betti, *matrices))
        verdicts = (report.counit, report.coassociative, report.algebra_morphism, report.antipode)
        assert oracle.hopf_verdicts(c.betti, *matrices) == verdicts, matrices
        seen.add(verdicts)
    assert all(False in {v[k] for v in seen} for k in range(4))  # each check fails somewhere
    assert (True, True, True, True) in seen


_R4 = addition_coproduct(catalog.algebra("r4"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_entry_changes_of_r4_match_both_references(data):
    # r4 has the most (generator, label) groups of the catalog, each summed on its
    # own; one entry of one coproduct matrix or product block moves by +1 or -1
    coproduct, product = coalgebra_matrices(_R4)
    blocks = [*range(len(coproduct)), *sorted(product)]
    key = data.draw(st.sampled_from(blocks))
    old = product[key] if isinstance(key, tuple) else coproduct[key]
    changed = next(islice(_bumps(old), data.draw(st.integers(0, 2 * old.rows * old.cols - 1)),
                          None))
    if isinstance(key, tuple):
        product[key] = changed
    else:
        coproduct = coproduct[:key] + (changed,) + coproduct[key + 1:]
    c = coalgebra_from_matrices(_R4.betti, coproduct, product)
    report = hopf_axioms(c)
    verdicts = (report.counit, report.coassociative, report.algebra_morphism, report.antipode)
    assert oracle.hopf_label_verdicts(c) == verdicts
    assert oracle.hopf_verdicts(c.betti, coproduct, product) == verdicts


def _layout(betti, coproduct_rows, product_rows):
    """The coalgebra of dense blocks: coproduct_rows[r] the rows of coproduct[r]
    and product_rows[(p, q)] those of a product block with p, q >= 1, zero when
    missing; the unit blocks are identities."""
    coproduct = tuple(from_rows(rows, block_offsets(betti, r)[-1], betti[r])
                      for r, rows in enumerate(coproduct_rows))
    product = {}
    for p in range(len(betti)):
        for q in range(len(betti) - p):
            rows, cols = betti[p + q], betti[p] * betti[q]
            identity = [[int(a == b) for b in range(cols)] for a in range(rows)]
            zero = [[0] * cols for _ in range(rows)]
            product[(p, q)] = from_rows(product_rows.get((p, q), zero) if p and q else identity,
                                        rows, cols)
    return coalgebra_from_matrices(betti, coproduct, product)


# a^2 = b, ab = c, ba = -c over Betti (1, 1, 1, 1), D(b) = b (x) 1 + 1 (x) b and
# D(c) = c (x) 1 + a (x) b + b (x) a + 1 (x) c: D is multiplicative on the
# generator a, yet (a a) a = -c while a (a a) = c; only the morphism verdict fails
NOT_ASSOCIATIVE = _layout((1, 1, 1, 1), [[[1]], [[1], [1]], [[1], [0], [1]],
                                         [[1], [1], [1], [1]]],
                          {(1, 1): [[1]], (1, 2): [[1]], (2, 1): [[-1]]})
# a a' = u, a u = t and every other product of positive degrees 0, over Betti
# (1, 2, 1, 1), with D(a) = a (x) 1 + 1 (x) a and D zero on a', u and t: D is
# multiplicative on a and a', and (a x) y = a (x y) on every x with a x != 0 or
# a' x != 0, yet (a a) a' = 0 while a (a a') = t; only the morphism verdict
# separates a check that skips x when a x = 0
VANISHING_AX = _layout((1, 2, 1, 1), [[[1]], [[1, 0], [0, 0], [1, 0], [0, 0]], [[0]] * 6,
                                      [[0]] * 6], {(1, 1): [[0, 1, 0, 0]], (1, 2): [[1, 0]]})
# the exterior algebra on two generators with a b = b a = 0: H^2 is not generated
_e2 = coalgebra_matrices(addition_coproduct(LieAlgebra(2)))
ZERO_MU11 = coalgebra_from_matrices((1, 2, 1), _e2[0], {**_e2[1], (1, 1): RationalMatrix.zeros(1, 4)})
# D(w) = w (x) 1 - 1 (x) w in degree 3 with nothing below: no degree-1 generator,
# an algebra and a morphism, yet not coassociative on w, which a check on 1 and
# the (empty) degree-1 labels would miss
NO_DEGREE_ONE = _layout((1, 0, 0, 1), [[[1]], [], [], [[-1], [1]]], {})


@st.composite
def small_coalgebras(draw):
    """Coalgebras in the matrix layout with Betti vectors (1, ...) of length <= 4,
    identity unit blocks of the product and every other entry in -1..1: either
    an exterior algebra on <= 3 generators with up to two entries or product
    blocks replaced, or random blocks, each the unit (identity or zero) or
    filled with random entries."""
    entry = st.integers(-1, 1)
    if draw(st.booleans()):
        c = addition_coproduct(LieAlgebra(draw(st.integers(0, 3))))
        betti, (coproduct, product) = c.betti, coalgebra_matrices(c)
        coproduct_rows = [oracle.matrix_rows(m) for m in coproduct]
        product_rows = {key: oracle.matrix_rows(m) for key, m in product.items()}
        blocks = [*coproduct_rows, *(product_rows[k] for k in sorted(product_rows) if min(k))]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(blocks) - 1))
            rows = blocks[i]
            if not rows or not rows[0]:
                continue
            if i >= len(coproduct_rows) and draw(st.booleans()):
                rows[:] = [[0] * len(row) for row in rows]  # a zeroed product block
            else:
                row = draw(st.sampled_from(rows))
                row[draw(st.integers(0, len(row) - 1))] = draw(entry)
        return _layout(betti, coproduct_rows, product_rows)
    betti = (1, *draw(st.lists(st.integers(0, 2), max_size=3)))
    top = len(betti) - 1

    def block(rows, cols, unit):
        if draw(st.booleans()):
            return [[int(unit and a == b) for b in range(cols)] for a in range(rows)]
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    coproduct_rows = [[row for i in range(r + 1)
                       for row in block(betti[i] * betti[r - i], betti[r], i in (0, r))]
                      for r in range(top + 1)]
    product_rows = {(p, q): block(betti[p + q], betti[p] * betti[q], False)
                    for p in range(1, top + 1) for q in range(1, top + 1 - p)}
    return _layout(betti, coproduct_rows, product_rows)


@settings(max_examples=300, deadline=None)
@given(small_coalgebras())
@example(NOT_ASSOCIATIVE)
@example(VANISHING_AX)
@example(ZERO_MU11)
@example(NO_DEGREE_ONE)
@example(_layout((1,), [[[1]]], {}))
def test_generator_checks_match_the_full_loops(c):
    # hopf checks associativity and D(xy) = D(x) D(y) from the degree-1 labels
    # when they generate; the references loop over every pair and triple
    report = hopf_axioms(c)
    verdicts = (report.counit, report.coassociative, report.algebra_morphism, report.antipode)
    assert oracle.hopf_label_verdicts(c) == verdicts
    if all(c.betti):
        assert oracle.hopf_verdicts(c.betti, *coalgebra_matrices(c)) == verdicts
