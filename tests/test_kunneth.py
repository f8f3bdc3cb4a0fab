"""Direct sums, algebroid x algebra products, and the Kunneth comparison."""

import json
from fractions import Fraction

import pytest

from fixtures import algebra_to_dict, const, dense_apply, representation_to_dict
from oracle import bracket_basis, from_rows, transpose, truncated_complex
from algebroid import catalog, cli, liealg
from algebroid.circle import ActionAlgebroid, Rank1Anchor, TrigPoly, is_transitive, \
    stabilized_cohomology
from algebroid.errors import ValidationError
from algebroid.exactlinalg import complex_cohomology, rank
from algebroid.kunneth import (
    direct_sum,
    kunneth_verify,
    product_with_lie_algebra,
    tensor_rep,
)
from algebroid.liealg import (
    LieAlgebra,
    Representation,
    adjoint_representation,
    ce_complex,
    check_jacobi,
    check_representation,
    lie_cohomology,
    trivial_representation,
)

F = Fraction


def test_direct_sum_structure():
    su2 = catalog.algebra("su2")
    aff1 = catalog.algebra("aff1")
    s = direct_sum(su2, aff1)
    assert s.dim == 5
    assert check_jacobi(s)
    # left block keeps its brackets, right block is shifted by dim g
    assert bracket_basis(s, 0, 1)[2] == 1
    assert bracket_basis(s, 3, 4)[4] == 1
    # cross brackets vanish
    assert all(x == 0 for x in bracket_basis(s, 0, 3))
    assert s.name == "su2+aff1"


def test_direct_sum_betti_golden():
    su2 = catalog.algebra("su2")
    rep = complex_cohomology(ce_complex(trivial_representation(direct_sum(su2, su2))))
    assert rep.betti == (1, 0, 0, 2, 0, 0, 1)
    assert rep.euler == 0


def test_direct_sum_h3_aff1():
    h3 = catalog.algebra("h3")
    aff1 = catalog.algebra("aff1")
    total = complex_cohomology(ce_complex(trivial_representation(direct_sum(h3, aff1))))
    check = kunneth_verify(total,
                           lie_cohomology(trivial_representation(h3)),
                           lie_cohomology(trivial_representation(aff1)))
    assert check.ok
    # conv((1,2,2,1), (1,1,0)) = (1,3,4,3,1,0)
    assert total.betti == (1, 3, 4, 3, 1, 0)


def counted_assembly(monkeypatch) -> list[int]:
    """A list that gathers the size of every complex `liealg.form_columns`
    assembles from now on."""
    sizes, build = [], liealg.form_columns

    def counted(*args):
        c = build(*args)
        sizes.append(sum(c.degrees))
        return c

    monkeypatch.setattr(liealg, "form_columns", counted)
    return sizes


def assembled_cochains(monkeypatch, argv) -> list[int]:
    """The size of every complex `liealg.form_columns` assembles while the CLI runs argv."""
    sizes = counted_assembly(monkeypatch)
    assert cli.run(argv) == 0
    return sorted(sizes)


def test_kunneth_assembles_its_product_in_full(monkeypatch, capsys):
    # the command checks Kunneth on the product, so h3 + aff1 is built as one
    # complex of 2^5 cochains, next to its factors' 2^3 and 2^2
    assert assembled_cochains(monkeypatch, ["kunneth", "h3", "aff1"]) == [4, 8, 32]
    assert '"ok": true' in capsys.readouterr().out


def test_lie_cohomology_of_a_direct_sum_assembles_only_its_factors(monkeypatch, tmp_path, capsys):
    # the adjoint CE of su2 + diamond4: the trivial complexes of su2 and
    # diamond4 and their adjoint ones, never the 7 * 2^7 cochains of the sum
    g = direct_sum(catalog.algebra("su2"), catalog.algebra("diamond4"))
    (tmp_path / "g.json").write_text(json.dumps(algebra_to_dict(g)))
    (tmp_path / "ad.json").write_text(json.dumps(representation_to_dict(adjoint_representation(g))))
    argv = ["lie", "cohomology", str(tmp_path / "g.json"), "--rep", str(tmp_path / "ad.json")]
    assert assembled_cochains(monkeypatch, argv) == [8, 16, 3 * 8, 4 * 16]
    payload = json.loads(capsys.readouterr().out.split(cli.JSON_MARKER + "\n", 1)[1])
    assert payload["betti"] == list(complex_cohomology(ce_complex(adjoint_representation(g))).betti)


def test_a_one_dimensional_factor_builds_no_trivial_complex(monkeypatch):
    # r1 + su2 with the character 1 on r1 and 0 on su2: r1's complex with
    # coefficients and su2's trivial one; r1's trivial H is (1, 1), read
    # without a complex of 2 cochains
    g = direct_sum(catalog.algebra("r1"), catalog.algebra("su2"))
    r = Representation(g, 1, tuple(from_rows([[x]]) for x in (1, 0, 0, 0)))
    sizes = counted_assembly(monkeypatch)
    report = lie_cohomology(r)
    assert sorted(sizes) == [2, 8]
    assert report == complex_cohomology(ce_complex(r))


def test_boxtimes_cocycles():
    t = ce_complex(trivial_representation(direct_sum(catalog.algebra("su2"),
                                                     catalog.algebra("su2"))))
    # Over su2 + su2 the classes w (x) 1, 1 (x) w and w (x) w, w spanning the
    # top degree of su2, are the basis forms e^{012}, e^{345} and e^{012345}.
    # Degree 3 has C(6, 3) = 20 forms in lexicographic order, so e^{012} is
    # the first coordinate and e^{345} the last.
    assert t.degrees[3] == 20
    v_left = [F(1)] + [F(0)] * 19
    v_right = [F(0)] * 19 + [F(1)]
    assert all(x == 0 for x in dense_apply(t.differentials[3], v_left))
    assert all(x == 0 for x in dense_apply(t.differentials[3], v_right))
    # neither is a coboundary (adding it to the image of d2 raises the rank),
    # and they are independent modulo coboundaries
    d2 = t.differentials[2]
    image = transpose(d2).to_rows()
    assert rank(from_rows(image + [v_left])) == rank(d2) + 1
    assert rank(from_rows(image + [v_right])) == rank(d2) + 1
    stacked = image + [v_left, v_right]
    assert rank(from_rows(stacked)) == rank(d2) + 2
    # w (x) w = e^{012345} spans degree 6; it is not a coboundary either
    v_both = [F(1)]
    assert len(v_both) == t.degrees[6]
    d5 = t.differentials[5]
    assert rank(from_rows(transpose(d5).to_rows() + [v_both])) == rank(d5) + 1


def test_tensor_rep_flatness_and_betti():
    char = catalog.representation("aff1_char")
    h3_triv = trivial_representation(catalog.algebra("h3"))
    joint = tensor_rep(char, h3_triv)
    assert joint.algebra.dim == 5
    assert joint.dim_e == 1
    assert check_representation(joint)
    rep = lie_cohomology(joint)
    # conv((0,1,1), (1,2,2,1)) = (0,1,3,4,3,1)
    assert rep.betti == (0, 1, 3, 4, 3, 1)
    check = kunneth_verify(rep, lie_cohomology(char), lie_cohomology(h3_triv))
    assert check.ok


def test_kunneth_verify_rejects_wrong_product():
    su2 = lie_cohomology(trivial_representation(catalog.algebra("su2")))
    aff1 = lie_cohomology(trivial_representation(catalog.algebra("aff1")))
    check = kunneth_verify(su2, aff1, aff1)
    assert not check.ok
    assert any(exp != act for _, exp, act in check.table)


def test_product_with_lie_algebra_complex():
    su2 = catalog.algebra("su2")
    prod = product_with_lie_algebra(Rank1Anchor(const(1)), su2)
    assert isinstance(prod, ActionAlgebroid)
    tc = truncated_complex(prod, 3)
    assert tc.complex.degrees == tuple(7 * b for b in (1, 4, 6, 4, 1))
    assert tc.complex.chain_defect() is None
    assert is_transitive(prod)
    sweep = stabilized_cohomology(prod, 3, 6)
    assert sweep.report.betti == (1, 1, 0, 1, 1)
    assert sweep.report.euler == 0
    check = kunneth_verify(
        sweep.report,
        stabilized_cohomology(Rank1Anchor(const(1)), 3, 6).report,
        lie_cohomology(trivial_representation(su2)),
    )
    assert check.ok


def test_product_with_nontransitive_factor():
    aff1 = catalog.algebra("aff1")
    prod = product_with_lie_algebra(Rank1Anchor(TrigPoly.sin(1)), aff1)
    assert not is_transitive(prod)
    sweep = stabilized_cohomology(prod, 3, 6)
    check = kunneth_verify(
        sweep.report,
        stabilized_cohomology(Rank1Anchor(TrigPoly.sin(1)), 3, 6).report,
        lie_cohomology(trivial_representation(aff1)),
    )
    assert check.ok
    # conv((1,3), (1,1,0)) = (1,4,3,0)
    assert sweep.report.betti == (1, 4, 3, 0)


def test_product_rejects_bad_algebra():
    bad = LieAlgebra.make(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
    with pytest.raises(ValidationError):
        product_with_lie_algebra(Rank1Anchor(const(1)), bad)
