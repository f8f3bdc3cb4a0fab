"""The package's public names: `__all__` lists exactly the public
non-module attributes of `algebroid`, and test-only helpers stay out."""

import types

import pytest

import algebroid
from algebroid import circle, exactlinalg, exterior, hopf, io, liealg, polyroots


def test_every_listed_name_resolves():
    missing = [name for name in algebroid.__all__ if not hasattr(algebroid, name)]
    assert missing == []
    assert len(set(algebroid.__all__)) == len(algebroid.__all__)


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(algebroid).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(algebroid.__all__) == set()


@pytest.mark.parametrize("module", [algebroid, exactlinalg, liealg], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["change_basis", "rank_modular", "inverse", "_rref"])
def test_test_only_helpers_left_the_package(module, name):
    # they live in tests/oracle.py; the package keeps one elimination
    assert not hasattr(module, name)


@pytest.mark.parametrize("module", [algebroid, exterior, hopf, liealg], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["sort_sign", "_shuffle_terms"])
def test_second_wedge_sign_rule_left_the_package(module, name):
    # exterior.wedge is the one sign rule; the references live in tests/oracle.py
    assert not hasattr(module, name)


@pytest.mark.parametrize("module", [algebroid, polyroots, circle], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["trim", "degree", "add", "neg", "sub", "scale", "mul",
                                  "divmod_poly", "_sturm_chain", "_variations"])
def test_fraction_polynomial_arithmetic_left_the_package(module, name):
    # polyroots counts on integer lists; the Fraction reference lives in tests/oracle.py
    assert not hasattr(module, name)


def test_h_structure_morphism_loop_left_the_package():
    assert not hasattr(hopf, "_pair_bracket")


@pytest.mark.parametrize("owner", [algebroid, io, circle, hopf, circle.TrigPoly, hopf.GradedCoalgebra],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["algebra_to_dict", "representation_to_dict", "algebroid_to_dict",
                                  "fiber_to_dict", "trig_to_string", "dump_json",
                                  "value_at_quarter", "ts1_coalgebra", "antipode_matrices",
                                  "coproduct_terms", "multiply"])
def test_writers_and_hopf_fixtures_left_the_package(owner, name):
    # only tests called them; they live in tests/fixtures.py
    assert not hasattr(owner, name)
