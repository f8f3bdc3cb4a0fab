"""The package's public names: `__all__` lists exactly the public
non-module attributes of `algebroid`, and test-only helpers stay out."""

import ast
import types
from pathlib import Path

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


@pytest.mark.parametrize("module", [algebroid, exactlinalg, circle, exterior],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["kron_sum", "inclusion_matrix", "basis_tuples"])
def test_window_layout_helpers_left_the_package(module, name):
    # window complexes are written row by row; the references live in tests/oracle.py
    assert not hasattr(module, name)


@pytest.mark.parametrize("module", [algebroid, circle], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["trig_mul", "trig_derivative", "vf_bracket",
                                  "multiplication_matrix"])
def test_second_trig_arithmetic_left_the_package(module, name):
    # the action check applies the integer blocks of `field_matrix`; the
    # Fraction products live in tests/oracle.py
    assert not hasattr(module, name)


@pytest.mark.parametrize("owner, name", [
    *[(exactlinalg.RationalMatrix, name)
      for name in ("__add__", "__sub__", "__neg__", "scaled", "__matmul__", "apply")],
    *[(circle.TrigPoly, name) for name in ("__add__", "__sub__", "__neg__", "scaled")],
    (circle, "_from_window_coords"),
], ids=lambda x: getattr(x, "__name__", x))
def test_fraction_operators_left_the_package(owner, name):
    # primitives and symbol read integer rows and entries; sums, multiples
    # and products for the tests are taken on dense Fraction rows in tests/oracle.py
    assert not hasattr(owner, name)


SRC = Path(algebroid.__file__).parent

# Public names that stay without a caller in the package, with the reason.
UNREFERENCED = {
    "exterior.wedge_matrix": "the bench tracer wraps it by name",
}


def test_every_public_def_is_exported_or_used():
    # A public module-level def or class is listed in __all__, lives in a
    # module listed there (`catalog`, `io`), or is read by another top-level
    # statement somewhere in the package.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used: dict[str, set[str]] = {}  # name -> the top-level statements that read it
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = f"{module}.{getattr(stmt, 'name', '')}"
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name:
                    used.setdefault(name, set()).add(owner)
    orphans = [f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
               if module not in algebroid.__all__
               and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_") and stmt.name not in algebroid.__all__
               and not used.get(stmt.name, set()) - {f"{module}.{stmt.name}"}]
    assert sorted(set(orphans) - set(UNREFERENCED)) == []
    assert set(UNREFERENCED) <= set(orphans)  # an entry that gained a caller is dropped


def test_no_package_function_takes_a_derivative_flag():
    # u -> f u' is the one window product, so no builder is switched by a flag
    flagged = [f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and any(arg.arg == "derivative" for arg in node.args.args + node.args.kwonlyargs)]
    assert flagged == []
