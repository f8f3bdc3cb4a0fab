"""The package's public names: `__all__` lists exactly the public
non-module attributes of `algebroid`, and test-only helpers stay out."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import algebroid
from algebroid import catalog, circle, cli, exactlinalg, exterior, hopf, io, liealg, polyroots


README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The fenced python block under README's "Library entry points"."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs_and_gives_its_commented_values():
    code = library_example()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    claims = [line.split("#", 1) for line in code.splitlines()
              if "#" in line and not line.lstrip().startswith("#")]
    assert [value.strip() for _, value in claims] == ["(1, 2, 2, 1)", "0", "(1, 3)", "-2", "True"]
    for expr, value in claims:
        assert eval(expr, namespace) == ast.literal_eval(value.strip()), expr


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
                                  "coproduct_terms", "multiply", "cos_coeff", "sin_coeff"])
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
                                  "multiplication_matrix", "_PRODUCT_TO_SUM", "_harmonic",
                                  "_coordinate", "_COS", "_SIN"])
def test_second_trig_arithmetic_left_the_package(module, name):
    # the action check applies the integer blocks of `field_matrix`, one closed
    # formula; the Fraction products and the product-to-sum table live in
    # tests/oracle.py
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


@pytest.mark.parametrize("owner, name", [
    *[(exactlinalg.RationalMatrix, name)
      for name in ("__getitem__", "row", "column", "transpose", "_wrap")],
    *[(module, name) for module in (algebroid, exactlinalg)
      for name in ("kernel_dim", "cokernel_dim")],
    *[(module, "truncated_complex") for module in (algebroid, circle)],
    *[(module, "verify_hopf") for module in (algebroid, hopf)],
    *[(module, "euler_characteristic") for module in (algebroid, liealg)],
    (exactlinalg, "_reduced"),
], ids=lambda x: getattr(x, "__name__", x))
def test_test_only_readers_and_wrappers_left_the_package(owner, name):
    # only tests called them; they live in tests/oracle.py
    assert not hasattr(owner, name)


@pytest.mark.parametrize("owner, name", [
    *[(module, "bracket_terms") for module in (algebroid, liealg, circle)],
    (circle, "basis_index"),
    (circle.ActionAlgebroid, "_is_transitive"),
], ids=lambda x: getattr(x, "__name__", x))
def test_second_differential_loop_left_the_package(owner, name):
    # liealg.form_columns writes CE, symbol, window and product differentials
    # alike, and is_transitive reads the fields itself
    assert not hasattr(owner, name)


@pytest.mark.parametrize("owner, name", [
    (hopf, "_int_divmod"),
    (exactlinalg, "_integer_rows"),
    (catalog, "_read"),
    (cli, "_algebra_label"),
    (io, "format_rational"),
    (exterior, "wedge_product"),
    (liealg, "bracket_basis"),
], ids=lambda x: getattr(x, "__name__", x))
def test_one_caller_helpers_left_the_package(owner, name):
    # exterior_structure_check divides by 1 + t^d itself, rank and
    # kernel_basis reduce the stored columns, the callers of the three
    # renaming wrappers call what they wrapped, addition_coproduct writes
    # its products with exterior.wedge, and adjoint_representation writes
    # ad_i from the bracket table
    assert not hasattr(owner, name)


def test_the_row_by_row_elimination_left_the_package():
    # rank, kernel_basis and complex_cohomology reduce columns with _reduce;
    # the row-by-row elimination is tests/oracle.py's leveled_echelon
    assert not hasattr(exactlinalg, "_echelon")


SRC = Path(algebroid.__file__).parent

STORAGE = {"_wrap", "_reduced", "_num", "_den"}


def test_only_exactlinalg_knows_the_matrix_storage():
    # builders write through the RationalMatrix constructor and read through
    # common_columns and entries
    named = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.id] if isinstance(node, ast.Name) else \
                [node.attr] if isinstance(node, ast.Attribute) else \
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            for name in STORAGE.intersection(names):
                named.setdefault(path.stem, set()).add(name)
    assert set(named) == {"exactlinalg"}
    assert "_reduced" not in named["exactlinalg"]


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


def test_no_module_imports_a_name_it_never_reads():
    # A name bound by an import is read somewhere in its module, or listed in
    # its __all__ (the package's re-exports).
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read.update(*[ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and any(getattr(target, "id", None) == "__all__" for target in node.targets)])
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []


def test_cli_import_skips_dataclasses_and_the_modules_it_pulls_in():
    # every CLI start pays for its imports; `dataclasses` alone brings inspect,
    # ast, dis and tokenize, 10-13 ms of a start, for nothing the package needs
    probe = ("import json, sys; before = set(sys.modules); import algebroid.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    new = set(json.loads(proc.stdout))
    assert "algebroid.cli" in new
    assert sorted(new & {"dataclasses", "inspect", "ast", "dis", "tokenize"}) == []


def _modules_after(code: str, *argv: str) -> list[str]:
    """sys.modules of a fresh interpreter that has run `code` with these arguments."""
    probe = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    loaded = _modules_after("import algebroid")
    assert [m for m in loaded if m.startswith("algebroid")] == ["algebroid"]


def test_listed_names_resolve_lazily_to_their_home_objects():
    assert sorted(algebroid._HOME) == sorted(algebroid.__all__)
    for name in algebroid.__all__:
        value = getattr(algebroid, name)
        home = sys.modules[f"algebroid.{name}"] if isinstance(value, types.ModuleType) \
            else getattr(sys.modules[value.__module__], name)
        assert value is home, name
    namespace: dict = {}
    exec("from algebroid import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(algebroid.__all__)
    assert all(namespace[name] is getattr(algebroid, name) for name in algebroid.__all__)
    with pytest.raises(AttributeError, match=r"^module 'algebroid' has no attribute 'hopf_axiom'$"):
        algebroid.hopf_axiom


# Package modules that a command does not load: a start compiles only what it runs.
UNLOADED = {"circle", "polyroots", "symbol", "kunneth"}
COMMANDS = {
    "lie cohomology su2": UNLOADED,
    "lie euler aff1 --rep aff1_rep2": UNLOADED,
    "hopf r3": UNLOADED,
    "hopf su2": UNLOADED,
    "circle sweep sl2_action": {"hopf", "kunneth", "symbol"},
    "kunneth sl2_action su2": {"hopf", "symbol"},
    "symbol FIBER --alpha 1": {"hopf", "kunneth"},
}


def _loaded_by(command: str, tmp_path) -> set[str]:
    fiber = tmp_path / "fiber.json"
    fiber.write_text('{"dim_A": 2, "dim_M": 1, "anchor": [["1", "0"]]}', encoding="utf-8")
    argv = [str(fiber) if a == "FIBER" else a for a in command.split()]
    return set(_modules_after("from algebroid import cli\nassert cli.main(sys.argv[1:]) == 0",
                              *argv))


def test_catalog_loads_only_cli_catalog_and_errors(tmp_path):
    # it lists names and reads no number
    loaded = _loaded_by("catalog", tmp_path)
    assert {m for m in loaded if m.startswith("algebroid.")} == \
        {"algebroid.cli", "algebroid.catalog", "algebroid.errors"}
    assert "fractions" not in loaded
    assert {"argparse", "gettext"} & loaded == set()


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    loaded = _loaded_by(command, tmp_path)
    assert "algebroid.cli" in loaded
    assert {f"algebroid.{m}" for m in COMMANDS[command]} & loaded == set()
