"""Command line behavior: output shape, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from algebroid import catalog, circle, cli, exactlinalg, hopf, io, liealg
from algebroid.circle import Rank1Anchor, SweepResult, TrigPoly, is_transitive
from algebroid.errors import DegreeOutOfRangeError, NotAbelianError, ValidationError
from algebroid.exactlinalg import MAX_COCHAINS, MAX_TRIG_DEGREE, CohomologyReport, RationalMatrix
from algebroid.kunneth import direct_sum, product_with_lie_algebra
from algebroid.liealg import LieAlgebra, adjoint_representation, ce_complex
from fixtures import algebra_to_dict
from oracle import change_basis, diagonal_betti, heisenberg_betti, truncated_complex


def cli_env():
    # The subprocess imports the same package as this test process.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env_extra=None):
    env = cli_env()
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "algebroid.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def split_output(stdout: str):
    human, _, machine = stdout.partition(cli.JSON_MARKER + "\n")
    return human, json.loads(machine)


def test_lie_cohomology_golden():
    code, out, err = run_cli("lie", "cohomology", "su2")
    assert code == 0 and err == ""
    human, payload = split_output(out)
    assert human == (
        "algebra: su2 (dim 3)\n"
        "coefficients: trivial (dim 1)\n"
        "degree  dim  betti\n"
        "     0    1      1\n"
        "     1    3      0\n"
        "     2    3      0\n"
        "     3    1      1\n"
        "euler characteristic: 0\n"
    )
    assert payload == {
        "algebra": "su2",
        "betti": [1, 0, 0, 1],
        "coefficients_dim": 1,
        "degrees": [1, 3, 3, 1],
        "dim": 3,
        "euler": 0,
    }


def test_lie_euler_with_representation():
    code, out, _ = run_cli("lie", "euler", "aff1", "--rep", "aff1_char")
    assert code == 0
    _, payload = split_output(out)
    assert payload["euler"] == 0
    assert "betti" not in payload


def test_lie_accepts_files(tmp_path):
    path = tmp_path / "my_algebra.json"
    path.write_text(json.dumps(
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [[1, "1"]]}]}))
    code, out, _ = run_cli("lie", "cohomology", str(path))
    assert code == 0
    _, payload = split_output(out)
    assert payload["betti"] == [1, 1, 0]


SCALES = [Fraction(s) for s in ("1", "-1", "2", "-1/2", "3/2", "-3", "2/3")]


def cli_betti(g: LieAlgebra, perm, scales) -> list[int]:
    """`lie cohomology` on g in the basis e'_j = scales[j] e_{perm[j]}, through `cli.run`."""
    p = RationalMatrix.from_entries(g.dim, g.dim, [((i, j), scales[j])
                                                   for j, i in enumerate(perm)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(algebra_to_dict(change_basis(g, p)), fh)
        out = StringIO()
        with redirect_stdout(out):
            assert cli.run(["lie", "cohomology", path]) == 0
    return split_output(out.getvalue())[1]["betti"]


@pytest.mark.parametrize("n", range(7))
def test_heisenberg_betti_numbers_are_closed_form(n):
    # h_{2n+1}: [x_i, y_i] = z with x_i = e_i, y_i = e_{n+i}, z = e_{2n}
    g = LieAlgebra.make(2 * n + 1, {(i, n + i): {2 * n: Fraction(1)} for i in range(n)})
    rng = random.Random(n)
    perm = rng.sample(range(g.dim), g.dim)
    scales = [rng.choice(SCALES) for _ in range(g.dim)]
    assert cli_betti(g, perm, scales) == list(heisenberg_betti(n))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3).filter(bool), max_size=10).flatmap(
    lambda w: st.tuples(st.just(w), st.permutations(range(len(w) + 1)),
                        st.lists(st.sampled_from(SCALES), min_size=len(w) + 1,
                                 max_size=len(w) + 1))))
def test_diagonal_semidirect_betti_numbers_are_closed_form(case):
    # R x_L Q^m, [e_0, e_i] = weights[i - 1] e_i
    weights, perm, scales = case
    g = LieAlgebra.make(len(weights) + 1, {(0, i): {i: Fraction(x)}
                                           for i, x in enumerate(weights, 1)})
    assert cli_betti(g, perm, scales) == list(diagonal_betti(weights))


def test_output_is_byte_identical():
    first = run_cli("circle", "sweep", "sin_t")
    second = run_cli("circle", "sweep", "sin_t")
    threaded = run_cli("circle", "sweep", "sin_t", env_extra={"ALGEBROID_THREADS": "3"})
    assert first == second == threaded
    assert first[0] == 0


def test_circle_sweep_payload():
    code, out, _ = run_cli("circle", "sweep", "sin_2t", "--n-min", "2", "--n-max", "5")
    assert code == 0
    human, payload = split_output(out)
    assert "transitive anchor: no" in human
    assert payload["stabilized"] is True
    assert payload["betti"] == [1, 5]
    assert payload["euler"] == -4
    assert payload["per_N"] == [[2, [1, 5]], [3, [1, 5]], [4, [1, 5]], [5, [1, 5]]]


def test_circle_sweep_action():
    code, out, _ = run_cli("circle", "sweep", "sl2_action")
    assert code == 0
    human, payload = split_output(out)
    assert "transitive anchor: yes" in human
    assert payload["euler"] == 0


def test_circle_sweep_kind_of_line_algebroids():
    # const1 (rank 1, p = 1) is the action of r1 through 1 d/dt (r_action):
    # same windows, but each keeps its own kind in the payload.
    _, rank1 = split_output(run_cli("circle", "sweep", "const1")[1])
    _, action = split_output(run_cli("circle", "sweep", "r_action")[1])
    assert rank1["per_N"] == action["per_N"]
    assert (rank1["kind"], action["kind"]) == ("rank1", "action")


def test_circle_rejects_short_range():
    code, _, err = run_cli("circle", "sweep", "sin_t", "--n-max", "4")
    assert code == 2
    assert "validation error" in err


def test_kunneth_rejects_short_range_like_circle(tmp_path):
    path = tmp_path / "two_windows.json"
    path.write_text(json.dumps({"kind": "rank1", "p": "sin(1t)", "N_range": [3, 4]}))
    circle = run_cli("circle", "sweep", str(path))
    kunneth = run_cli("kunneth", str(path), "r1")
    assert circle[0] == kunneth[0] == 2
    assert circle[1] == kunneth[1] == ""
    assert kunneth[2] == circle[2]
    assert "validation error: need 0 <= n_min and n_max >= n_min + 2" in kunneth[2]


def test_kunneth_parses_each_file_once(tmp_path, monkeypatch, capsys):
    roid = tmp_path / "roid.json"
    roid.write_text(json.dumps({"kind": "rank1", "p": "1", "N_range": [1, 3]}))
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"dim": 1}))
    calls = []
    real_load = io.load_json

    def counting_load(path):
        calls.append(path)
        return real_load(path)

    monkeypatch.setattr(io, "load_json", counting_load)
    assert cli.run(["kunneth", str(roid), str(alg)]) == 0
    _, payload = split_output(capsys.readouterr().out)
    assert payload["ok"] is True
    assert sorted(calls) == sorted([str(roid), str(alg)])


def test_kunneth_algebras():
    code, out, _ = run_cli("kunneth", "su2", "su2")
    assert code == 0
    _, payload = split_output(out)
    assert payload["mode"] == "direct_sum"
    assert payload["ok"] is True
    assert payload["betti_product"] == [1, 0, 0, 2, 0, 0, 1]


def test_kunneth_product_mode():
    code, out, _ = run_cli("kunneth", "const1", "su2")
    assert code == 0
    _, payload = split_output(out)
    assert payload["mode"] == "product_with_algebra"
    assert payload["ok"] is True
    assert payload["betti_product"] == [1, 1, 0, 1, 1]
    # order of the arguments does not matter
    code2, out2, _ = run_cli("kunneth", "su2", "const1")
    _, payload2 = split_output(out2)
    assert code2 == 0 and payload2["ok"] is True
    assert payload2["betti_product"] == payload["betti_product"]


def test_kunneth_rejects_two_algebroids():
    code, _, err = run_cli("kunneth", "sin_t", "const1")
    assert code == 2
    assert "not supported" in err


# Full stdout of three product runs, pinned byte for byte: a circle algebroid
# with nonzero fields, the algebroid given second, and the zero algebra.
KUNNETH_SL2_ACTION_SU2 = """\
left: sl2_action (algebroid, windows N=4..10)
right: su2 (algebra, dim 3)
product: algebroid times algebra
degree  expected  actual
     0         1       1
     1         2       2
     2         1       1
     3         1       1
     4         2       2
     5         1       1
     6         0       0
euler: 0 = 0 * 0
kunneth check: ok
== json ==
{
  "betti_product": [
    1,
    2,
    1,
    1,
    2,
    1,
    0
  ],
  "euler_left": 0,
  "euler_product": 0,
  "euler_right": 0,
  "expected": [
    1,
    2,
    1,
    1,
    2,
    1,
    0
  ],
  "left": "sl2_action",
  "mode": "product_with_algebra",
  "ok": true,
  "right": "su2"
}
"""

KUNNETH_SU2_SIN_T = """\
left: sin_t (algebroid, windows N=3..8)
right: su2 (algebra, dim 3)
product: algebroid times algebra
degree  expected  actual
     0         1       1
     1         3       3
     2         0       0
     3         1       1
     4         3       3
euler: 0 = -2 * 0
kunneth check: ok
== json ==
{
  "betti_product": [
    1,
    3,
    0,
    1,
    3
  ],
  "euler_left": -2,
  "euler_product": 0,
  "euler_right": 0,
  "expected": [
    1,
    3,
    0,
    1,
    3
  ],
  "left": "su2",
  "mode": "product_with_algebra",
  "ok": true,
  "right": "sin_t"
}
"""

KUNNETH_CONST1_ZERO = """\
left: const1 (algebroid, windows N=3..6)
right: zero (algebra, dim 0)
product: algebroid times algebra
degree  expected  actual
     0         1       1
     1         1       1
euler: 0 = 0 * 1
kunneth check: ok
== json ==
{
  "betti_product": [
    1,
    1
  ],
  "euler_left": 0,
  "euler_product": 0,
  "euler_right": 1,
  "expected": [
    1,
    1
  ],
  "left": "const1",
  "mode": "product_with_algebra",
  "ok": true,
  "right": "zero"
}
"""


@pytest.mark.parametrize("argv, stdout", [
    (["kunneth", "sl2_action", "su2"], KUNNETH_SL2_ACTION_SU2),
    (["kunneth", "su2", "sin_t"], KUNNETH_SU2_SIN_T),
    (["kunneth", "const1", "zero"], KUNNETH_CONST1_ZERO),
])
def test_kunneth_product_stdout_is_pinned(argv, stdout, capsys):
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert out == stdout
    assert err == ""


# Full stdout of two sweeps and one cohomology with coefficients, pinned byte
# for byte: every Betti number of `per_N` sits on its own line of the payload.
CIRCLE_SIN_2T_2_5 = """\
algebroid: sin_2t (kind rank1, anchor degree 2)
transitive anchor: no
N   betti
2  [1, 5]
3  [1, 5]
4  [1, 5]
5  [1, 5]
stabilized: yes
betti: [1, 5]
euler characteristic: -4
== json ==
{
  "algebroid": "sin_2t",
  "betti": [
    1,
    5
  ],
  "euler": -4,
  "kind": "rank1",
  "n_max": 5,
  "n_min": 2,
  "per_N": [
    [
      2,
      [
        1,
        5
      ]
    ],
    [
      3,
      [
        1,
        5
      ]
    ],
    [
      4,
      [
        1,
        5
      ]
    ],
    [
      5,
      [
        1,
        5
      ]
    ]
  ],
  "stabilized": true,
  "transitive": false
}
"""


CIRCLE_SL2_ACTION = """\
algebroid: sl2_action (kind action, algebra dim 3, anchor degree 2)
transitive anchor: yes
 N         betti
 4  [1, 2, 1, 0]
 5  [1, 2, 1, 0]
 6  [1, 2, 1, 0]
 7  [1, 2, 1, 0]
 8  [1, 2, 1, 0]
 9  [1, 2, 1, 0]
10  [1, 2, 1, 0]
stabilized: yes
betti: [1, 2, 1, 0]
euler characteristic: 0
== json ==
{
  "algebroid": "sl2_action",
  "betti": [
    1,
    2,
    1,
    0
  ],
  "euler": 0,
  "kind": "action",
  "n_max": 10,
  "n_min": 4,
  "per_N": [
    [
      4,
      [
        1,
        2,
        1,
        0
      ]
    ],
    [
      5,
      [
        1,
        2,
        1,
        0
      ]
    ],
    [
      6,
      [
        1,
        2,
        1,
        0
      ]
    ],
    [
      7,
      [
        1,
        2,
        1,
        0
      ]
    ],
    [
      8,
      [
        1,
        2,
        1,
        0
      ]
    ],
    [
      9,
      [
        1,
        2,
        1,
        0
      ]
    ],
    [
      10,
      [
        1,
        2,
        1,
        0
      ]
    ]
  ],
  "stabilized": true,
  "transitive": true
}
"""


LIE_AFF1_CHAR = """\
algebra: aff1 (dim 2)
coefficients: aff1_char (dim 1)
degree  dim  betti
     0    1      0
     1    2      1
     2    1      1
euler characteristic: 0
== json ==
{
  "algebra": "aff1",
  "betti": [
    0,
    1,
    1
  ],
  "coefficients_dim": 1,
  "degrees": [
    1,
    2,
    1
  ],
  "dim": 2,
  "euler": 0
}
"""


@pytest.mark.parametrize("argv, stdout", [
    (["circle", "sweep", "sin_2t", "--n-min", "2", "--n-max", "5"], CIRCLE_SIN_2T_2_5),
    (["circle", "sweep", "sl2_action"], CIRCLE_SL2_ACTION),
    (["lie", "cohomology", "aff1", "--rep", "aff1_char"], LIE_AFF1_CHAR),
])
def test_sweep_and_cohomology_stdout_is_pinned(argv, stdout, capsys):
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert out == stdout
    assert err == ""


# The payload writer against the standard library, on every type a payload
# holds: strings with quotes, backslashes, control, non-ASCII and non-BMP
# characters, and ints of a thousand digits.
payload_strings = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001d11e'), max_size=6)
payload_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 1000, 10 ** 1000)
    | payload_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(payload_strings, children, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(payload_values)
@example({"": [], "a": {}, "b": [[], {}, [[-1]]], "c": [True, False, None]})
@example([10 ** 999, -(10 ** 999), 0, "\"\\\n\t\u00e9\U0001d11e"])
def test_payload_writer_matches_json_dumps(x):
    assert cli._json(x) == json.dumps(x, indent=2, sort_keys=True)


def test_payload_writer_matches_json_dumps_on_every_catalog_command(capsys):
    algebras = ["zero", *catalog.ALGEBRA_NAMES]
    argvs = [["catalog"]]
    argvs += [[*command, a] for a in algebras
              for command in (["lie", "cohomology"], ["lie", "euler"], ["hopf"])]
    argvs += [["lie", "cohomology", "aff1", "--rep", r] for r in catalog.REPRESENTATION_NAMES]
    argvs += [["circle", "sweep", r] for r in catalog.ALGEBROID_NAMES]
    factors = [*algebras, *catalog.ALGEBROID_NAMES]
    argvs += [["kunneth", x, y] for x in factors for y in factors
              if x in algebras or y in algebras]
    for argv in argvs:
        assert cli.run(argv) == cli.EXIT_OK, argv
        _, _, machine = capsys.readouterr().out.partition(cli.JSON_MARKER + "\n")
        assert machine == json.dumps(json.loads(machine), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("x", [(1, 2), Fraction(1, 2), 0.5, [1, 0.5], {"a": (1,)}])
def test_payload_writer_refuses_other_types(x):
    with pytest.raises(TypeError):
        cli._json(x)


def test_hopf_abelian():
    code, out, _ = run_cli("hopf", "r2")
    assert code == 0
    _, payload = split_output(out)
    assert payload["abelian"] is True
    assert payload["h_structure_ok"] is True
    assert payload["hopf"]["ok"] is True
    assert payload["hopf"]["primitive_dims"] == [0, 2, 0]
    assert payload["exterior_generators"] == [1, 1]


@pytest.mark.parametrize("n", range(8))
def test_hopf_payload_on_a_bracket_free_algebra_is_closed_form(n, tmp_path, capsys):
    # the exterior algebra on n degree-1 generators, primitive exactly in degree 1
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": n, "brackets": []}), encoding="utf-8")
    assert cli.run(["hopf", str(path)]) == 0
    _, payload = split_output(capsys.readouterr().out)
    assert payload["betti"] == [comb(n, p) for p in range(n + 1)]
    assert payload["exterior_generators"] == [1] * n
    assert payload["hopf"] == {"counit": True, "coassociative": True, "algebra_morphism": True,
                               "antipode": True, "ok": True,
                               "primitive_dims": [0, n, *[0] * (n - 1)][:n + 1]}


def test_hopf_nonabelian_reports_without_failing():
    code, out, _ = run_cli("hopf", "su2")
    assert code == 0
    _, payload = split_output(out)
    assert payload["abelian"] is False
    assert payload["h_structure_ok"] is False
    assert payload["hopf"] is None
    assert payload["exterior_generators"] == [3]


def test_symbol_command(tmp_path):
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(
        {"dim_A": 3, "dim_M": 1, "dim_E": 1, "anchor": [["1", "1", "0"]]}))
    code, out, _ = run_cli("symbol", str(path), "--alpha", "1")
    assert code == 0
    _, payload = split_output(out)
    assert payload["beta"] == ["1", "1", "0"]
    assert payload["exact"] is True
    code2, _, err = run_cli("symbol", str(path), "--alpha", "1,2")
    assert code2 == 65
    assert "--alpha" in err
    code3, _, err = run_cli("symbol", str(path), "--alpha=")
    assert code3 == 65 and "expected 1 comma-separated components" in err


def test_symbol_empty_alpha_is_the_zero_dimensional_covector(tmp_path):
    path = tmp_path / "point_base.json"
    path.write_text(json.dumps({"dim_A": 2, "dim_M": 0, "anchor": []}))
    code, out, err = run_cli("symbol", str(path), "--alpha=")
    assert code == 0 and err == ""
    _, payload = split_output(out)
    assert payload["alpha"] == [] and payload["beta"] == ["0", "0"]
    assert payload["exact"] is False


def test_catalog_listing():
    code, out, _ = run_cli("catalog")
    assert code == 0
    _, payload = split_output(out)
    assert "su2" in payload["algebras"]
    assert "zero" in payload["algebras"]
    assert payload["algebroids"] == ["const1", "sin_t", "sin_2t", "r_action", "sl2_action"]


def test_closed_stdout_exits_141_without_a_traceback():
    # stdout is a pipe whose reader is closed before the CLI starts, so its
    # first write fails every time, as after `| head -1` has read its line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "algebroid.cli", "circle", "sweep",
                               "sl2_action"], stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=cli_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")


def test_usage_errors_exit_64():
    for args in ((), ("bogus",), ("lie",), ("circle", "sweep"),
                 ("symbol", "whatever")):
        code, out, err = run_cli(*args)
        assert code == 64, args
        assert out == ""
        assert "usage" in err


def test_parse_errors_exit_65(tmp_path):
    code, _, err = run_cli("lie", "cohomology", "nosuch")
    assert code == 65 and "no such file" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("lie", "cohomology", str(bad))
    assert code == 65 and "invalid JSON" in err
    padded = tmp_path / "zero_denominator.json"
    padded.write_text(json.dumps({
        "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [[1, "3/00"]]}]}))
    code, out, err = run_cli("lie", "cohomology", str(padded))
    assert code == 65 and out == "" and "Traceback" not in err
    assert "zero denominator" in err and "brackets[0].coeffs[0]" in err
    boolean = tmp_path / "boolean_indices.json"
    boolean.write_text(json.dumps({
        "dim": 2, "brackets": [{"i": False, "j": True, "coeffs": [[True, "1"]]}]}))
    code, out, err = run_cli("lie", "cohomology", str(boolean))
    assert code == 65 and out == "" and "Traceback" not in err
    assert "brackets[0]" in err
    newline = tmp_path / "trailing_newline.json"
    newline.write_text(json.dumps({"kind": "rank1", "p": "sin(1t)\n", "N_range": [3, 6]}))
    code, out, err = run_cli("circle", "sweep", str(newline))
    assert code == 65 and out == "" and "Traceback" not in err
    # unreadable input: a directory, and bytes that are not UTF-8
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path, not_utf8):
        code, out, err = run_cli("lie", "cohomology", str(path))
        assert code == 65 and out == "" and "Traceback" not in err
        assert str(path) in err


def test_deeply_nested_json_exits_65(tmp_path):
    # the JSON parser recurses once per bracket and gives up long before 200 000
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for args in (("lie", "cohomology", str(deep)), ("hopf", str(deep)),
                 ("circle", "sweep", str(deep)), ("kunneth", str(deep), "su2"),
                 ("symbol", str(deep), "--alpha", "1")):
        code, out, err = run_cli(*args)
        assert code == 65 and out == "" and "Traceback" not in err, args
        assert "nested too deeply" in err and str(deep) in err, args


@pytest.mark.parametrize("argv, what", [
    (["lie", "cohomology", "nosuch"], "algebra"),
    (["lie", "cohomology", "su2", "--rep", "nosuch"], "representation"),
    (["circle", "sweep", "nosuch"], "algebroid"),
    (["kunneth", "nosuch", "su2"], "entry"),
    (["kunneth", "const1", "nosuch"], "entry"),
    (["hopf", "nosuch"], "algebra"),
])
def test_unknown_names_exit_65_naming_the_slot(argv, what, capsys):
    assert cli.run(argv) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: nosuch: no such file or catalog {what}\n"


def test_kunneth_factor_that_never_stabilizes_exits_3(tmp_path, capsys):
    # the anchor 0: the product's window N has Betti vector (2N + 1) (1, 2, 1)
    path = tmp_path / "zero_anchor.json"
    path.write_text(json.dumps({"kind": "rank1", "p": "0", "N_range": [0, 4]}))
    assert cli.run(["kunneth", str(path), "r1"]) == cli.EXIT_NOT_STABILIZED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("not stabilized: Betti numbers did not stabilize over the sweep "
                   "(N=0: [1, 2, 1], N=1: [3, 6, 3], N=2: [5, 10, 5], N=3: [7, 14, 7], "
                   "N=4: [9, 18, 9])\n")


def test_validation_errors_exit_2(tmp_path):
    path = tmp_path / "bad_bracket.json"
    path.write_text(json.dumps({
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": [[2, "1"]]},
            {"i": 1, "j": 2, "coeffs": [[1, "1"]]},
        ],
    }))
    code, out, err = run_cli("lie", "cohomology", str(path))
    assert code == 2 and out == ""
    assert "Jacobi" in err
    assert "(0, 1, 2)" in err  # the only basis triple, named
    # abelian r3 on Q^2 whose rho_1 and rho_2 do not commute: not flat on (1, 2)
    rep = tmp_path / "not_flat.json"
    rep.write_text(json.dumps({"algebra": "r3", "dim_E": 2, "action": [
        [["0", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}))
    code, out, err = run_cli("lie", "cohomology", "r3", "--rep", str(rep))
    assert code == 2 and out == ""
    assert "on basis pair (1, 2)" in err
    # [1 d/dt, sin t d/dt] = cos t d/dt, but r3 is abelian: the pair (0, 2) fails
    roid = tmp_path / "bad_action.json"
    roid.write_text(json.dumps({"kind": "action", "g": {"dim": 3},
                                "phi": ["1", "1", "sin(1t)"], "N_range": [1, 3]}))
    code, out, err = run_cli("circle", "sweep", str(roid))
    assert code == 2 and out == ""
    assert "on basis pair (0, 2)" in err


# -- refusals of inputs that lie cohomology splits ------------------------------
# The checks run once, on the whole input, before any summand is built, so a
# direct sum is refused as the whole complex would be, naming whole-input indices.

def test_a_bracket_free_dim_19_algebra_is_refused_from_the_budget(tmp_path, capsys):
    path = tmp_path / "abelian19.json"
    path.write_text(json.dumps({"dim": 19, "brackets": []}))
    rep = tmp_path / "trivial19.json"
    rep.write_text(json.dumps({"dim_E": 1, "action": [[["0"]]] * 19}))
    message = ("validation error: the Chevalley-Eilenberg complex would have 524288 cochains, "
               "more than the budget of 262144\n")
    for argv in (["lie", "cohomology", str(path)], ["hopf", str(path)],
                 ["lie", "cohomology", str(path), "--rep", str(rep)]):
        assert cli.run(argv) == cli.EXIT_VALIDATION, argv
        assert capsys.readouterr() == ("", message), argv


def test_a_direct_sum_breaking_jacobi_names_the_whole_input_triple(tmp_path, capsys):
    # su2 + a dim-4 table violating Jacobi on its (1, 2, 3): (4, 5, 6) in the sum
    bad = LieAlgebra.make(4, {(1, 2): {3: 1}, (2, 3): {2: 1}})
    g = direct_sum(catalog.algebra("su2"), bad)
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(algebra_to_dict(g)))
    assert cli.run(["lie", "cohomology", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "validation error: structure constants violate the "
                                       "Jacobi identity on basis triple (4, 5, 6)\n")
    for compute in (liealg.lie_cohomology, liealg.ce_complex):
        with pytest.raises(ValidationError, match=r"basis triple \(4, 5, 6\)$"):
            compute(liealg.trivial_representation(g))


def test_a_direct_sum_with_a_curved_block_names_the_whole_pair(tmp_path, capsys):
    # aff1 + h3 on Q^2: a character of aff1 on the first coordinate, and on the
    # second e4 = [e2, e3] acting by 1 while e2 and e3 act by 0
    g = direct_sum(catalog.algebra("aff1"), catalog.algebra("h3"))
    action = [[["1", "0"], ["0", "0"]]] + [[["0", "0"], ["0", "0"]]] * 3 + [[["0", "0"], ["0", "1"]]]
    (tmp_path / "sum.json").write_text(json.dumps(algebra_to_dict(g)))
    (tmp_path / "rep.json").write_text(json.dumps({"dim_E": 2, "action": action}))
    argv = ["lie", "cohomology", str(tmp_path / "sum.json"), "--rep", str(tmp_path / "rep.json")]
    assert cli.run(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "validation error: action matrices do not represent "
                                       "the bracket on basis pair (2, 3)\n")


def test_rank1_sweeps_reject_nonsimple_zeros(tmp_path):
    # 1 - cos 2t = 2 sin^2 t has double zeros at 0 and pi
    path = tmp_path / "double_zeros.json"
    path.write_text(json.dumps({"kind": "rank1", "p": "1 + -1*cos(2t)", "N_range": [2, 6]}))
    for args in (("circle", "sweep", str(path)), ("kunneth", str(path), "r1")):
        code, out, err = run_cli(*args)
        assert code == 2 and out == ""
        assert "not simple" in err
    # sin t (2 + cos t) has two simple zeros and still sweeps
    path.write_text(json.dumps({"kind": "rank1", "p": "2*sin(1t) + 1/2*sin(2t)",
                                "N_range": [2, 6]}))
    code, _, err = run_cli("circle", "sweep", str(path))
    assert code == 0 and err == ""


def test_unstabilized_sweep_exits_3(monkeypatch, capsys):
    def fake_sweep(a, n_min, n_max):
        per_n = tuple((n, (1, n)) for n in range(n_min, n_max + 1))
        report = CohomologyReport(degrees=(1, n_max), betti=(1, n_max), euler=1 - n_max)
        return SweepResult(report=report, per_n=per_n, stabilized=False)

    monkeypatch.setattr(circle, "stabilized_cohomology", fake_sweep)
    code = cli.run(["circle", "sweep", "sin_t"])
    out = capsys.readouterr().out
    assert code == 3
    assert "stabilized: no" in out
    human, payload = split_output(out)
    assert payload["stabilized"] is False
    assert payload["betti"] is None


def test_dense_rank1_anchor_sweeps_in_seconds(tmp_path, capsys):
    # 1/3 + 2 sin 31t + cos 32t: zero counting by Euclid over Fraction, with
    # three Sturm chains, took 47 to 50 s on a 2-CPU host
    path = tmp_path / "dense32.json"
    path.write_text(json.dumps({"kind": "rank1", "p": "1/3 + 2*sin(31t) + cos(32t)",
                                "N_range": [0, 4]}))
    start = time.perf_counter()
    assert cli.run(["circle", "sweep", str(path)]) == 0
    assert time.perf_counter() - start < 5
    _, payload = split_output(capsys.readouterr().out)
    assert payload["betti"] == [1, 65] and payload["transitive"] is False


def test_rank1_sweep_builds_the_numerator_once(tmp_path, monkeypatch, capsys):
    # transitivity is read off the zero count the sweep already made
    path = tmp_path / "two_zeros.json"
    path.write_text(json.dumps({"kind": "rank1", "p": "2*sin(1t) + 1/2*sin(2t)",
                                "N_range": [0, 4]}))
    cases = [(name, catalog.algebroid(name)[0]) for name in catalog.ALGEBROID_NAMES]
    cases = [(name, a) for name, a in cases if isinstance(a, Rank1Anchor)]
    cases.append((str(path), Rank1Anchor(io.trig_from_string("2*sin(1t) + 1/2*sin(2t)"))))
    real_numerator = circle.weierstrass_numerator
    calls = []

    def counting_numerator(f):
        calls.append(f)
        return real_numerator(f)

    for arg, a in cases:
        expected = is_transitive(a)
        monkeypatch.setattr(circle, "weierstrass_numerator", counting_numerator)
        calls.clear()
        assert cli.run(["circle", "sweep", arg]) in (0, 3)
        monkeypatch.undo()
        assert len(calls) == 1, arg
        _, payload = split_output(capsys.readouterr().out)
        assert payload["transitive"] is expected, arg


@pytest.mark.parametrize("algebra_first", [False, True])
def test_kunneth_with_a_large_abelian_algebra_is_refused_from_the_budget(
        tmp_path, capsys, algebra_first):
    # no Jacobi triple of an empty bracket table is visited before the window budget
    path = tmp_path / "abelian2000.json"
    path.write_text(json.dumps({"dim": 2000, "brackets": []}))
    argv = ["kunneth", str(path), "sin_t"] if algebra_first else ["kunneth", "sin_t", str(path)]
    start = time.perf_counter()
    assert cli.run(argv) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "the window-8 complex would have" in err


# -- size budget --------------------------------------------------------------
# The guard compares a count made from the dimensions alone against
# MAX_COCHAINS before anything is assembled.  It is tested through that
# count: the count must equal the assembled size, hostile inputs must count
# over the budget, and a budget lowered to just below a small input's count
# must refuse it.  Nothing over the real budget is ever built here.

def window_cochains(dim: int, d: int, n: int) -> int:
    """Cochains of the window-n complex of a dim-dimensional action algebroid
    of anchor degree d: sum_p C(dim, p) (2 (n + p d) + 1)."""
    return sum(comb(dim, p) * (2 * (n + p * d) + 1) for p in range(dim + 1))


def test_size_formula_counts_every_cochain():
    sl2a, _ = catalog.algebroid("sl2_action")
    h3_product = product_with_lie_algebra(sl2a, catalog.algebra("h3"))
    for n in (0, 3):
        assert window_cochains(3, 2, n) == sum(truncated_complex(sl2a, n).complex.degrees)
        assert window_cochains(1, 2, n) == \
            sum(truncated_complex(Rank1Anchor(TrigPoly.sin(2)), n).complex.degrees)
        assert window_cochains(3, 2, n) * 2 ** 3 == \
            sum(truncated_complex(h3_product, n).complex.degrees)
    adjoint = adjoint_representation(catalog.algebra("diamond4"))
    assert sum(ce_complex(adjoint).degrees) == 4 * 2 ** 4


def test_size_budget_refuses_hostile_inputs_and_admits_the_ladder():
    assert window_cochains(3, 2, 10 ** 9) > MAX_COCHAINS  # sl2_action, "N_range": [0, 1000000000]
    assert window_cochains(1, 1, 10 ** 6) > MAX_COCHAINS  # sin(1t) out to N = 10^6
    assert 2 ** 40 > MAX_COCHAINS                         # {"dim": 40}
    assert window_cochains(3, 2, 100) * 2 ** 3 <= MAX_COCHAINS  # sl2_action x su2 at N = 100
    assert 2 ** 14 <= MAX_COCHAINS                        # trivial CE of a dim-14 algebra
    assert 7 * 2 ** 7 <= MAX_COCHAINS                     # adjoint CE of su2 + diamond4
    assert 4 ** 9 <= MAX_COCHAINS < 4 ** 10  # the addition coproduct admits abelian dim <= 9


@pytest.mark.parametrize("argv, cochains", [
    (["lie", "cohomology", "su2"], 8),
    (["lie", "cohomology", "aff1", "--rep", "aff1_rep2"], 2 * 4),
    (["circle", "sweep", "sl2_action"], window_cochains(3, 2, 10)),
    (["kunneth", "sin_t", "su2"], window_cochains(1, 1, 8) * 8),
    (["hopf", "r2"], 4 ** 2),  # the coproduct lands in H(r2 + r2)
])
def test_size_budget_exits_2_over_the_count(argv, cochains, monkeypatch, capsys):
    monkeypatch.setattr(exactlinalg, "MAX_COCHAINS", cochains)
    assert cli.run(argv) == 0
    monkeypatch.setattr(exactlinalg, "MAX_COCHAINS", cochains - 1)
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert f"would have {cochains} cochains, more than the budget of {cochains - 1}" in err


def test_hopf_budget_comes_before_the_h_structure_check(monkeypatch, capsys):
    # h_structure_ok is read off abelianness, so the first check after both
    # budgets is the exterior factorization of the Poincare polynomial
    def structure_check(betti):
        raise AssertionError("the cohomology was checked before the budget")

    monkeypatch.setattr(hopf, "exterior_structure_check", structure_check)
    monkeypatch.setattr(exactlinalg, "MAX_COCHAINS", 4 ** 3 - 1)
    assert cli.run(["hopf", "r3"]) == 2
    assert "the addition coproduct would have 64 cochains" in capsys.readouterr().err
    monkeypatch.setattr(exactlinalg, "MAX_COCHAINS", 2 ** 3 - 1)
    assert cli.run(["hopf", "su2"]) == 2
    assert "would have 8 cochains" in capsys.readouterr().err


def test_size_budget_refuses_a_dim_40_action_before_any_form(tmp_path, monkeypatch, capsys):
    def forms(n, p):
        raise AssertionError("a form was enumerated before the budget")

    monkeypatch.setattr(circle, "basis_masks", forms)
    path = tmp_path / "dim40.json"
    path.write_text(json.dumps({"kind": "action", "g": {"dim": 40, "brackets": []},
                                "phi": ["sin(1t)"] * 40, "N_range": [0, 2]}))
    assert cli.run(["circle", "sweep", str(path)]) == 2
    # 2^dim (2N + 1 + d * moving slots) at the widest window N = 2
    assert f"would have {2 ** 40 * (2 * 2 + 1 + 40)} cochains" in capsys.readouterr().err


def test_size_budget_covers_symbol_complexes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({"dim_A": 3, "dim_M": 1, "dim_E": 2,
                                "anchor": [["1", "1", "0"]]}))
    monkeypatch.setattr(exactlinalg, "MAX_COCHAINS", 2 * 2 ** 3 - 1)
    assert cli.run(["symbol", str(path), "--alpha", "1"]) == 2
    assert "the symbol complex would have 16 cochains" in capsys.readouterr().err
    # a zero coefficient space still enumerates the 2^3 forms: it counts as a line
    path.write_text(json.dumps({"dim_A": 3, "dim_M": 1, "dim_E": 0,
                                "anchor": [["1", "1", "0"]]}))
    monkeypatch.setattr(exactlinalg, "MAX_COCHAINS", 2 ** 3 - 1)
    assert cli.run(["symbol", str(path), "--alpha", "1"]) == 2
    assert "the symbol complex would have 8 cochains" in capsys.readouterr().err


# -- the parser is built once per process -------------------------------------

def test_cached_parser_gives_identical_runs(tmp_path, capsys):
    fiber = tmp_path / "fiber.json"
    fiber.write_text(json.dumps({"dim_A": 3, "dim_M": 1, "dim_E": 2,
                                 "anchor": [["1", "1", "0"]]}))
    argvs = [
        ["lie", "cohomology", "su2"],
        ["lie", "euler", "aff1", "--rep", "aff1_char"],
        ["circle", "sweep", "sin_t"],
        ["kunneth", "su2", "h3"],
        ["hopf", "r3"],
        ["symbol", str(fiber), "--alpha", "1"],
        ["catalog"],
    ]

    def outcome(argv):
        code = cli.run(argv)
        out, err = capsys.readouterr()
        return code, out, err

    first = [outcome(argv) for argv in argvs]
    usage = outcome(["circle", "sweep", "sin_t", "--n-min", "x"])
    parse = outcome(["lie", "cohomology", "no_such_algebra"])
    second = [outcome(argv) for argv in argvs]
    assert (usage[0], usage[1]) == (cli.EXIT_USAGE, "")
    assert (parse[0], parse[1]) == (cli.EXIT_PARSE, "")
    assert [code for code, _, _ in first] == [0] * len(argvs)
    assert second == first
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("error", [DegreeOutOfRangeError, NotAbelianError])
def test_every_package_error_exits_2(error, monkeypatch, capsys):
    def failing(rep):
        raise error("raised by a stub")

    monkeypatch.setattr(liealg, "lie_cohomology", failing)
    assert cli.run(["lie", "cohomology", "su2"]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: raised by a stub\n"


# -- the harmonic cap ----------------------------------------------------------

def test_harmonic_cap_refuses_before_any_trig_coefficient(tmp_path, monkeypatch, capsys):
    def build(cls, k, c=1):
        raise AssertionError("a coefficient list was built before the cap")

    monkeypatch.setattr(TrigPoly, "sin", classmethod(build))
    monkeypatch.setattr(TrigPoly, "cos", classmethod(build))
    for k in ("1000000000", "9" * 5000):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"kind": "rank1", "p": f"sin({k}t)", "N_range": [0, 2]}))
        assert cli.run(["circle", "sweep", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"over the cap of {MAX_TRIG_DEGREE}" in err and "Traceback" not in err
    monkeypatch.undo()
    assert io.trig_from_string(f"cos({MAX_TRIG_DEGREE}t)") == TrigPoly.cos(MAX_TRIG_DEGREE)


# -- over-long numbers -----------------------------------------------------------

@pytest.mark.parametrize("argv, text", [
    (["circle", "sweep"],
     json.dumps({"kind": "rank1", "p": "1" * 5000 + "*sin(1t)", "N_range": [1, 3]})),
    (["lie", "cohomology"],
     json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, "1" * 5000]]}]})),
    (["lie", "cohomology"], '{"dim": ' + "1" * 5000 + ', "brackets": []}'),
], ids=["rank1-p", "bracket-coefficient", "json-integer"])
def test_over_long_numbers_are_parse_errors(tmp_path, capsys, argv, text):
    # int() refuses more than sys.get_int_max_str_digits() digits with a ValueError
    path = tmp_path / "long.json"
    path.write_text(text)
    assert cli.run([*argv, str(path)]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error: ") and str(path) in err
    assert f"more than {sys.get_int_max_str_digits()} digits" in err and "Traceback" not in err
