"""Command line behavior: output shape, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algebroid import cli
from algebroid.circle import SweepResult
from algebroid.exactlinalg import CohomologyReport


def run_cli(*args, env_extra=None):
    # The subprocess imports the same package as this test process.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
    real_load = cli.io.load_json

    def counting_load(path):
        calls.append(path)
        return real_load(path)

    monkeypatch.setattr(cli.io, "load_json", counting_load)
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


def test_hopf_abelian():
    code, out, _ = run_cli("hopf", "r2")
    assert code == 0
    _, payload = split_output(out)
    assert payload["abelian"] is True
    assert payload["h_structure_ok"] is True
    assert payload["hopf"]["ok"] is True
    assert payload["hopf"]["primitive_dims"] == [0, 2, 0]
    assert payload["exterior_generators"] == [1, 1]


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


def test_catalog_listing():
    code, out, _ = run_cli("catalog")
    assert code == 0
    _, payload = split_output(out)
    assert "su2" in payload["algebras"]
    assert "zero" in payload["algebras"]
    assert payload["algebroids"] == ["const1", "sin_t", "sin_2t", "r_action", "sl2_action"]


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
    def fake_sweep(a, n_min, n_max, strict=True):
        per_n = tuple((n, (1, n)) for n in range(n_min, n_max + 1))
        report = CohomologyReport(degrees=(1, n_max), betti=(1, n_max), euler=1 - n_max)
        return SweepResult(report=report, per_n=per_n, stabilized=False)

    monkeypatch.setattr(cli, "stabilized_cohomology", fake_sweep)
    code = cli.run(["circle", "sweep", "sin_t"])
    out = capsys.readouterr().out
    assert code == 3
    assert "stabilized: no" in out
    human, payload = split_output(out)
    assert payload["stabilized"] is False
    assert payload["betti"] is None
