"""Wire format round-trips and parse diagnostics."""

from fractions import Fraction

import pytest

from algebroid import catalog, io
from algebroid.circle import ActionAlgebroid, Rank1Anchor, TrigPoly
from algebroid.errors import ParseError
from algebroid.exactlinalg import RationalMatrix
from algebroid.liealg import adjoint_representation
from algebroid.symbol import FiberData

F = Fraction


def test_rational_round_trip():
    for x in (F(0), F(3), F(-7, 2), F(22, 7)):
        assert io.parse_rational(io.format_rational(x)) == x
    assert io.parse_rational(" 2/4 ") == F(1, 2)


def test_rational_errors():
    for bad in ("", "x", "1.5", "1/", "/2", "1/2/3", 5, None, "١/٢", "٣"):
        with pytest.raises(ParseError):
            io.parse_rational(bad, where="field")
    for zero_denominator in ("3/0", "3/00"):
        with pytest.raises(ParseError) as err:
            io.parse_rational(zero_denominator, where="field")
        assert "field" in str(err.value)


def test_trig_string_round_trip():
    cases = [
        TrigPoly.const(0),
        TrigPoly.const(-3),
        TrigPoly.sin(1),
        TrigPoly.make(F(1, 2), [F(-2, 3), 0], [0, 1]),
        TrigPoly.make(0, [0, 0, 5], [0, 0, 0]),
    ]
    for f in cases:
        assert io.trig_from_string(io.trig_to_string(f)) == f


def test_trig_parse_forms():
    assert io.trig_from_string("0") == TrigPoly.const(0)
    assert io.trig_from_string("cos(2t)") == TrigPoly.cos(2)
    assert io.trig_from_string("-sin(t)") == TrigPoly.sin(1, -1)
    assert io.trig_from_string("1 + 2*cos(1t) + -1/2*sin(3t)") == TrigPoly.make(
        1, [2, 0, 0], [0, 0, F(-1, 2)])
    # terms may repeat and accumulate
    assert io.trig_from_string("cos(1t) + cos(1t)") == TrigPoly.cos(1, 2)


def test_trig_parse_errors():
    for bad in ("", "1 +", "cos(0t)", "2cos(1t)", "cos", "sin()x", "1.5", "٢*sin(١t)",
                "sin(١t)", "sin(1t)\n", "2\n"):
        with pytest.raises(ParseError):
            io.trig_from_string(bad, where="p")


def test_algebra_round_trip_catalog():
    for name in ("zero",) + catalog.ALGEBRA_NAMES:
        g = catalog.algebra(name)
        assert io.algebra_from_dict(io.algebra_to_dict(g)) == g


def test_algebra_parse_diagnostics():
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": True})
    assert "dim" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": 2, "brackets": [{"i": 1, "j": 0, "coeffs": []}]})
    assert "brackets[0]" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "coeffs": []},
            {"i": 0, "j": 1, "coeffs": []},
        ]})
    assert "duplicate" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "coeffs": [[2, "1"]]}]})
    assert "coeffs[0]" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "coeffs": [[1, "1/0"]]}]})
    assert "zero denominator" in str(err.value)
    # JSON booleans are not indices, although Python's bool is an int
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": 2, "brackets": [
            {"i": False, "j": True, "coeffs": [[True, "1"]]}]})
    assert "brackets[0]" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.algebra_from_dict({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "coeffs": [[True, "1"]]}]})
    assert "coeffs[0]" in str(err.value)


def test_representation_round_trip():
    for name in catalog.REPRESENTATION_NAMES:
        r = catalog.representation(name)
        d = io.representation_to_dict(r)
        assert io.representation_from_dict(d, r.algebra) == r
    adj = adjoint_representation(catalog.algebra("su2"))
    d = io.representation_to_dict(adj)
    assert io.representation_from_dict(d, adj.algebra) == adj


def test_representation_diagnostics():
    g = catalog.algebra("aff1")
    with pytest.raises(ParseError):
        io.representation_from_dict({"dim_E": -1, "action": []}, g)
    with pytest.raises(ParseError):
        io.representation_from_dict({"dim_E": 1, "action": [[["1"]]]}, g)  # one matrix short
    with pytest.raises(ParseError):
        io.representation_from_dict(
            {"dim_E": 1, "action": [[["1", "0"]], [["1"]]]}, g)  # bad shape


def test_algebroid_round_trip():
    for name in catalog.ALGEBROID_NAMES:
        a, rng = catalog.algebroid(name)
        d = io.algebroid_to_dict(a, rng)
        a2, rng2 = io.algebroid_from_dict(d)
        assert a2 == a and rng2 == rng


def test_algebroid_diagnostics():
    with pytest.raises(ParseError) as err:
        io.algebroid_from_dict({"kind": "spectral", "N_range": [1, 4]})
    assert "kind" in str(err.value)
    with pytest.raises(ParseError):
        io.algebroid_from_dict({"kind": "rank1", "p": "1", "N_range": [4, 1]})
    with pytest.raises(ParseError):
        io.algebroid_from_dict({"kind": "rank1", "p": "1", "N_range": [1]})
    with pytest.raises(ParseError):
        io.algebroid_from_dict({"kind": "action", "g": {"dim": 2, "brackets": []},
                                "phi": ["1"], "N_range": [1, 4]})


def test_fiber_round_trip():
    f = FiberData(dim_a=3, dim_m=2,
                  anchor=RationalMatrix.from_rows([[1, 0, "1/2"], [0, 1, 0]]),
                  dim_e=2)
    d = io.fiber_to_dict(f)
    assert io.fiber_from_dict(d) == f


def test_fiber_diagnostics():
    with pytest.raises(ParseError):
        io.fiber_from_dict({"dim_A": 2, "dim_M": "1", "anchor": [["0", "0"]]})
    with pytest.raises(ParseError):
        io.fiber_from_dict({"dim_A": 2, "dim_M": 1, "anchor": [["0"]]})


def test_json_file_round_trip(tmp_path):
    g = catalog.algebra("su2")
    path = tmp_path / "su2.json"
    io.dump_json(io.algebra_to_dict(g), str(path))
    assert io.algebra_from_dict(io.load_json(str(path))) == g
    # deterministic bytes: dump twice and compare
    path2 = tmp_path / "su2b.json"
    io.dump_json(io.algebra_to_dict(g), str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_json_error_reporting(tmp_path):
    with pytest.raises(ParseError) as err:
        io.load_json(str(tmp_path / "missing.json"))
    assert "not found" in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"dim\": 2,\n}")
    with pytest.raises(ParseError) as err:
        io.load_json(str(bad))
    assert "line 3" in str(err.value)
