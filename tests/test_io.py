"""Wire format round-trips and parse diagnostics."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fixtures
import oracle
from algebroid import catalog, io
from algebroid.circle import ActionAlgebroid, Rank1Anchor, TrigPoly
from algebroid.errors import ParseError, ValidationError
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
        assert io.trig_from_string(fixtures.trig_to_string(f)) == f


def test_trig_parse_forms():
    assert io.trig_from_string("0") == TrigPoly.const(0)
    assert io.trig_from_string("cos(2t)") == TrigPoly.cos(2)
    assert io.trig_from_string("-sin(t)") == TrigPoly.sin(1, -1)
    assert io.trig_from_string("1 + 2*cos(1t) + -1/2*sin(3t)") == TrigPoly.make(
        1, [2, 0, 0], [0, 0, F(-1, 2)])
    # terms may repeat and accumulate
    assert io.trig_from_string("cos(1t) + cos(1t)") == TrigPoly.cos(1, 2)


@st.composite
def trig_terms(draw):
    """(text, TrigPoly) of one term: a constant or [c*]cos|sin(kt), with k
    spelled "k", with a leading zero, or left out when it is 1."""
    c = draw(st.builds(F, st.integers(-9, 9), st.integers(1, 4)))
    if draw(st.booleans()):
        return str(c), TrigPoly.const(c)
    kind, k = draw(st.sampled_from(["cos", "sin"])), draw(st.integers(1, 5))
    spelled = draw(st.sampled_from([str(k), f"0{k}"] + ([""] if k == 1 else [])))
    prefix = "" if c == 1 else "-" if c == -1 else f"{c}*"
    return f"{prefix}{kind}({spelled}t)", (TrigPoly.cos if kind == "cos" else TrigPoly.sin)(k, c)


@settings(max_examples=150, deadline=None)
@given(st.lists(trig_terms(), min_size=1, max_size=8))
def test_trig_parse_sums_the_terms(terms):
    # one pass into coefficient lists, against adding the terms' window coordinates;
    # harmonics repeat, since k is drawn from 1..5
    expected = oracle.trig_lincomb((1, f) for _, f in terms)
    assert io.trig_from_string(" + ".join(text for text, _ in terms)) == expected


def test_trig_parse_errors():
    for bad in ("", "1 +", "cos(0t)", "2cos(1t)", "cos", "sin()x", "1.5", "٢*sin(١t)",
                "sin(١t)", "sin(1t)\n", "2\n"):
        with pytest.raises(ParseError):
            io.trig_from_string(bad, where="p")


def test_algebra_round_trip_catalog():
    for name in ("zero",) + catalog.ALGEBRA_NAMES:
        g = catalog.algebra(name)
        assert io.algebra_from_dict(fixtures.algebra_to_dict(g)) == g


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
        d = fixtures.representation_to_dict(r)
        assert io.representation_from_dict(d, r.algebra) == r
    adj = adjoint_representation(catalog.algebra("su2"))
    d = fixtures.representation_to_dict(adj)
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


# (bad entry, message) for an entry of an action matrix
BAD_ENTRIES = [
    (1.5, 'expected a rational string like "3" or "-1/2", got 1.5'),
    (True, 'expected a rational string like "3" or "-1/2", got True'),
    (None, 'expected a rational string like "3" or "-1/2", got None'),
    (0, 'expected a rational string like "3" or "-1/2", got 0'),
    ("x", "expected a rational string like \"3\" or \"-1/2\", got 'x'"),
    ("1/0", "zero denominator"),
    ("7" * 4301, "a number has more than 4300 digits"),
]


@pytest.mark.parametrize("bad, message", BAD_ENTRIES, ids=lambda x: repr(x)[:12])
def test_action_entry_diagnostics(bad, message):
    # zeros before the bad entry are skipped; the first bad entry is reported, at its own path
    g = catalog.algebra("aff1")
    d = {"dim_E": 2, "action": [[["1", "0"], ["0", "0"]], [["0", bad], ["0", "x"]]]}
    with pytest.raises(ParseError) as err:
        io.representation_from_dict(d, g)
    assert err.value.where == "representation.action[1][0][1]"
    assert str(err.value) == f"representation.action[1][0][1]: {message}"


def test_action_entries_that_are_zero_store_no_entry():
    g = catalog.algebra("aff1")
    for zero in ("0", "-0", "+0", " 0 ", "0/7"):
        d = {"dim_E": 2, "action": [[[zero, "1/2"], [zero, zero]], [["-2/4", zero], [zero, "3"]]]}
        r = io.representation_from_dict(d, g)
        expected = [RationalMatrix.from_rows([[0, F(1, 2)], [0, 0]]),
                    RationalMatrix.from_rows([[F(-1, 2), 0], [0, 3]])]
        for m, e in zip(r.action, expected):
            assert (m._num, m._den) == (e._num, e._den), zero


def test_algebroid_round_trip():
    for name in catalog.ALGEBROID_NAMES:
        a, rng = catalog.algebroid(name)
        d = fixtures.algebroid_to_dict(a, rng)
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
    d = fixtures.fiber_to_dict(f)
    assert io.fiber_from_dict(d) == f


def test_fiber_diagnostics():
    with pytest.raises(ParseError):
        io.fiber_from_dict({"dim_A": 2, "dim_M": "1", "anchor": [["0", "0"]]})
    with pytest.raises(ParseError):
        io.fiber_from_dict({"dim_A": 2, "dim_M": 1, "anchor": [["0"]]})


def test_json_file_round_trip(tmp_path):
    g = catalog.algebra("su2")
    path = tmp_path / "su2.json"
    fixtures.dump_json(fixtures.algebra_to_dict(g), str(path))
    assert io.algebra_from_dict(io.load_json(str(path))) == g
    # deterministic bytes: dump twice and compare
    path2 = tmp_path / "su2b.json"
    fixtures.dump_json(fixtures.algebra_to_dict(g), str(path2))
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


# -- fuzzing the parsers ---------------------------------------------------------
#
# Every parser either returns or raises ParseError / ValidationError, for any
# JSON value.  Numbers and digit strings run up to 5000 digits, past the
# 4300 that int() reads by default.  The templates below keep most fields
# plausible and replace the others by arbitrary values, so that the fuzz
# reaches nested fields and not only the top-level type checks.

lengths = st.sampled_from([1, 4300, 4301, 5000]) | st.integers(1, 5000)
digit_runs = lengths.map(lambda k: "7" * k)
integers = st.integers(-2, 4) | lengths.map(lambda k: 10 ** k - 1) | lengths.map(lambda k: -10 ** k)
strings = (st.sampled_from(["0", "2", "-1/2", "3/0", " 1 ", "1.5", "", "x", "sin(1t)",
                            "-2*cos(3t) + 1/2", "cos(65t)", "2sin(1t)", "1 +"])
           | st.text(max_size=6) | digit_runs | digit_runs.map(lambda s: "1/" + s)
           | digit_runs.map(lambda s: s + "*sin(1t)") | digit_runs.map(lambda s: f"cos({s}t)"))
KEYS = ["dim", "brackets", "i", "j", "coeffs", "name", "dim_E", "action", "kind", "N_range",
        "p", "g", "phi", "dim_A", "dim_M", "anchor"]
json_values = st.recursive(
    st.none() | st.booleans() | integers | st.floats() | strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12)


def field(plausible):
    """Mostly a plausible value, one draw in eight an arbitrary one."""
    return st.integers(0, 7).flatmap(lambda r: plausible if r else json_values)


def small(hi):
    return field(st.integers(0, hi))


def matrices(rows, cols):
    return field(st.lists(st.lists(field(strings), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))


algebra_dicts = st.fixed_dictionaries(
    {"dim": field(st.integers(2, 3)),
     "brackets": field(st.lists(st.fixed_dictionaries(
         {"i": field(st.integers(0, 1)), "j": field(st.integers(1, 2)),
          "coeffs": field(st.lists(st.tuples(small(2), field(strings)).map(list),
                                   max_size=3))}), max_size=3))},
    optional={"name": field(st.text(max_size=4))})


def representation_dicts(g):
    return st.integers(0, 2).flatmap(lambda e: st.fixed_dictionaries(
        {"dim_E": field(st.just(e)),
         "action": field(st.lists(matrices(e, e), min_size=g.dim, max_size=g.dim))}))


N_ranges = field(st.lists(st.integers(0, 5), min_size=2, max_size=2).map(sorted))
algebroid_dicts = st.fixed_dictionaries(
    {"kind": field(st.just("rank1")), "p": field(strings), "N_range": N_ranges}) | \
    st.fixed_dictionaries(
        {"kind": field(st.just("action")), "g": field(algebra_dicts),
         "phi": field(st.lists(field(strings), min_size=2, max_size=3)), "N_range": N_ranges})
fiber_dicts = st.tuples(st.integers(0, 3), st.integers(0, 2)).flatmap(
    lambda am: st.fixed_dictionaries(
        {"dim_A": field(st.just(am[0])), "dim_M": field(st.just(am[1])),
         "anchor": matrices(am[1], am[0])}, optional={"dim_E": small(2)}))


def returns_or_raises_parse_errors(parse, *args):
    try:
        parse(*args)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=100, deadline=None)
@given(json_values | algebra_dicts)
@example({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, "1" * 5000]]}]})
@example({"dim": 10 ** 5000})
def test_algebra_parser_fuzz(d):
    returns_or_raises_parse_errors(io.algebra_from_dict, d)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["zero", "r1", "aff1", "sl2"]).map(catalog.algebra).flatmap(
    lambda g: st.tuples(json_values | representation_dicts(g), st.just(g))))
@example(({"dim_E": 1, "action": [[[10 ** 5000]]]}, catalog.algebra("r1")))
@example(({"dim_E": 10 ** 5000, "action": [[]]}, catalog.algebra("r1")))
def test_representation_parser_fuzz(d_and_g):
    d, g = d_and_g
    returns_or_raises_parse_errors(io.representation_from_dict, d, g)


@settings(max_examples=100, deadline=None)
@given(json_values | algebroid_dicts)
@example({"kind": "rank1", "p": "1" * 5000 + "*sin(1t)", "N_range": [1, 3]})
def test_algebroid_parser_fuzz(d):
    returns_or_raises_parse_errors(io.algebroid_from_dict, d)


@settings(max_examples=100, deadline=None)
@given(json_values | fiber_dicts)
@example({"dim_A": 1, "dim_M": 1, "anchor": [["1/" + "7" * 5000]]})
def test_fiber_parser_fuzz(d):
    returns_or_raises_parse_errors(io.fiber_from_dict, d)
