"""Hypothesis fuzzing of the command line: every subcommand on generated
files exits with a documented code, raises nothing out of `cli.run`, and
prints either nothing or a full report ending in its JSON payload."""

import contextlib
import io
import json
import os
import tempfile
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from algebroid import catalog, cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NOT_STABILIZED, cli.EXIT_USAGE,
              cli.EXIT_PARSE}

# Dimensions past the size budget, refused from the numbers alone: a dim
# whose 2^dim has thousands of digits, a dim_A whose anchor transpose would
# hold millions of rows, and a zero coefficient space, counted as a line.
HOSTILE = [
    ["lie", "cohomology", {"dim": 20000, "brackets": []}],
    ["lie", "euler", {"dim": 100000000, "brackets": []}],
    ["hopf", {"dim": 20000, "brackets": []}],
    ["kunneth", {"dim": 20000, "brackets": []}, "su2"],
    ["symbol", {"dim_A": 3000000, "dim_M": 0, "anchor": []}, "--alpha", ""],
    ["symbol", {"dim_A": 200000, "dim_M": 0, "dim_E": 0, "anchor": []}, "--alpha", ""],
]

junk = (st.none() | st.booleans() | st.integers(-2, 7) | st.text(max_size=3)
        | st.lists(st.integers(0, 2), max_size=2))


def mostly(strategy):
    """The strategy in about 7 of 8 draws, else a junk JSON value (at a middle
    value of k, as Hypothesis favours the ends of a range)."""
    return st.integers(0, 7).flatmap(lambda k: junk if k == 4 else strategy)


rationals = st.builds(lambda p, q: str(Fraction(p, q)), st.integers(-3, 3), st.integers(1, 3))
harmonics = st.sampled_from(["", "cos(1t)", "sin(1t)", "cos(2t)", "sin(2t)", "cos(3t)"])
trig_strings = st.lists(st.tuples(rationals, harmonics).map(
    lambda t: f"{t[0]}*{t[1]}" if t[1] else t[0]), min_size=1, max_size=3).map(" + ".join)
n_ranges = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda t: [t[0], t[0] + t[1]])


def matrices(rows: int, cols: int):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def algebras(draw, dim=None):
    dim = draw(st.integers(0, 5)) if dim is None else dim
    # pairs i < j < dim, or (0, 1) below dim 2, and distinct targets k < dim
    coeffs = st.dictionaries(st.integers(0, max(dim - 1, 0)), rationals, max_size=2)
    bracket = st.builds(lambda ij, c: {"i": ij[0], "j": ij[1], "coeffs": [[*t] for t in c.items()]},
                        st.sampled_from(list(combinations(range(dim), 2)) or [(0, 1)]), coeffs)
    return {"dim": draw(mostly(st.just(dim))),
            "brackets": draw(mostly(st.lists(bracket, max_size=2)))}


@st.composite
def representations(draw, dim):
    e = draw(st.integers(0, 2))
    return {"dim_E": draw(mostly(st.just(e))),
            "action": draw(mostly(st.lists(matrices(e, e), min_size=dim, max_size=dim)))}


@st.composite
def algebroids(draw):
    if draw(st.booleans()):
        return {"kind": "rank1", "p": draw(mostly(trig_strings)),
                "N_range": draw(mostly(n_ranges))}
    dim = draw(st.integers(0, 3))
    return {"kind": draw(mostly(st.just("action"))), "g": draw(algebras(dim)),
            "phi": draw(mostly(st.lists(trig_strings, min_size=dim, max_size=dim))),
            "N_range": draw(mostly(n_ranges))}


@st.composite
def fibers(draw):
    a, m = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    doc = {"dim_A": draw(mostly(st.just(a))), "dim_M": draw(mostly(st.just(m))),
           "dim_E": draw(mostly(st.integers(0, 3))),
           "anchor": draw(mostly(matrices(m, a)))}
    alpha = ",".join(draw(st.lists(rationals, min_size=m, max_size=m)))
    return doc, draw(st.sampled_from([alpha, alpha + ",1", "x"]))


def catalog_or(strategy, names):
    return st.sampled_from(list(names)) | strategy | strategy


@st.composite
def invocations(draw):
    """An argv; a dict or list in it stands for a JSON file holding it."""
    command = draw(st.sampled_from(["lie", "circle", "kunneth", "hopf", "symbol",
                                    "catalog", "usage"]))
    algebra_names = ["zero", *catalog.ALGEBRA_NAMES]
    if command == "lie":
        dim = draw(st.integers(0, 4))
        argv = ["lie", draw(st.sampled_from(["cohomology", "euler"])),
                draw(catalog_or(algebras(dim), algebra_names))]
        if draw(st.booleans()):
            argv += ["--rep", draw(catalog_or(representations(dim),
                                              catalog.REPRESENTATION_NAMES))]
        return argv
    if command == "circle":
        argv = ["circle", "sweep", draw(catalog_or(algebroids(), catalog.ALGEBROID_NAMES))]
        if draw(st.booleans()):
            argv += ["--n-min", str(draw(st.integers(0, 3))),
                     "--n-max", str(draw(st.integers(0, 6)))]
        return argv
    if command == "kunneth":
        factor = catalog_or(algebras() | algebroids(),
                            [*algebra_names, *catalog.ALGEBROID_NAMES])
        return ["kunneth", draw(factor), draw(factor)]
    if command == "hopf":
        return ["hopf", draw(catalog_or(algebras(), algebra_names))]
    if command == "symbol":
        doc, alpha = draw(fibers())
        return ["symbol", doc, f"--alpha={alpha}"]
    if command == "catalog":
        return ["catalog"]
    words = ["lie", "circle", "sweep", "hopf", "kunneth", "symbol", "catalog", "su2",
             "--rep", "--alpha", "--n-min", "--bogus", "1", ""]
    return draw(st.lists(st.sampled_from(words), max_size=4))


def run_in_process(argv):
    """(exit code, stdout, stderr, seconds) of cli.run on argv, files written out."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for k, arg in enumerate(argv):
            if not isinstance(arg, str):
                path = os.path.join(tmp, f"arg{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(arg, fh)
                arg = path
            args.append(arg)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(args)
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=120, deadline=None)
@given(invocations())
@example(["lie", "cohomology", "su2"])
@example(["circle", "sweep", "sin_t"])
@example(["symbol", {"dim_A": 2, "dim_M": 1, "anchor": [["1", "0"]]}, "--alpha", "1"])
@example(HOSTILE[0])
@example(HOSTILE[1])
@example(HOSTILE[2])
@example(HOSTILE[3])
@example(HOSTILE[4])
@example(HOSTILE[5])
def test_every_invocation_exits_with_a_documented_code(argv):
    code, out, err, _ = run_in_process(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code in (cli.EXIT_VALIDATION, cli.EXIT_USAGE, cli.EXIT_PARSE):
        assert out == ""
    if out:
        human, marker, machine = out.partition(cli.JSON_MARKER + "\n")
        assert marker and human.endswith("\n") and out.endswith("}\n")
        assert isinstance(json.loads(machine), dict)
    else:
        assert code != cli.EXIT_OK and err


def test_hostile_dimensions_are_refused_from_the_numbers():
    for argv in HOSTILE:
        code, out, err, seconds = run_in_process(argv)
        assert (code, out) == (cli.EXIT_VALIDATION, ""), argv
        assert err.startswith("validation error: ") and "would have 1 * 2^" in err, argv
        assert seconds < 0.5, argv


def test_kunneth_refuses_a_hostile_factor_before_dim_sized_work():
    # sin_t times an algebra declaring dim 10^6: the product's window is refused
    # from the numbers, before its dim-long fields and slot sets exist.  The
    # first run imports and caches outside the measurement.
    wide = {"dim": 10 ** 6, "brackets": [{"i": 0, "j": 1, "coeffs": [[2, "1"]]}]}
    argv = ["kunneth", "sin_t", wide]
    run_in_process(argv)
    tracemalloc.start()
    try:
        code, out, err, _ = run_in_process(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == ("validation error: the window-8 complex would have 17 * 2^1000001 cochains, "
                   "more than the budget of 262144\n")
    assert peak < (1 << 20) + len(json.dumps(wide))


def test_circle_sweep_refuses_a_hostile_action_before_parsing_phi(tmp_path):
    # an algebra declaring dim 10^6 acting through one constant field a
    # dimension: window 6 is refused by its lower bound 13 * 2^dim before the
    # phi list is parsed.  The peak is compared with that of loading the file
    # alone; the first run imports and caches outside the measurement.
    dim = 10 ** 6
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "action", "g": {"dim": dim, "brackets": []},
                                "phi": ["1"] * dim, "N_range": [3, 6]}))
    argv = ["circle", "sweep", str(path)]
    run_in_process(argv)
    tracemalloc.start()
    try:
        json.loads(path.read_text())
        loaded = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code, out, err, _ = run_in_process(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == ("validation error: the window-6 complex would have 13 * 2^1000000 cochains, "
                   "more than the budget of 262144\n")
    assert peak < loaded + (1 << 20)


def test_kunneth_keeps_its_refusal_below_the_dim_bound():
    # a declared dim of at most 19 is refused by the window's exact count, as before
    argv = ["kunneth", "sin_t", {"dim": 19, "brackets": []}]
    assert run_in_process(argv)[:3] == (cli.EXIT_VALIDATION, "", (
        "validation error: the window-8 complex would have 18874368 cochains, "
        "more than the budget of 262144\n"))
