"""Command line front end.

Every subcommand prints a short human-readable block, then a line
containing only `== json ==`, then a machine-readable JSON object.  Output
is deterministic byte for byte: the object's bytes are exactly those of
`json.dumps(payload, indent=2, sort_keys=True)`.  `_json` writes them
itself, because the standard encoder has no C path for an indent, and `run`
writes the whole output to stdout in one write.

Exit codes: 0 success, 2 validation failure or any other package error (a
degree out of range, a nonabelian algebra where an abelian one is needed),
3 unstabilized sweep, 64 usage, 65 unparseable input, 141 (128 + SIGPIPE)
stdout closed before the output was written, with nothing on stderr.

Every input argument but `symbol`'s fiber is a JSON file when one exists at
that path, else a catalog name (see `algebroid catalog`); `_read` holds
that rule.  A `kunneth` factor is an algebroid exactly when its JSON has a
"kind", whether it comes from a file or from the catalog.

The argument parser is built once per process and reused by every `run`;
handlers are looked up as module globals when they are called.  Each
handler, and each loader it calls, imports the modules it uses when it is
called, so a start compiles and loads only what its command runs:
`catalog` loads no module of the package but `catalog` and `errors`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from . import catalog
from .errors import AlgebroidError, NotStabilizedError, ParseError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_STABILIZED = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_BROKEN_PIPE = 141

JSON_MARKER = "== json =="


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for validation
    # failures, so route usage problems through an exception instead.
    def error(self, message):
        raise _UsageError(message, self.format_usage())


# -- input loading -----------------------------------------------------------

# Each catalog shelf's names in listing order; `zero` is a catalog algebra.
_SHELVES = {
    "algebras": ("zero", *catalog.ALGEBRA_NAMES),
    "representations": catalog.REPRESENTATION_NAMES,
    "algebroids": catalog.ALGEBROID_NAMES,
}


def _read(arg: str, what: str, *shelves: str) -> tuple[dict, str]:
    """(JSON, where) of the file arg, else of the entry arg on the first
    listed shelf that names it."""
    from . import io
    if os.path.exists(arg):
        return io.load_json(arg), arg
    for shelf in shelves:
        if arg in _SHELVES[shelf]:
            return catalog.entry(shelf, arg), f"catalog:{arg}"
    raise ParseError(f"no such file or catalog {what}", arg)


def _load_algebra(arg: str) -> LieAlgebra:
    from . import io
    return io.algebra_from_dict(*_read(arg, "algebra", "algebras"))


def _classify_factor(arg: str):
    """('algebra' or 'algebroid', load): an algebroid exactly when the JSON
    has a "kind", from a file or from the catalog alike.

    `load()` parses the factor from the JSON already read, so a file is read
    once; parsing waits until the caller knows the pair is supported.
    """
    from . import io
    d, where = _read(arg, "entry", "algebroids", "algebras")
    if isinstance(d, dict) and "kind" in d:
        return "algebroid", lambda: io.algebroid_from_dict(d, where)
    return "algebra", lambda: io.algebra_from_dict(d, where)


# -- output helpers ----------------------------------------------------------

def _table(headers: list[str], rows: list[list]) -> list[str]:
    cells = [[*map(str, r)] for r in (headers, *rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return ["  ".join(map(str.rjust, r, widths)).rstrip() for r in cells]


def _json(x, indent: str = "\n") -> str:
    """The text of json.dumps(x, indent=2, sort_keys=True) for a payload.

    A payload holds dicts with str keys, lists, ints, strs, True, False and
    None; any other type raises TypeError.  The standard encoder has no C
    path for an indent and yields once per token, so each container is one
    join here, and an int in a list is written inline.
    """
    inner = indent + "  "
    kind = type(x)
    if kind is dict:
        if not x:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(x[k], inner) for k in sorted(x)])
            + indent + "}")
    if kind is list:
        if not x:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            [str(v) if type(v) is int else _json(v, inner) for v in x]) + indent + "]")
    if kind is int:
        return str(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    raise TypeError(f"a payload holds no {kind.__name__}")


def _sweep(a, n_min: int, n_max: int) -> tuple[SweepResult, int | None]:
    """The sweep, and the zero count of a nonzero rank-1 anchor (else None)."""
    from .circle import Rank1Anchor, count_simple_zeros, stabilized_cohomology
    # The one range check for every command that sweeps windows.
    if n_min < 0 or n_max < n_min + 2:
        raise ValidationError("need 0 <= n_min and n_max >= n_min + 2")
    # Non-simple zeros of a rank-1 anchor exit 2; the anchor 0 has none to count.
    zeros = None
    if isinstance(a, Rank1Anchor) and not a.p.is_zero():
        zeros = count_simple_zeros(a.p)
    return stabilized_cohomology(a, n_min, n_max), zeros


def _trivial_cohomology(g: LieAlgebra, full: bool = False) -> CohomologyReport:
    """H(g), split into the summands of g unless `full` asks for the whole complex."""
    from .exactlinalg import complex_cohomology, require_cochain_budget
    from .liealg import ce_complex, lie_cohomology, trivial_representation
    # The budget is checked from g.dim alone, before g.dim zero matrices are built.
    require_cochain_budget(1, g.dim, "the Chevalley-Eilenberg complex")
    r = trivial_representation(g)
    return complex_cohomology(ce_complex(r)) if full else lie_cohomology(r)


# -- subcommand handlers -----------------------------------------------------

def _cmd_lie(args) -> tuple[list[str], dict, int]:
    from . import io
    from .liealg import lie_cohomology
    g = _load_algebra(args.algebra)
    if args.rep:
        d, where = _read(args.rep, "representation", "representations")
        rep = io.representation_from_dict(d, g, where)
        coeff_label, dim_e = f"{args.rep} (dim {rep.dim_e})", rep.dim_e
        report = lie_cohomology(rep)
    else:
        coeff_label, dim_e = "trivial (dim 1)", 1
        report = _trivial_cohomology(g)
    lines = [f"algebra: {g.name or args.algebra} (dim {g.dim})", f"coefficients: {coeff_label}"]
    payload = {
        "algebra": args.algebra,
        "dim": g.dim,
        "coefficients_dim": dim_e,
        "euler": report.euler,
    }
    if args.action == "cohomology":
        lines += _table(["degree", "dim", "betti"],
                        [[p, report.degrees[p], report.betti[p]]
                         for p in range(len(report.betti))])
        payload["degrees"] = list(report.degrees)
        payload["betti"] = list(report.betti)
    lines.append(f"euler characteristic: {report.euler}")
    return lines, payload, EXIT_OK


def _cmd_circle(args) -> tuple[list[str], dict, int]:
    from . import io
    from .circle import Rank1Anchor, is_transitive
    d, where = _read(args.algebroid, "algebroid", "algebroids")
    a, (file_min, file_max) = io.algebroid_from_dict(d, where)
    n_min = file_min if args.n_min is None else args.n_min
    n_max = file_max if args.n_max is None else args.n_max
    if isinstance(a, Rank1Anchor):
        kind = "rank1"
        head = f"algebroid: {args.algebroid} (kind rank1, anchor degree {a.anchor_degree()})"
    else:
        kind = "action"
        head = (f"algebroid: {args.algebroid} (kind action, algebra dim "
                f"{a.algebra.dim}, anchor degree {a.anchor_degree()})")
    sweep, zeros = _sweep(a, n_min, n_max)
    # A rank-1 anchor with simple zeros is transitive iff it has none.
    transitive = is_transitive(a) if zeros is None else zeros == 0
    lines = [head, f"transitive anchor: {'yes' if transitive else 'no'}"]
    per_n = [[n, list(b)] for n, b in sweep.per_n]
    lines += _table(["N", "betti"], per_n)
    payload = {
        "algebroid": args.algebroid,
        "kind": kind,
        "n_min": n_min,
        "n_max": n_max,
        "transitive": transitive,
        "per_N": per_n,
        "stabilized": sweep.stabilized,
    }
    if sweep.stabilized:
        lines.append("stabilized: yes")
        lines.append(f"betti: {list(sweep.report.betti)}")
        lines.append(f"euler characteristic: {sweep.report.euler}")
        payload["betti"] = list(sweep.report.betti)
        payload["euler"] = sweep.report.euler
        return lines, payload, EXIT_OK
    lines.append("stabilized: no (widen N_range)")
    payload["betti"] = None
    payload["euler"] = None
    return lines, payload, EXIT_NOT_STABILIZED


def _cmd_kunneth(args) -> tuple[list[str], dict, int]:
    from .exactlinalg import MAX_COCHAINS, require_cochain_budget
    from .kunneth import direct_sum, kunneth_verify, product_with_lie_algebra
    (left_kind, load_left), (right_kind, load_right) = (_classify_factor(args.left),
                                                        _classify_factor(args.right))
    kinds = (left_kind, right_kind)
    if kinds == ("algebra", "algebra"):
        g = load_left()
        h = load_right()
        left_report = _trivial_cohomology(g)
        right_report = _trivial_cohomology(h)
        # the product is assembled in full: checking Kunneth on it is the point
        total = _trivial_cohomology(direct_sum(g, h), full=True)
        lines = [
            f"left: {args.left} (algebra, dim {g.dim})",
            f"right: {args.right} (algebra, dim {h.dim})",
            f"product: direct sum (dim {g.dim + h.dim})",
        ]
        mode = "direct_sum"
    elif "algebroid" in kinds and "algebra" in kinds:
        roid_arg, load_roid, alg_arg, load_alg = (
            (args.left, load_left, args.right, load_right) if left_kind == "algebroid"
            else (args.right, load_right, args.left, load_left))
        a, (n_min, n_max) = load_roid()
        g = load_alg()
        factor_sweep, _ = _sweep(a, n_min, n_max)
        # A declared dim past the largest any complex admits is refused from the
        # numbers, before the product's dim-long fields exist: a form of the
        # product's window holds at least 2 n_max + 1 cochains.
        if g.dim > MAX_COCHAINS.bit_length():
            require_cochain_budget(2 * n_max + 1, a.algebra.dim + g.dim,
                                   f"the window-{n_max} complex")
        product_sweep, _ = _sweep(product_with_lie_algebra(a, g), n_min, n_max)
        if not (factor_sweep.stabilized and product_sweep.stabilized):
            raise NotStabilizedError(product_sweep.per_n)
        left_report = factor_sweep.report
        right_report = _trivial_cohomology(g)
        total = product_sweep.report
        lines = [
            f"left: {roid_arg} (algebroid, windows N={n_min}..{n_max})",
            f"right: {alg_arg} (algebra, dim {g.dim})",
            "product: algebroid times algebra",
        ]
        mode = "product_with_algebra"
    else:
        raise ValidationError("the product of two circle algebroids is not supported; "
                              "pass two algebras, or one algebroid and one algebra")
    check = kunneth_verify(total, left_report, right_report)
    lines += _table(["degree", "expected", "actual"],
                    [[r, e, got] for r, e, got in check.table])
    lines.append(f"euler: {total.euler} = {left_report.euler} * {right_report.euler}")
    lines.append(f"kunneth check: {'ok' if check.ok else 'FAILED'}")
    payload = {
        "mode": mode,
        "left": args.left,
        "right": args.right,
        "betti_product": list(total.betti),
        "expected": [e for _, e, _ in check.table],
        "euler_product": total.euler,
        "euler_left": left_report.euler,
        "euler_right": right_report.euler,
        "ok": check.ok,
    }
    return lines, payload, EXIT_OK


def _cmd_hopf(args) -> tuple[list[str], dict, int]:
    from .hopf import addition_coproduct, exterior_structure_check, hopf_axioms, primitives
    g = _load_algebra(args.algebra)
    abelian = g.is_abelian()
    # Both size budgets come before any other work: the CE complex's, then the coproduct's.
    betti = list(_trivial_cohomology(g).betti)
    c = addition_coproduct(g) if abelian else None
    generators = exterior_structure_check(betti)
    lines = [
        f"algebra: {g.name or args.algebra} "
        f"(dim {g.dim}, {'abelian' if abelian else 'nonabelian'})",
        # addition is an H-structure exactly when g is abelian (`check_h_structure`)
        f"h-structure (addition map): {'ok' if abelian else 'fails'}",
        f"cohomology betti: {betti}",
        "exterior generators: " + (f"degrees {list(generators)}"
                                   if generators is not None else "none"),
    ]
    payload = {
        "algebra": args.algebra,
        "dim": g.dim,
        "abelian": abelian,
        "h_structure_ok": abelian,
        "betti": betti,
        "exterior_generators": list(generators) if generators is not None else None,
    }
    if not abelian:
        lines.append("coproduct: skipped (needs an abelian algebra)")
        payload["hopf"] = None
        return lines, payload, EXIT_OK
    report = hopf_axioms(c)
    prim_dims = [len(p) for p in primitives(c)]
    lines.append("hopf axioms: "
                 f"counit {'ok' if report.counit else 'FAILED'}, "
                 f"coassociative {'ok' if report.coassociative else 'FAILED'}, "
                 f"algebra morphism {'ok' if report.algebra_morphism else 'FAILED'}, "
                 f"antipode {'ok' if report.antipode else 'FAILED'}")
    lines.append(f"primitive dimensions by degree: {prim_dims}")
    payload["hopf"] = {
        "counit": report.counit,
        "coassociative": report.coassociative,
        "algebra_morphism": report.algebra_morphism,
        "antipode": report.antipode,
        "ok": report.ok,
        "primitive_dims": prim_dims,
    }
    return lines, payload, EXIT_OK


def _cmd_symbol(args) -> tuple[list[str], dict, int]:
    from . import io
    from .symbol import exactness_check, pullback_covector, symbol_complex
    if os.path.exists(args.fiber):
        fiber = io.fiber_from_dict(io.load_json(args.fiber), where=args.fiber)
    else:
        raise ParseError("no such file", args.fiber)
    parts = [s.strip() for s in args.alpha.split(",")] if args.alpha.strip() else []
    if len(parts) != fiber.dim_m:
        raise ParseError(f"expected {fiber.dim_m} comma-separated components",
                         "--alpha")
    alpha = [io.parse_rational(s, where="--alpha") for s in parts]
    cx = symbol_complex(fiber, alpha)  # checks the size budget before beta is formed
    beta = pullback_covector(fiber, alpha)
    result = exactness_check(cx)
    lines = [
        f"fiber: dim A={fiber.dim_a}, dim M={fiber.dim_m}, dim E={fiber.dim_e}",
        "alpha: " + ", ".join(str(x) for x in alpha),
        "beta (anchor pullback): " + ", ".join(str(x) for x in beta),
    ]
    lines += _table(["degree", "dim", "exact"],
                    [[r, cx.degrees[r], "yes" if ok else "no"]
                     for r, ok in enumerate(result.per_degree)])
    lines.append(f"symbol complex exact: {'yes' if result.exact else 'no'}")
    payload = {
        "fiber": args.fiber,
        "dim_A": fiber.dim_a,
        "dim_M": fiber.dim_m,
        "dim_E": fiber.dim_e,
        "alpha": [str(x) for x in alpha],
        "beta": [str(x) for x in beta],
        "degrees": list(cx.degrees),
        "per_degree": list(result.per_degree),
        "exact": result.exact,
    }
    return lines, payload, EXIT_OK


def _cmd_catalog(args) -> tuple[list[str], dict, int]:
    lines = [f"{shelf}: " + ", ".join(names) for shelf, names in _SHELVES.items()]
    return lines, {shelf: list(names) for shelf, names in _SHELVES.items()}, EXIT_OK


# -- wiring ------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="algebroid",
                     description="Exact cohomology of Lie algebras and "
                                 "circle algebroids.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    lie = sub.add_parser("lie", help="Lie algebra cohomology")
    lie_sub = lie.add_subparsers(dest="action", required=True, parser_class=_Parser)
    for action in ("cohomology", "euler"):
        p = lie_sub.add_parser(action)
        p.add_argument("algebra", help="algebra JSON file or catalog name")
        p.add_argument("--rep", help="representation JSON file or catalog name")
        p.set_defaults(handler=_cmd_lie)

    circle = sub.add_parser("circle", help="truncated algebroid cohomology")
    circle_sub = circle.add_subparsers(dest="action", required=True,
                                       parser_class=_Parser)
    p = circle_sub.add_parser("sweep")
    p.add_argument("algebroid", help="algebroid JSON file or catalog name")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(handler=_cmd_circle)

    p = sub.add_parser("kunneth", help="verify a product against the factors")
    p.add_argument("left", help="algebra or algebroid (file or catalog name)")
    p.add_argument("right", help="algebra or algebroid (file or catalog name)")
    p.set_defaults(handler=_cmd_kunneth)

    p = sub.add_parser("hopf", help="H-structure and Hopf axioms")
    p.add_argument("algebra", help="algebra JSON file or catalog name")
    p.set_defaults(handler=_cmd_hopf)

    p = sub.add_parser("symbol", help="pointwise symbol complex exactness")
    p.add_argument("fiber", help="fiber-data JSON file")
    p.add_argument("--alpha", required=True,
                   help="comma-separated rational covector components")
    p.set_defaults(handler=_cmd_symbol)

    p = sub.add_parser("catalog", help="list built-in examples")
    p.set_defaults(handler=_cmd_catalog)
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        lines, payload, code = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotStabilizedError as exc:
        print(f"not stabilized: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AlgebroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write("\n".join([*lines, JSON_MARKER, _json(payload), ""]))
    return code


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone.  With fd 1 on devnull the interpreter's
        # flush at exit writes the rest of the buffer nowhere instead of failing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
