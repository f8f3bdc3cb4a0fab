"""File formats: JSON wire forms for algebras, representations, algebroids,
and symbol fibers, plus the textual form of trig polynomials.

Rationals travel as strings "p" or "p/q" and round-trip exactly; floats are
rejected everywhere.  Parse errors carry a `where` path into the document.
The package only reads these forms; the writers that the round-trip tests
use live in `tests/fixtures.py`.  `circle` and `symbol` are imported by
the parsers that build their objects, so reading an algebra does not load
the circle or symbol code.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import ParseError, ValidationError
from .exactlinalg import MAX_TRIG_DEGREE, RationalMatrix, require_cochain_budget
from .liealg import LieAlgebra, Representation

# ASCII: \d would otherwise accept any Unicode digit; \Z, unlike $, refuses a final newline.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)
_TERM_RE = re.compile(r"^([+-]?(?:\d+(?:/\d+)?)?)(?:(\*?)(cos|sin)\((\d*)t\))?\Z",
                      re.ASCII)

# int() and json refuse a number of more digits than this (0: no limit).
_MAX_DIGITS = sys.get_int_max_str_digits()
_INT_BOUND = 10 ** _MAX_DIGITS if _MAX_DIGITS else float("inf")


def _is_int(x, where: str) -> bool:
    """A JSON integer: Python's bool is an int subclass, so exclude it.  One
    over the digit limit, which no JSON file holds, is a ParseError."""
    if isinstance(x, int) and not isinstance(x, bool) and abs(x) >= _INT_BOUND:
        raise _too_long(where)
    return isinstance(x, int) and not isinstance(x, bool)


def _too_long(where: str) -> ParseError:
    return ParseError(f"a number has more than {_MAX_DIGITS} digits", where)


def parse_rational(s: str, where: str = "") -> Fraction:
    try:
        if not isinstance(s, str) or not _RATIONAL_RE.match(s.strip()):
            raise ParseError(f"expected a rational string like \"3\" or \"-1/2\", got {s!r}",
                             where)
        return Fraction(s.strip())
    except ZeroDivisionError:  # "3/0" and "3/00" alike
        raise ParseError("zero denominator", where) from None
    except ValueError:  # int() refuses a number over the digit limit, in s or in repr(s)
        raise _too_long(where) from None


# -- trig polynomials --------------------------------------------------------

def trig_from_string(s: str, where: str = "") -> TrigPoly:
    from .circle import TrigPoly
    if not isinstance(s, str):
        raise ParseError("expected a trig polynomial string", where)
    text = s.replace(" ", "")
    if not text:
        raise ParseError("empty trig polynomial", where)
    # One pass: each coefficient is added into the constant or its cos or sin slot.
    constant, coeffs = Fraction(0), {"cos": [], "sin": []}
    for raw in text.split("+"):
        if not raw:
            raise ParseError("empty term (stray '+')", where)
        m = _TERM_RE.match(raw)
        if not m:
            raise ParseError(f"bad term {raw!r}", where)
        coeff_s, star, kind, k_s = m.group(1), m.group(2), m.group(3), m.group(4)
        if kind is None:
            if not coeff_s or coeff_s in "+-":
                raise ParseError(f"bad term {raw!r}", where)
            constant += parse_rational(coeff_s, where)
            continue
        if coeff_s in ("", "+", "-"):
            if star:
                raise ParseError(f"bad term {raw!r}", where)
            coeff = Fraction(-1 if coeff_s == "-" else 1)
        else:
            if not star:
                raise ParseError(f"missing '*' in term {raw!r}", where)
            coeff = parse_rational(coeff_s, where)
        digits = k_s.lstrip("0") if k_s else "1"
        if not digits:
            raise ParseError(f"harmonic index must be positive in {raw!r}", where)
        # Lengths first: int() refuses a string of more than 4300 digits.
        if len(digits) > len(str(MAX_TRIG_DEGREE)) or int(digits) > MAX_TRIG_DEGREE:
            raise ValidationError((f"{where}: " if where else "")
                                  + f"harmonic index in {raw!r} is over "
                                  f"the cap of {MAX_TRIG_DEGREE}")
        k = int(digits)
        slots = coeffs[kind]
        slots += [0] * (k - len(slots))
        slots[k - 1] += coeff
    return TrigPoly.make(constant, coeffs["cos"], coeffs["sin"])


# -- Lie algebras ------------------------------------------------------------

def algebra_from_dict(d: dict, where: str = "algebra") -> LieAlgebra:
    if not isinstance(d, dict):
        raise ParseError("expected an object", where)
    dim = d.get("dim")
    if not _is_int(dim, f"{where}.dim") or dim < 0:
        raise ParseError("'dim' must be a nonnegative integer", f"{where}.dim")
    raw = d.get("brackets", [])
    if not isinstance(raw, list):
        raise ParseError("'brackets' must be a list", f"{where}.brackets")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for idx, entry in enumerate(raw):
        loc = f"{where}.brackets[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError("expected an object", loc)
        i, j = entry.get("i"), entry.get("j")
        if not _is_int(i, loc) or not _is_int(j, loc) or not 0 <= i < j < dim:
            raise ParseError("need integers 0 <= i < j < dim", loc)
        if (i, j) in table:
            raise ParseError(f"duplicate bracket pair ({i},{j})", loc)
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list):
            raise ParseError("'coeffs' must be a list of [k, rational] pairs", loc)
        terms = {}
        for c_idx, pair in enumerate(coeffs):
            c_loc = f"{loc}.coeffs[{c_idx}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("expected a [k, rational] pair", c_loc)
            k, val = pair
            if not _is_int(k, c_loc) or not 0 <= k < dim:
                raise ParseError("target index out of range", c_loc)
            if k in terms:
                raise ParseError(f"duplicate target index {k}", c_loc)
            terms[k] = parse_rational(val, c_loc)
        table[(i, j)] = terms
    name = d.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string", f"{where}.name")
    return LieAlgebra.make(dim, table, name=name)


# -- representations ---------------------------------------------------------

def representation_from_dict(d: dict, algebra: LieAlgebra, where: str = "representation") -> Representation:
    if not isinstance(d, dict):
        raise ParseError("expected an object", where)
    dim_e = d.get("dim_E")
    if not _is_int(dim_e, f"{where}.dim_E") or dim_e < 0:
        raise ParseError("'dim_E' must be a nonnegative integer", f"{where}.dim_E")
    raw = d.get("action")
    if not isinstance(raw, list) or len(raw) != algebra.dim:
        raise ParseError(f"'action' must list {algebra.dim} matrices", f"{where}.action")
    mats = []
    for m_idx, rows in enumerate(raw):
        loc = f"{where}.action[{m_idx}]"
        mats.append(matrix_from_rows(rows, dim_e, dim_e, loc))
    return Representation(algebra=algebra, dim_e=dim_e, action=tuple(mats))


def matrix_from_rows(rows, n_rows: int, n_cols: int, where: str) -> RationalMatrix:
    """Rows of rational strings; "0" is skipped, a bad entry's path made on error."""
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise ParseError(f"expected {n_rows} rows", where)
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise ParseError(f"expected {n_cols} entries", f"{where}[{i}]")
        for j, x in enumerate(row):
            if x != "0":
                try:
                    pairs.append(((i, j), parse_rational(x)))
                except ParseError as exc:
                    raise ParseError(str(exc), f"{where}[{i}][{j}]") from None
    return RationalMatrix.from_entries(n_rows, n_cols, pairs)


# -- algebroids --------------------------------------------------------------

def algebroid_from_dict(d: dict, where: str = "algebroid"):
    """Returns (algebroid, (n_min, n_max))."""
    from .circle import ActionAlgebroid, Rank1Anchor
    if not isinstance(d, dict):
        raise ParseError("expected an object", where)
    kind = d.get("kind")
    n_range = d.get("N_range")
    if (not isinstance(n_range, list) or len(n_range) != 2
            or not all(_is_int(x, f"{where}.N_range") and x >= 0 for x in n_range)
            or n_range[1] < n_range[0]):
        raise ParseError("'N_range' must be [n_min, n_max] with 0 <= n_min <= n_max",
                         f"{where}.N_range")
    if kind == "rank1":
        p = trig_from_string(d.get("p", ""), f"{where}.p")
        return Rank1Anchor(p=p), (n_range[0], n_range[1])
    if kind == "action":
        g = algebra_from_dict(d.get("g"), f"{where}.g")
        raw_phi = d.get("phi")
        if not isinstance(raw_phi, list) or len(raw_phi) != g.dim:
            raise ParseError(f"'phi' must list {g.dim} trig polynomials", f"{where}.phi")
        phi = tuple(trig_from_string(s, f"{where}.phi[{k}]") for k, s in enumerate(raw_phi))
        return ActionAlgebroid(algebra=g, phi=phi), (n_range[0], n_range[1])
    raise ParseError("'kind' must be \"rank1\" or \"action\"", f"{where}.kind")


# -- symbol fibers -----------------------------------------------------------

def fiber_from_dict(d: dict, where: str = "fiber") -> FiberData:
    from .symbol import FiberData
    if not isinstance(d, dict):
        raise ParseError("expected an object", where)
    dims = {}
    for key in ("dim_A", "dim_M"):
        v = d.get(key)
        if not _is_int(v, f"{where}.{key}") or v < 0:
            raise ParseError(f"'{key}' must be a nonnegative integer", f"{where}.{key}")
        dims[key] = v
    dim_e = d.get("dim_E", 1)
    if not _is_int(dim_e, f"{where}.dim_E") or dim_e < 0:
        raise ParseError("'dim_E' must be a nonnegative integer", f"{where}.dim_E")
    if dims["dim_M"] == 0 and d.get("anchor") == []:
        # No row bounds the width of an empty anchor, and a matrix stores one
        # entry per column, so the symbol complex's budget is checked first.
        require_cochain_budget(dim_e, dims["dim_A"], "the symbol complex")
    anchor = matrix_from_rows(d.get("anchor"), dims["dim_M"], dims["dim_A"], f"{where}.anchor")
    return FiberData(dim_a=dims["dim_A"], dim_m=dims["dim_M"], anchor=anchor, dim_e=dim_e)


# -- files -------------------------------------------------------------------

def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError("file not found", path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                         path)
    except OSError as exc:  # a directory, or no permission to read
        raise ParseError(f"cannot read file: {exc.strerror}", path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text at byte {exc.start}", path)
    except ValueError:  # json reads integers with int()
        raise _too_long(path) from None
    except RecursionError:  # arrays or objects nested deeper than the parser recurses
        raise ParseError("JSON nested too deeply", path) from None

