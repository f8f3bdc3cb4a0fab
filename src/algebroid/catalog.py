"""Built-in example algebras, representations, and algebroids.

Everything here is loaded from JSON data files shipped with the package,
so each entry exercises the same wire format as user files.  The parsers
of `io` are imported by the loaders that call them, so listing the names
loads no other module of the package.
"""

from __future__ import annotations

import json
from importlib import resources

#: Algebras with a nonzero underlying space; every one has Euler characteristic 0.
ALGEBRA_NAMES = ("r1", "r2", "r3", "r4", "h3", "aff1", "su2", "sl2", "diamond4")

REPRESENTATION_NAMES = ("aff1_rep2", "aff1_char")

ALGEBROID_NAMES = ("const1", "sin_t", "sin_2t", "r_action", "sl2_action")


def entry(kind: str, name: str) -> dict:
    """Raw JSON dict of a catalog item; kind is the data subdirectory name."""
    ref = resources.files("algebroid").joinpath("data", kind, f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def algebra(name: str) -> LieAlgebra:
    """Load a catalog algebra; `zero` is the zero algebra, also available."""
    from .io import algebra_from_dict
    return algebra_from_dict(entry("algebras", name), where=f"catalog:{name}")


def representation(name: str) -> Representation:
    from .io import representation_from_dict
    d = entry("representations", name)
    g = algebra(d["algebra"])
    return representation_from_dict(d, g, where=f"catalog:{name}")


def algebroid(name: str) -> tuple[Rank1Anchor | ActionAlgebroid, tuple[int, int]]:
    from .io import algebroid_from_dict
    return algebroid_from_dict(entry("algebroids", name), where=f"catalog:{name}")
