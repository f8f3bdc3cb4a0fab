"""Exact cohomology of Lie algebras and truncated algebroids over the circle.

All arithmetic is rational and exact.  The package computes Chevalley
Eilenberg cohomology of finite dimensional Lie algebras with coefficients,
Fourier-truncated cohomology of low-rank Lie algebroids over the circle
and of their products with Lie algebras, Hopf structure of the resulting
cohomology rings, and pointwise symbol complexes.

The value classes (`LieAlgebra`, `CochainComplex`, `TrigPoly`, the reports
and the rest) are plain classes, treated as immutable once built.  Each
writes out its constructor and runs its checks there, uses `__slots__`,
and defines equality and hashing only where instances are compared.  They do not use `dataclasses`: importing it
loads `inspect`, `ast`, `dis` and `tokenize`, and generating the methods
at import time cost every CLI start about 20 ms.

The names of `__all__` are exported lazily (PEP 562): `import algebroid`
loads no submodule, and a name's home module is imported the first time
the name is read, after which the value sits in this module's globals.
Every CLI start imports this package, and each command needs only some
of the modules; without bytecode caches, compiling all of them from
source cost a start about 30 ms.
"""

import importlib

__all__ = [
    "AlgebroidError",
    "ChainConditionError",
    "DegreeOutOfRangeError",
    "NonsimpleZeroError",
    "NotAbelianError",
    "NotStabilizedError",
    "ParseError",
    "ValidationError",
    "CochainComplex",
    "CohomologyReport",
    "RationalMatrix",
    "complex_cohomology",
    "kernel_basis",
    "rank",
    "LieAlgebra",
    "Representation",
    "adjoint_representation",
    "ce_complex",
    "ce_differential",
    "check_jacobi",
    "check_representation",
    "jacobi_violation",
    "lie_cohomology",
    "trivial_ce_differential",
    "trivial_representation",
    "ActionAlgebroid",
    "Rank1Anchor",
    "SweepResult",
    "TrigPoly",
    "count_simple_zeros",
    "is_transitive",
    "stabilized_cohomology",
    "KunnethCheck",
    "direct_sum",
    "kunneth_verify",
    "product_with_lie_algebra",
    "tensor_rep",
    "GradedCoalgebra",
    "HopfReport",
    "HStructure",
    "addition",
    "addition_coproduct",
    "check_h_structure",
    "exterior_structure_check",
    "hopf_axioms",
    "primitives",
    "ExactnessReport",
    "FiberData",
    "exactness_check",
    "pullback_covector",
    "symbol_complex",
    "catalog",
    "io",
]

# The home module of every name in __all__; `catalog` and `io` are modules themselves.
_HOME = {name: module for module, names in [
    ("errors", "AlgebroidError ChainConditionError DegreeOutOfRangeError NonsimpleZeroError "
               "NotAbelianError NotStabilizedError ParseError ValidationError"),
    ("exactlinalg", "CochainComplex CohomologyReport RationalMatrix complex_cohomology "
                    "kernel_basis rank"),
    ("liealg", "LieAlgebra Representation adjoint_representation ce_complex ce_differential "
               "check_jacobi check_representation jacobi_violation lie_cohomology "
               "trivial_ce_differential trivial_representation"),
    ("circle", "ActionAlgebroid Rank1Anchor SweepResult TrigPoly count_simple_zeros "
               "is_transitive stabilized_cohomology"),
    ("kunneth", "KunnethCheck direct_sum kunneth_verify product_with_lie_algebra tensor_rep"),
    ("hopf", "GradedCoalgebra HopfReport HStructure addition addition_coproduct "
             "check_h_structure exterior_structure_check hopf_axioms primitives"),
    ("symbol", "ExactnessReport FiberData exactness_check pullback_covector symbol_complex"),
    ("catalog", "catalog"),
    ("io", "io"),
] for name in names.split()}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    globals()[name] = value = module if name == home else getattr(module, name)
    return value


__version__ = "0.1.0"
