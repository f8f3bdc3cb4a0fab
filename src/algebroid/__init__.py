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
"""

from .errors import (
    AlgebroidError,
    ChainConditionError,
    DegreeOutOfRangeError,
    NonsimpleZeroError,
    NotAbelianError,
    NotStabilizedError,
    ParseError,
    ValidationError,
)
from .exactlinalg import (
    CochainComplex,
    CohomologyReport,
    RationalMatrix,
    complex_cohomology,
    kernel_basis,
    rank,
)
from .liealg import (
    LieAlgebra,
    Representation,
    adjoint_representation,
    ce_complex,
    ce_differential,
    check_jacobi,
    check_representation,
    jacobi_violation,
    lie_cohomology,
    trivial_ce_differential,
    trivial_representation,
)
from .circle import (
    ActionAlgebroid,
    Rank1Anchor,
    SweepResult,
    TrigPoly,
    TruncatedComplex,
    count_simple_zeros,
    is_transitive,
    stabilized_cohomology,
)
from .kunneth import (
    KunnethCheck,
    direct_sum,
    kunneth_verify,
    product_with_lie_algebra,
    tensor_rep,
)
from .hopf import (
    GradedCoalgebra,
    HopfReport,
    HStructure,
    addition,
    addition_coproduct,
    check_h_structure,
    exterior_structure_check,
    hopf_axioms,
    primitives,
)
from .symbol import (
    ExactnessReport,
    FiberData,
    exactness_check,
    pullback_covector,
    symbol_complex,
)
from . import catalog, io

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
    "TruncatedComplex",
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

__version__ = "0.1.0"
