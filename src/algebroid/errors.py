"""Exception types shared across the package."""


class AlgebroidError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AlgebroidError):
    """Input data violates a structural requirement (Jacobi, flatness, action)."""


class ChainConditionError(ValidationError):
    """A pair of consecutive differentials composes to a nonzero map."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"chain condition violated: d_{degree + 1} * d_{degree} != 0")


class DegreeOutOfRangeError(AlgebroidError):
    """Requested cochain degree lies outside 0..dim."""


class NonsimpleZeroError(ValidationError):
    """A trig polynomial has a zero where its derivative also vanishes."""


class NotAbelianError(AlgebroidError):
    """The operation needs an abelian Lie algebra and got a nonabelian one."""


class NotStabilizedError(AlgebroidError):
    """A window sweep ended before the Betti vector settled.

    Carries the per-window table so the caller can widen the range.
    """

    def __init__(self, per_n):
        self.per_n = tuple(per_n)
        lines = ", ".join(f"N={n}: {list(b)}" for n, b in self.per_n)
        super().__init__(f"Betti numbers did not stabilize over the sweep ({lines})")


class ParseError(AlgebroidError):
    """A file or string could not be parsed; `where` locates the problem."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)
