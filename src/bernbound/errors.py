"""Exception types shared across the package."""


class BernboundError(Exception):
    """Base class for all bernbound errors."""


class InvalidArgument(BernboundError, ValueError):
    """The caller chose a value that the method does not accept."""


class DegreeMismatch(BernboundError):
    """Two objects that must share a degree do not."""


class DegreeTooLow(InvalidArgument):
    """The requested Bernstein degree is below the polynomial degree."""


class DimensionMismatch(InvalidArgument):
    """A point or polynomial has the wrong number of variables."""


class DegenerateSimplex(BernboundError):
    """The vertex list is affinely dependent."""


class BadEdge(BernboundError):
    """An edge (i, j) outside 0 <= i < j <= n was requested."""


class SimplexMismatch(BernboundError):
    """Two patches that must live on the same simplex do not."""


class DenominatorNotPositive(BernboundError):
    """The denominator patch has a non-positive Bernstein coefficient.

    This signals that the rational-form assumption fails at this degree and
    simplex, not that the denominator is non-positive as a function.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class NonPositiveClaim(InvalidArgument):
    """A claimed minimum that must be positive is not."""


class NonPositiveEpsilon(InvalidArgument):
    """A requested accuracy must be strictly positive."""


class BudgetExhausted(BernboundError):
    """A subdivision budget ran out before the target gap was reached.

    Carries the partial result achieved so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
