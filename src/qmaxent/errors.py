"""Exception hierarchy for qmaxent.

Every error raised by the library derives from :class:`QmaxentError`, so
callers (notably the CLI) can distinguish domain failures from bugs.
"""


class QmaxentError(Exception):
    """Base class for all qmaxent errors."""


class DimensionError(QmaxentError):
    """Matrix or vector has a dimension the operation does not support."""


class NotHermitian(QmaxentError):
    """Operator expected to be Hermitian is not, within tolerance."""


class ConstraintError(QmaxentError):
    """Base class for constraint-set validation failures."""


class QOutOfDomain(ConstraintError):
    """Entropic index q must be strictly positive."""


class BOutOfRange(ConstraintError):
    """Correlation datum b_q outside [0, 2*sqrt(2)]."""


class SigmaOutOfRange(ConstraintError):
    """Dispersion datum sigma2_q exceeds its maximum of 8."""


class UncertaintyViolated(ConstraintError):
    """Data violate the uncertainty relation sigma2_q >= 2*sqrt(2)*b_q."""


class BoundaryDivergence(QmaxentError):
    """Lagrange multipliers diverge on the boundary of the data domain."""


class NegativeBracket(QmaxentError):
    """Fixed-point reconstruction produced a negative bracket argument."""


class SingularReference(QmaxentError):
    """Reference state is singular where a negative power is required."""


class SupportMismatch(QmaxentError):
    """State support is not contained in the reference state support."""


class FloatRangeExceeded(QmaxentError):
    """A result that is finite in exact arithmetic lies beyond the double-precision range."""


class StencilOutOfDomain(QmaxentError):
    """A finite-difference stencil point left the feasible data domain."""


class BudgetExhausted(QmaxentError):
    """Numerical optimizer ran out of budget before meeting its tolerance."""


class EmptyGrid(QmaxentError):
    """Region grid contains no feasible cells."""
