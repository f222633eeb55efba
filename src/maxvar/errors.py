"""Exception types shared across the package.

Every domain error derives from :class:`RiskError` so callers (and the CLI)
can distinguish data/contract problems from programming bugs.
"""


class RiskError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(RiskError):
    """An operation received no data where at least one element is required."""


class OutOfRange(RiskError):
    """A parameter fell outside its documented domain."""


class NonFiniteValue(OutOfRange):
    """A value, weight, or threshold was NaN or infinite."""


class AllZeroWeights(RiskError):
    """Weights were provided but their total mass is zero."""


class NegativeProb(OutOfRange):
    """A probability or weight was negative (or not strictly positive where required)."""


class BudgetTooSmall(RiskError):
    """A trial count or panel budget is too small to honor the contract."""


class DimensionMismatch(RiskError):
    """An array argument has the wrong shape, or does not match the atom count
    of its distribution."""


class InfeasibleFamily(RiskError):
    """A CVaR density family violates its per-level bound, unit mean, or partition."""


class InfeasiblePart(RiskError):
    """A discrete-mixture part violates its CVaR feasibility constraints."""


class NotInEnvelope(RiskError):
    """A density failed the envelope membership check required by the operation."""


class PreconditionViolated(RiskError):
    """Inputs do not satisfy the stated precondition of a check."""


class UnknownColumn(RiskError):
    """A portfolio references a column that does not exist in the table."""


class ParseError(RiskError):
    """A CSV cell or row could not be parsed; the message names the location."""


class MissingHeader(RiskError):
    """The CSV file has no usable header row."""


class ProbSumMismatch(OutOfRange):
    """Scenario probabilities do not sum to 1 within tolerance."""
