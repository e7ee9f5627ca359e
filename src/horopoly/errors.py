"""Exception types shared across the package.

Two buckets matter for callers (and for the command line tool's exit codes):
malformed input versus well-formed input that violates an operation's
stated precondition.
"""


class InputError(ValueError):
    """Malformed or inconsistent input: bad dimensions, empty data, bad JSON."""


class PreconditionError(ValueError):
    """Well-formed input that violates a documented precondition."""


class DimensionMismatch(InputError):
    pass


class EmptyInput(InputError):
    pass


class OriginNotInterior(PreconditionError):
    """The origin must be a strictly interior point for polar duality and gauges."""


class NotAFace(PreconditionError):
    """A vertex subset that is not the equality set of any supporting halfspace."""
