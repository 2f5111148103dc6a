"""Exception hierarchy shared by all modules."""


class ClannishError(Exception):
    """Base class for all errors raised by this package."""


class NonPrime(ClannishError):
    pass


class ReducibleModulus(ClannishError):
    pass


class FieldMismatch(ClannishError):
    pass


class DimensionMismatch(ClannishError):
    pass


class PreconditionViolated(ClannishError):
    pass


class ClannishViolation(ClannishError):
    """A presentation breaks one of the degree/relation axioms.

    Attributes:
        condition: which axiom failed (e.g. "(1)", "(2')", "relations").
        where: vertex or arrow involved, for error reports.
    """

    def __init__(self, condition, where, message=None):
        self.condition = condition
        self.where = where
        super().__init__(message or f"condition {condition} fails at {where}")


class BadQuadratic(ClannishError):
    def __init__(self, loop, report, message=None):
        self.loop = loop
        self.report = report
        super().__init__(message or f"special loop {loop!r} has an inadmissible quadratic")


class NoSignAssignment(ClannishError):
    pass


class NonComposablePath(ClannishError):
    pass


class NonConcatenable(ClannishError):
    pass


class NotComparable(ClannishError):
    pass


class NotStarLetter(ClannishError):
    pass


class NotSymmetric(ClannishError):
    pass


class NotEndAdmissible(ClannishError):
    pass


class NotRightEndAdmissible(ClannishError):
    pass


class InvalidParameterMatrix(ClannishError):
    pass


class SpaceMismatch(ClannishError):
    pass


class PresentationMismatch(ClannishError):
    pass


class TooLarge(ClannishError):
    pass


class InvalidInput(ClannishError):
    """Input that cannot be read, does not parse, or does not fit the
    presentation it is read against."""


class NotStabilized(ClannishError):
    """An iteration that must reach a fixed point by a dimension count did not."""


class OracleFailure(ClannishError):
    """The brute-force oracle ended without a decision."""


class UsageError(ClannishError):
    """A command line that does not parse: a missing or unknown argument."""
