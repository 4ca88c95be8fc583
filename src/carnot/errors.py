"""Exception hierarchy.

Two families: ``ValidationError`` for bad inputs (CLI exit code 1) and
``NumericalError`` for failures arising during computation (CLI exit code 2).
"""


class CarnotError(Exception):
    """Base class for all package errors."""


class ValidationError(CarnotError):
    """Invalid input data or parameters."""


class NumericalError(CarnotError):
    """A numerical procedure failed (non-finite state, bracket failure, ...)."""


# -- validation ---------------------------------------------------------------

class NotSkewSymmetric(ValidationError):
    pass


class LinearlyDependentMatrices(ValidationError):
    pass


class TooManyVerticalDirections(ValidationError):
    pass


class EpsilonOutOfRange(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class UnknownName(ValidationError):
    pass


class NonPositiveLambda(ValidationError):
    pass


class OutOfDomain(ValidationError):
    pass


class StepTooLarge(ValidationError):
    pass


class DegenerateSample(ValidationError):
    pass


class SupportNotCovered(ValidationError):
    pass


class InvalidK(ValidationError):
    pass


class PointOutsideCone(ValidationError):
    pass


class DegenerateZ(ValidationError):
    pass


class ValueNotRepresentable(ValidationError):
    """The vertical value cannot be realized by the parallelogram construction."""


class GridTooLarge(ValidationError):
    """A grid, sample or curve would exceed the work budget
    (quadrature.check_work_budget)."""


# -- numerical ----------------------------------------------------------------

class CalibrationFailed(NumericalError):
    pass


class DegenerateHorizontalGradient(NumericalError):
    pass


class LeftDomain(NumericalError):
    pass


class NonFiniteState(NumericalError):
    pass


class BracketFailure(NumericalError):
    pass


class QuadratureUnderflow(NumericalError):
    pass
