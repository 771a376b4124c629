"""Exception hierarchy shared across the package.

``ConfigError`` marks bad user configuration (CLI exit code 2);
``NumericalError`` and its subclasses mark failures detected while
computing (CLI exit code 3).
"""


class FcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FcError):
    """Invalid scenario/configuration input; carries the offending field path."""

    def __init__(self, message, field=None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)


class NumericalError(FcError):
    """A computation failed or produced an unphysical result."""


class DimensionMismatch(NumericalError):
    pass


class InfeasibleLayout(NumericalError):
    pass


class AnchorInfeasible(NumericalError):
    pass


class TooClose(NumericalError):
    pass


class DomainError(NumericalError):
    pass


class SingularSystem(NumericalError):
    pass


class NonPositivePower(NumericalError):
    pass


class SingularGram(NumericalError):
    pass


class NonPSD(NumericalError):
    pass


class TauTooShort(ConfigError):
    pass


class RankDeficientSupport(NumericalError):
    pass


class SingularAggregate(NumericalError):
    pass


class ZeroChannel(NumericalError):
    pass


class InformationLeak(FcError):
    """An LPU step consumed state it neither owns nor received in a message."""
