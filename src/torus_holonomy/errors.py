"""Exception types shared across the package."""


class TorusHolonomyError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatchError(TorusHolonomyError, ValueError):
    """Objects built over incompatible models or dimensions were combined."""


class BandwidthError(TorusHolonomyError, ValueError):
    """A Fourier field is wider than the mode box allows."""


class SplitViolationError(TorusHolonomyError, ValueError):
    """Hamiltonian or connection data breaks the controlled/dynamic split."""


class StepCountError(TorusHolonomyError, ValueError):
    """A step count cannot form a step grid: below 1 or below the curve's smooth segments."""


class OpenCurveError(TorusHolonomyError, ValueError):
    """An operation requiring a closed parameter loop received an open curve."""


class NonFiniteError(TorusHolonomyError, ValueError):
    """A number that must be finite is not: given as inf or nan, or overflowed in a run."""


class ConfigError(TorusHolonomyError, ValueError):
    """An experiment configuration failed schema or range validation."""
