"""Exception hierarchy shared across the package."""


class WcmError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidWeightError(WcmError, ValueError):
    """Weight vector is empty, too short, or contains non-positive entries."""


class ExistenceError(WcmError, ValueError):
    """No weighted-countermonotonic copula exists for the given weights."""


class DomainError(WcmError, ValueError):
    """A point lies outside the unit cube or another declared domain."""


class MassNormalizationError(WcmError, ValueError):
    """Edge masses fail to sum to one: the z-triple is not of the admissible form."""


class DimensionError(WcmError, ValueError):
    """Mismatched or unsupported dimensions between inputs."""


class DegenerateDataError(WcmError, ValueError):
    """Data degeneracy (e.g. a constant column) makes an estimator undefined."""


class ModelError(WcmError, ValueError):
    """Invalid model specification (e.g. a non-PSD correlation matrix)."""
