"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SchedFiltError",
    "ValidationError",
    "NonPSDCovariance",
    "NonIncreasingTimes",
    "HorizonTooShort",
    "NegativeDt",
    "UnknownFunctionDescriptor",
    "UnsupportedScenario",
    "IncompatibleMethod",
    "ZeroConditionalMass",
    "NumericalBlowup",
    "SingularS",
    "WeightCollapse",
    "ZeroReferenceDensity",
    "ZeroMass",
    "NonpositiveR",
    "BoundaryLeak",
    "ZeroLikelihoodMass",
]


class SchedFiltError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SchedFiltError, ValueError):
    """A scenario or argument failed validation."""


class NonPSDCovariance(ValidationError):
    """A covariance matrix is not symmetric positive semidefinite."""


class NonIncreasingTimes(ValidationError):
    """Event times or thresholds are not strictly ordered."""


class HorizonTooShort(ValidationError):
    """The horizon does not cover all scheduled event times."""


class NegativeDt(ValidationError):
    """A time step or propagation interval is negative."""


class UnknownFunctionDescriptor(ValidationError):
    """A function descriptor kind is not in the catalogue."""


class UnsupportedScenario(SchedFiltError):
    """The scenario is valid but outside what this component supports."""


class IncompatibleMethod(UnsupportedScenario):
    """The requested filter or check cannot be applied to the scenario."""


class ZeroConditionalMass(SchedFiltError):
    """Conditioning a discrete mark law left no matching atoms."""


class NumericalBlowup(SchedFiltError):
    """A state, weight, or density became NaN or infinite."""


class SingularS(SchedFiltError):
    """The innovation covariance is numerically singular."""


class WeightCollapse(SchedFiltError):
    """All particle likelihoods vanished at an update."""


class ZeroReferenceDensity(SchedFiltError):
    """The reference observation density vanished at the observed increment."""


class ZeroMass(SchedFiltError):
    """An unnormalized measure lost all of its mass."""


class NonpositiveR(ValidationError):
    """An operation requires strictly positive measurement noise variance."""


class BoundaryLeak(SchedFiltError):
    """Grid density mass reached the domain boundary."""


class ZeroLikelihoodMass(SchedFiltError):
    """A grid Bayes update left numerically zero mass."""
