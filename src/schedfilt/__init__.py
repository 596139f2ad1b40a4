"""Filtering for jump-diffusion signals observed at predictable times.

The signal is a scalar or vector jump diffusion; observations are frozen
between event times and move by a noisy function of the pre-event state.
Event times are deterministic schedules or threshold triggers, so they
carry no information beyond the observed path itself.

Public surface:

    model       scenario configuration, validation, mark laws, (de)serialization
    presets     ready-made scenarios (ou_kalman, medical, credit_risk, njode_style)
    simulate    exact-event path simulation and Monte Carlo ensembles
    kalman      closed-form filter for the linear Gaussian subfamily
    particle    normalized and unnormalized (mass-tracking) particle filters
    grid        banded-kernel grid reference filter, scalar scenarios only
    diagnostics consistency checks with negative controls
    cli         `schedfilt` command line entry point
"""

from .errors import (
    IncompatibleMethod,
    SchedFiltError,
    UnsupportedScenario,
    ValidationError,
)
from .model import (
    ScenarioConfig,
    ValidatedScenario,
    scenario_from_json,
    scenario_to_json,
    validate,
)
from .presets import PRESETS, build_preset

__version__ = "0.1.0"

__all__ = [
    "IncompatibleMethod",
    "PRESETS",
    "ScenarioConfig",
    "SchedFiltError",
    "UnsupportedScenario",
    "ValidatedScenario",
    "ValidationError",
    "__version__",
    "build_preset",
    "scenario_from_json",
    "scenario_to_json",
    "validate",
]
