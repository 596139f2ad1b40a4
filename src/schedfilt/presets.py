"""Named scenario builders.

Each builder returns a ScenarioConfig; keyword overrides replace top-level
fields (horizon, dt, seed) or filter settings.  The JSON files shipped in
configs/ are generated from these builders and must stay equal to them.
"""

from __future__ import annotations

from typing import Any

from .model import (
    JumpLawSpec,
    ModelSpec,
    ScenarioConfig,
    Schedule,
    ValidatedScenario,
    apply_overrides,
    validate,
)

__all__ = ["ou_kalman", "medical", "credit_risk", "njode_style", "build_preset", "PRESETS"]


def ou_kalman(**overrides: Any) -> ScenarioConfig:
    """Mean-reverting signal, additive Gaussian jumps, linear level readings.

    dX = -X dt + 0.5 dB + dJ with xi ~ N(0, 0.04), observation increments
    dY = X- + eta, eta ~ N(0, 0.01), at fixed times (0.5, 1.0, 1.5).  The
    exact Gaussian recursion applies, so this scenario anchors most checks.
    """
    config = ScenarioConfig(
        model=ModelSpec(
            m=1,
            n=1,
            x0=(1.0,),
            drift={"kind": "affine", "slope": -1.0, "intercept": 0.0},
            diffusion={"kind": "const", "value": 0.5},
            jump_coeff={"kind": "const", "value": 1.0},
            obs_fn={"kind": "affine_xy", "a": 1.0, "c": 0.0, "intercept": 0.0},
            jump_law=JumpLawSpec(kind="gaussian_product", q=((0.04,),), r=((0.01,),)),
        ),
        schedule=Schedule(kind="deterministic", times=(0.5, 1.0, 1.5)),
        horizon=2.0,
        dt=1e-3,
        seed=1234,
        preset="ou_kalman",
    )
    return apply_overrides(config, overrides)


def medical(**overrides: Any) -> ScenarioConfig:
    """Multiplicative health-state dynamics with threshold-triggered scoring.

    The state decays geometrically; the score Y tracks log X through
    f(x, y) = log(x) - y, so each event resets the score to a noisy reading
    of log X.  Interventions fire when the score crosses falling thresholds
    checked on a quarterly grid, and they scale the state by (1 + xi).
    """
    config = ScenarioConfig(
        model=ModelSpec(
            m=1,
            n=1,
            x0=(1.0,),
            drift={"kind": "affine", "slope": -0.3, "intercept": 0.0},
            diffusion={"kind": "affine", "slope": 0.2, "intercept": 0.0},
            jump_coeff={"kind": "identity"},
            obs_fn={
                "kind": "state_expr_minus_y",
                "expr": {"kind": "log", "child": {"kind": "identity"}, "floor": 1e-12},
                "c": 1.0,
            },
            jump_law=JumpLawSpec(kind="gaussian_product", q=((0.04,),), r=((0.0025,),)),
        ),
        schedule=Schedule(
            kind="threshold",
            thresholds=(-0.15, -0.35),
            obs_grid=tuple(round(0.25 * k, 10) for k in range(1, 12)),
        ),
        horizon=3.0,
        dt=1e-3,
        seed=1234,
        preset="medical",
    )
    return apply_overrides(config, overrides)


def credit_risk(**overrides: Any) -> ScenarioConfig:
    """Log-asset-value dynamics with quarterly announcements.

    State is log V with constant drift and volatility; announcements at
    fixed quarters carry f(x, y) = x + 0.3 y plus noise, and revaluation
    jumps are additive Gaussian on the log scale.
    """
    config = ScenarioConfig(
        model=ModelSpec(
            m=1,
            n=1,
            x0=(0.0,),
            drift={"kind": "const", "value": 0.019},
            diffusion={"kind": "const", "value": 0.25},
            jump_coeff={"kind": "const", "value": 1.0},
            obs_fn={"kind": "affine_xy", "a": 1.0, "c": -0.3, "intercept": 0.0},
            jump_law=JumpLawSpec(kind="gaussian_product", q=((0.01,),), r=((0.04,),)),
        ),
        schedule=Schedule(kind="deterministic", times=(0.25, 0.5, 0.75, 1.0)),
        horizon=1.25,
        dt=1e-3,
        seed=1234,
        preset="credit_risk",
    )
    return apply_overrides(config, overrides)


def njode_style(**overrides: Any) -> ScenarioConfig:
    """Continuous signal (no state jumps) observed through a quadratic map.

    xi is identically zero, so events only inject information: dY = h(X-) + eta
    with h(x) = x + 0.3 x^2.  Exercises the Bayes-only event updates.
    """
    config = ScenarioConfig(
        model=ModelSpec(
            m=1,
            n=1,
            x0=(0.5,),
            drift={"kind": "affine", "slope": -0.5, "intercept": 0.0},
            diffusion={"kind": "const", "value": 0.3},
            jump_coeff={"kind": "const", "value": 0.0},
            obs_fn={
                "kind": "state_expr_minus_y",
                "expr": {"kind": "poly", "coeffs": [0.0, 1.0, 0.3]},
                "c": 0.0,
            },
            jump_law=JumpLawSpec(kind="degenerate_xi_zero", r=((0.04,),)),
        ),
        schedule=Schedule(kind="deterministic", times=(0.4, 0.8, 1.2, 1.6)),
        horizon=2.0,
        dt=1e-3,
        seed=1234,
        preset="njode_style",
    )
    return apply_overrides(config, overrides)


PRESETS = {
    "ou_kalman": ou_kalman,
    "medical": medical,
    "credit_risk": credit_risk,
    "njode_style": njode_style,
}


def build_preset(name: str, **overrides: Any) -> ValidatedScenario:
    """Validate the named preset, applying overrides first."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return validate(PRESETS[name](**overrides))
