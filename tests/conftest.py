import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

import schedfilt
from schedfilt import model
from schedfilt.presets import PRESETS, build_preset


@pytest.fixture(scope="session")
def ou_scenario():
    return build_preset("ou_kalman")


@pytest.fixture(scope="session")
def medical_scenario():
    return build_preset("medical")


@pytest.fixture(scope="session")
def medical_firing_scenario():
    """`medical` with thresholds that fire: label 0 (level 0.0 = Y_0) at the
    first visit of every path, the lower ones as the score falls, several
    labels at one visit on many paths."""
    cfg = PRESETS["medical"]()
    schedule = dataclasses.replace(cfg.schedule, thresholds=(0.0, -0.05, -0.1, -0.2))
    return model.validate(dataclasses.replace(cfg, schedule=schedule))


@pytest.fixture(scope="session")
def credit_scenario():
    return build_preset("credit_risk")


@pytest.fixture(scope="session")
def njode_scenario():
    return build_preset("njode_style")


def _two_dim(diffusion: dict) -> model.ValidatedScenario:
    """ou_kalman's schedule with a coupled two-dimensional state."""
    cfg = PRESETS["ou_kalman"]()
    mdl = dataclasses.replace(
        cfg.model,
        m=2,
        n=2,
        x0=(1.0, 0.5),
        drift={"kind": "linear_matrix", "matrix": [[-1.0, 0.3], [0.2, -0.7]]},
        diffusion=diffusion,
        jump_coeff={"kind": "constant_matrix", "value": [[1.0, 0.2], [0.1, 0.9]]},
        jump_law=model.JumpLawSpec(
            kind="gaussian_product",
            q=((0.04, 0.01), (0.01, 0.03)),
            r=((0.01, 0.0), (0.0, 0.01)),
        ),
        obs_fn={
            "kind": "affine_xy",
            "a": [[1.0, 0.0], [0.0, 1.0]],
            "c": [[0.0, 0.0], [0.0, 0.0]],
            "intercept": [0.0, 0.0],
        },
    )
    return model.validate(dataclasses.replace(cfg, model=mdl))


@pytest.fixture(scope="session")
def euler_scenarios():
    """Every diffusion form the Euler loops take: the four presets (constant
    and state-dependent scalar diffusion) and two coupled 2-D models."""
    scenarios = {name: build_preset(name) for name in ("ou_kalman", "credit_risk", "njode_style", "medical")}
    scenarios["m2_constant_matrix"] = _two_dim({"kind": "constant_matrix", "value": [[0.5, 0.1], [0.2, 0.4]]})
    scenarios["m2_diagonal_linear"] = _two_dim({"kind": "diagonal_linear", "scale": [0.3, 0.6]})
    return scenarios


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def cli_env():
    """Build the environment for a ``python -m schedfilt.cli`` subprocess.

    The environment is minimal on purpose, so that outputs cannot depend on
    the caller's: ``PATH``, ``SOURCE_DATE_EPOCH``, any extra variables given,
    and ``PYTHONPATH`` set to the import root of the ``schedfilt`` this test
    session imported.  The child therefore runs the same code as the tests,
    whether that comes from ``src/`` or from an install.  The caller's
    ``PYTHONDONTWRITEBYTECODE``, when set, passes through, so a suite run
    under it leaves no ``__pycache__`` behind.
    """
    import_root = str(Path(schedfilt.__file__).resolve().parents[1])
    no_bytecode = {k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"}

    def build(epoch, **extra):
        return {
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "SOURCE_DATE_EPOCH": epoch,
            **no_bytecode,
            **extra,
            "PYTHONPATH": import_root,
        }

    return build
