"""Named scenarios, one shipped JSON file each.

`PRESETS[name](**overrides)` reads `configs/<name>.json`, the preset's only
definition, and replaces top-level fields (horizon, dt, seed) or filter
settings.  It parses the file on every call, so each call returns fresh
descriptor dicts.  `configs/SCHEMA.md` describes the format and which of the
paper's applications each preset models.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any

from .model import ScenarioConfig, ValidatedScenario, apply_overrides, scenario_from_json, validate

__all__ = ["CONFIG_DIR", "PRESETS", "build_preset"]

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")


def _from_file(name: str, **overrides: Any) -> ScenarioConfig:
    with open(os.path.join(CONFIG_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return apply_overrides(scenario_from_json(fh.read()), overrides)


PRESETS = {name: partial(_from_file, name) for name in ("ou_kalman", "medical", "credit_risk", "njode_style")}


def build_preset(name: str, **overrides: Any) -> ValidatedScenario:
    """Validate the named preset, applying overrides first."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return validate(PRESETS[name](**overrides))
