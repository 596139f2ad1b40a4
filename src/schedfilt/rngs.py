"""Deterministic random-stream bookkeeping.

Every stochastic component draws from its own `numpy.random.Generator`,
keyed by the scenario seed plus fixed integer stream labels.  Streams are
independent by construction of `SeedSequence`, so refining the time step
consumes more diffusion draws without disturbing the mark draws, and
per-path streams make ensemble results independent of worker scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Stream labels.  Keep values stable: they are part of the reproducibility
# contract for seeded runs.
PATH_DIFFUSION = 0
PATH_MARKS = 1
PARTICLES = 2
PILOT = 4
REFERENCE_OBS = 5

__all__ = [
    "PATH_DIFFUSION",
    "PATH_MARKS",
    "PARTICLES",
    "PILOT",
    "REFERENCE_OBS",
    "stream",
]


def stream(seed: int, *labels: int) -> np.random.Generator:
    """Return the generator for `seed` qualified by integer stream labels."""
    if seed < 0 or any(label < 0 for label in labels):
        raise ValidationError("seed and stream labels (path ids among them) must be nonnegative integers")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, labels)]))
