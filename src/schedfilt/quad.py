"""Gauss-Hermite quadrature against Gaussian base measures."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = ["gh_nodes_weights", "gaussian_quad_points"]

_SQRT_PI = float(np.sqrt(np.pi))


@lru_cache(maxsize=32)
def gh_nodes_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the physicists' Hermite rule of given order."""
    if order < 1:
        raise ValidationError("quadrature order must be >= 1")
    u, w = np.polynomial.hermite.hermgauss(order)
    return u, w


def gaussian_quad_points(mean: float, var: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and probability weights for E[g(Z)], Z ~ N(mean, var).

    Change of variables z = mean + sqrt(2 var) u turns the Hermite rule into
    an expectation rule; the weights returned sum to one.
    """
    if var < 0:
        raise ValidationError("variance must be nonnegative")
    u, w = gh_nodes_weights(order)
    pts = mean + np.sqrt(2.0 * var) * u
    return pts, w / _SQRT_PI

