"""Bounded smooth test functions with coded derivatives.

The filtering identities are checked against a battery of C_b^2 functions.
Each `TestFunction` carries a hand-coded gradient and Hessian, computed
together from one evaluation, so that the diffusion generator

    L phi(x) = a(x) . grad phi(x) + 0.5 tr(b b^T (x) hess phi(x))

and the jump part of the generator

    A phi(x) = E[phi(x + c(x) xi)] - phi(x),   xi ~ xi-marginal of the mark law,

can be evaluated without symbolic machinery.  States are passed as (N, m)
arrays; values come back as (N,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .model import ValidatedScenario

__all__ = [
    "TestFunction",
    "tanh_affine",
    "gauss_bump",
    "clipped_identity",
    "clipped_square",
    "default_battery",
    "battery_function",
    "diffusion_generator",
    "jump_generator",
]

QUAD_ORDER_JUMP = 20  # Gauss-Hermite points per coordinate of jump_generator's xi quadrature


@dataclass(frozen=True)
class TestFunction:
    name: str
    value: Callable[[np.ndarray], np.ndarray]  # (N, m) -> (N,)
    derivs: Callable[[np.ndarray], tuple]  # (N, m) -> gradient (N, m), Hessian (N, m, m)
    bound: float  # sup |phi|

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value(np.atleast_2d(np.asarray(x, dtype=float)))


def tanh_affine(w, b: float = 0.0, name: str | None = None) -> TestFunction:
    """phi(x) = tanh(w . x + b)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))

    def value(x):
        return np.tanh(np.einsum("ni,i->n", x, w) + b)

    def derivs(x):
        t = value(x)
        s2 = 1.0 - t**2
        outer = w[:, None] * w[None, :]
        return s2[:, None] * w, (-2.0 * t * s2)[:, None, None] * outer

    return TestFunction(name or "tanh_affine", value, derivs, bound=1.0)


def gauss_bump(center, scale: float, name: str | None = None) -> TestFunction:
    """phi(x) = exp(-|x - center|^2 / scale)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if scale <= 0:
        raise ValidationError("scale must be positive")

    def value(x):
        d = x - center
        return np.exp(-np.sum(d**2, axis=1) / scale)

    def derivs(x):
        d = x - center
        v = value(x)
        eye = np.eye(center.size)
        outer = d[:, :, None] * d[:, None, :]
        return v[:, None] * (-2.0 / scale) * d, v[:, None, None] * ((4.0 / scale**2) * outer - (2.0 / scale) * eye)

    return TestFunction(name or "gauss_bump", value, derivs, bound=1.0)


def clipped_identity(cap: float = 10.0, name: str | None = None) -> TestFunction:
    """phi(x) = cap * tanh(x_1 / cap): the identity on |x_1| << cap, bounded by cap."""
    if cap <= 0:
        raise ValidationError("cap must be positive")

    def value(x):
        return cap * np.tanh(x[:, 0] / cap)

    def derivs(x):
        t = np.tanh(x[:, 0] / cap)
        grad = np.zeros_like(x)
        grad[:, 0] = 1.0 - t**2
        hess = np.zeros(x.shape + (x.shape[1],))
        hess[:, 0, 0] = -2.0 * t * (1.0 - t**2) / cap
        return grad, hess

    return TestFunction(name or "clipped_identity", value, derivs, bound=cap)


def clipped_square(cap: float = 10.0, name: str | None = None) -> TestFunction:
    """phi(x) = cap^2 * tanh(x_1 / cap)^2: matches x_1^2 on |x_1| << cap."""
    if cap <= 0:
        raise ValidationError("cap must be positive")

    def value(x):
        return cap**2 * np.tanh(x[:, 0] / cap) ** 2

    def derivs(x):
        t = np.tanh(x[:, 0] / cap)
        s2 = 1.0 - t**2
        grad = np.zeros_like(x)
        grad[:, 0] = 2.0 * cap * t * s2
        hess = np.zeros(x.shape + (x.shape[1],))
        hess[:, 0, 0] = 2.0 * s2 * (s2 - 2.0 * t**2)
        return grad, hess

    return TestFunction(name or "clipped_square", value, derivs, bound=cap**2)


def default_battery(m: int = 1) -> list[TestFunction]:
    """Standard battery used by the structure checks."""
    w = np.zeros(m)
    w[0] = 1.0
    center = np.zeros(m)
    center[0] = 0.5
    return [
        tanh_affine(w, 0.0, name="tanh"),
        gauss_bump(center, 0.5, name="bump"),
        clipped_identity(10.0, name="clipped_identity"),
        clipped_square(10.0, name="clipped_square"),
    ]


def battery_function(name: str, m: int = 1) -> TestFunction:
    for fn in default_battery(m):
        if fn.name == name:
            return fn
    raise KeyError(f"unknown test function {name!r}")


def diffusion_generator(phi: TestFunction, scenario: ValidatedScenario) -> Callable[[np.ndarray], np.ndarray]:
    """Return x -> L phi(x) for the scenario's drift and diffusion."""

    def lphi(x: np.ndarray) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        b = scenario.diffusion(x2)
        grad, hess = phi.derivs(x2)
        first = np.einsum("ni,ni->n", scenario.drift(x2), grad)
        # tr(b b^T H) without forming b b^T
        second = 0.5 * np.einsum("nik,njk,nij->n", b, b, hess)
        return first + second

    return lphi


def jump_generator(phi: TestFunction, scenario: ValidatedScenario) -> Callable[[np.ndarray], np.ndarray]:
    """Return x -> A phi(x), integrating xi over the mark law's xi-marginal
    with `xi_quadrature`: Gauss-Hermite of `QUAD_ORDER_JUMP` points for
    Gaussian marks, the atoms for discrete ones, and one node at 0 when xi
    is zero, so A phi = 0."""
    nodes, weights = scenario.jump_law.xi_quadrature(QUAD_ORDER_JUMP)

    def aphi(x: np.ndarray) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        c = scenario.jump_coeff(x2)  # (N, m, m)
        out = -phi.value(x2)
        for xi, wq in zip(nodes, weights):
            out += wq * phi.value(x2 + c @ xi)
        return out

    return aphi
