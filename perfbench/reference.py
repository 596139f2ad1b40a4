"""Reference computations made apart from schedfilt.

The benchmark checks the package against these, so nothing here imports
it.  The linear presets are scalar: dX = (-lam X + u) dt + sig dB plus a
Gaussian jump of variance q at each event, and the event increment is
dY = a X- - c Y- + b + eta with eta ~ N(0, r).  Between events the
Gaussian law follows the closed-form OU moment flow; at an event it
conditions on dY first (observing the pre-jump state) and then adds q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearPreset:
    lam: float
    u: float
    sig: float
    x0: float
    a: float = 1.0
    c: float = 0.0
    b: float = 0.0
    q: float = 0.0
    r: float = 1.0
    event_times: tuple = ()


# Coefficients of the bundled presets, copied from their docstrings and
# configs/*.json.  njode_style has a quadratic observation map, so only its
# signal flow and unconditional moments are used.
PRESETS = {
    "ou_kalman": LinearPreset(lam=1.0, u=0.0, sig=0.5, x0=1.0, q=0.04, r=0.01, event_times=(0.5, 1.0, 1.5)),
    "credit_risk": LinearPreset(
        lam=0.0, u=0.019, sig=0.25, x0=0.0, c=-0.3, q=0.01, r=0.04, event_times=(0.25, 0.5, 0.75, 1.0)
    ),
    "njode_style": LinearPreset(lam=0.5, u=0.0, sig=0.3, x0=0.5, event_times=(0.4, 0.8, 1.2, 1.6)),
}


def ou_flow(p: LinearPreset, mean: float, var: float, h: float) -> tuple[float, float]:
    """Mean and variance after h time units without events.

    Holds for any initial law under the linear SDE, not only Gaussian ones.
    """
    if p.lam == 0.0:
        return mean + p.u * h, var + p.sig**2 * h
    stat_mean = p.u / p.lam
    stat_var = p.sig**2 / (2.0 * p.lam)
    decay = math.exp(-p.lam * h)
    return stat_mean + (mean - stat_mean) * decay, stat_var + (var - stat_var) * decay * decay


def event_update(p: LinearPreset, mean: float, var: float, dy: float, y_pre: float) -> tuple[float, float]:
    """Condition on dY, then add the signal-jump variance."""
    s = p.a * p.a * var + p.r
    gain = var * p.a / s
    innovation = dy - (p.a * mean - p.c * y_pre + p.b)
    return mean + gain * innovation, var - gain * p.a * var + p.q


def filter_rows(p: LinearPreset, events, times, sides) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional mean and variance at each (time, side) row.

    `events` are (time, dy, y_pre) triples in time order.  A "post" row at
    an event time applies that event; "pre" and "interior" rows only flow.
    """
    mean, var, t_cur, ei = p.x0, 0.0, 0.0, 0
    means, variances = [], []
    for t, side in zip(times, sides):
        mean, var = ou_flow(p, mean, var, float(t) - t_cur)
        t_cur = float(t)
        if side == "post":
            te, dy, y_pre = events[ei]
            if abs(te - t_cur) > 1e-9:
                raise ValueError(f"post row at t={t_cur} does not match event {ei + 1} at t={te}")
            mean, var = event_update(p, mean, var, dy, y_pre)
            ei += 1
        means.append(mean)
        variances.append(var)
    return np.asarray(means), np.asarray(variances)


def unconditional_moments(p: LinearPreset, horizon: float) -> tuple[float, float]:
    """Mean and variance of X at the horizon with no conditioning: the
    jumps are mean-zero, so each event only adds q to the variance."""
    mean, var, t_cur = p.x0, 0.0, 0.0
    for te in p.event_times:
        if te <= horizon:
            mean, var = ou_flow(p, mean, var, te - t_cur)
            var += p.q
            t_cur = te
    return ou_flow(p, mean, var, horizon - t_cur)


def chi2_ratio_bounds(dof: int, z: float) -> tuple[float, float]:
    """Bounds on s^2 / sigma^2 for a Gaussian sample with `dof` degrees of
    freedom, at the normal quantile z, by the Wilson-Hilferty cube-root
    approximation to the chi-square law."""
    k = 2.0 / (9.0 * dof)
    lo = max(1.0 - k - z * math.sqrt(k), 0.0) ** 3
    hi = (1.0 - k + z * math.sqrt(k)) ** 3
    return lo, hi
