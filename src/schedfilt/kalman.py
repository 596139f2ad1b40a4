"""Exact Gaussian filter for linear scenarios with scheduled jumps.

Between events the conditional law stays Gaussian and follows the
mean-reverting moment flow; with scalar state and drift -lam x + u,

    m_t = u/lam + (m_s - u/lam) exp(-lam (t-s)),
    P_t = sig^2/(2 lam) + (P_s - sig^2/(2 lam)) exp(-2 lam (t-s)),

the variance relaxing to sig^2 / (2 lam).  At an event with increment
dy = A x- - C y- + b + eta the update conditions on dy and then adds the
signal-jump covariance Q: dy reads the pre-jump state, as in simulation.

The covariance recursion does not read the data, so a belief may carry
one mean (m,) or a block of means (P, m) for P paths under one shared
covariance: `propagate` and `jump_update` serve one path in `run_filter`
and a block in `filter_events_vectorized`, with the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import IncompatibleMethod, NegativeDt, NumericalBlowup, SingularS, UnknownFunctionDescriptor
from .model import GaussianMarks, ValidatedScenario, walk_events

__all__ = [
    "LinearModelParams",
    "GaussianBelief",
    "EventUpdate",
    "KalmanTrajectory",
    "linear_params_from_scenario",
    "propagate",
    "jump_update",
    "run_filter",
    "filter_events_vectorized",
    "VecEventBeliefs",
]


@dataclass(frozen=True)
class LinearModelParams:
    """Coefficients of the linear scenario.

    Drift is -lam x + drift_const; diffusion sigma_x; observation increments
    A x - C y + obs_intercept + eta with eta ~ N(0, R); signal jumps add
    xi' ~ N(0, Q) where Q already includes the constant jump loading.
    """

    lam: np.ndarray  # (m, m)
    sigma_x: np.ndarray  # (m, m)
    A: np.ndarray  # (n, m)
    C: np.ndarray  # (n, n)
    Q: np.ndarray  # (m, m)
    R: np.ndarray  # (n, n)
    drift_const: np.ndarray = None  # (m,)
    obs_intercept: np.ndarray = None  # (n,)

    def __post_init__(self):
        for name in ("lam", "sigma_x", "A", "C", "Q", "R"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        m = self.lam.shape[0]
        n = self.A.shape[0]
        dc = np.zeros(m) if self.drift_const is None else np.asarray(self.drift_const, dtype=float).reshape(m)
        oi = np.zeros(n) if self.obs_intercept is None else np.asarray(self.obs_intercept, dtype=float).reshape(n)
        object.__setattr__(self, "drift_const", dc)
        object.__setattr__(self, "obs_intercept", oi)

    @property
    def m(self) -> int:
        return self.lam.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def scalar(self) -> bool:
        return self.m == 1 and self.n == 1


@dataclass(frozen=True)
class GaussianBelief:
    time: float
    mean: np.ndarray  # (m,), or (P, m) for P paths
    cov: np.ndarray  # (m, m), shared by all paths


@dataclass(frozen=True)
class EventUpdate:
    innovation: np.ndarray  # (n,), or (P, n)
    gain: np.ndarray  # (m, n)
    pred_mean: np.ndarray  # (n,) or (P, n): A m- - C y- + b, pre-jump predictive mean of dY
    pred_cov: np.ndarray  # (n, n): A P- A^T + R, pre-jump predictive cov of dY


@dataclass(frozen=True)
class KalmanTrajectory:
    times: np.ndarray  # (T,)
    sides: list  # "interior" | "pre" | "post"
    means: np.ndarray  # (T, m)
    covs: np.ndarray  # (T, m, m)
    events: list  # EventUpdate per event


def linear_params_from_scenario(scenario: ValidatedScenario) -> LinearModelParams:
    """Extract linear coefficients, or raise IncompatibleMethod.

    Requires affine drift, constant diffusion, constant jump loading, affine
    observation map, and Gaussian marks with xi independent of eta.
    """
    model = scenario.config.model
    if model.m != 1 or model.n != 1:
        raise IncompatibleMethod("exact filter: only scalar scenarios are derived from descriptors")
    try:
        slope, intercept = functions.affine_coefficients(model.drift)
        diffusion_slope, sigma = functions.affine_coefficients(model.diffusion)
        jump_slope, c_load = functions.affine_coefficients(model.jump_coeff)
        a_obs, c_obs, b_obs = functions.obs_affine_coefficients(model.obs_fn)
    except UnknownFunctionDescriptor as exc:
        raise IncompatibleMethod(f"exact filter needs affine coefficients: {exc}") from exc
    if diffusion_slope != 0.0 or jump_slope != 0.0:
        raise IncompatibleMethod("exact filter needs state-free diffusion and jump loading")
    law = scenario.jump_law
    if not isinstance(law, GaussianMarks) or law.Sxe.any():
        raise IncompatibleMethod("exact filter needs Gaussian marks with xi independent of eta")
    q = float(law.Sxx[0, 0]) * c_load**2
    r = float(law.See[0, 0])
    return LinearModelParams(
        lam=[[-slope]],
        sigma_x=[[sigma]],
        A=[[a_obs]],
        C=[[c_obs]],
        Q=[[q]],
        R=[[r]],
        drift_const=[intercept],
        obs_intercept=[b_obs],
    )


def propagate(belief: GaussianBelief, params: LinearModelParams, delta_t: float) -> GaussianBelief:
    """Event-free moment flow over delta_t, in closed form; scalar only.

    The mean may be one path (m,) or a block (P, m); the covariance is shared.
    """
    if not params.scalar:
        raise IncompatibleMethod("exact propagation is scalar-only")
    if delta_t < 0:
        raise NegativeDt(f"propagation interval must be nonnegative, got {delta_t}")
    if delta_t == 0.0:
        return belief
    lam = float(params.lam[0, 0])
    sig2 = float(params.sigma_x[0, 0]) ** 2
    u = float(params.drift_const[0])
    m0 = belief.mean
    p0 = float(belief.cov[0, 0])
    if abs(lam) < 1e-14:
        mean = m0 + u * delta_t
        var = p0 + sig2 * delta_t
    else:
        stat_mean = u / lam
        stat_var = sig2 / (2.0 * lam)
        mean = stat_mean + (m0 - stat_mean) * np.exp(-lam * delta_t)
        var = stat_var + (p0 - stat_var) * np.exp(-2.0 * lam * delta_t)
    return GaussianBelief(belief.time + delta_t, mean, np.array([[max(var, 0.0)]]))


def jump_update(
    belief: GaussianBelief,
    params: LinearModelParams,
    dy: np.ndarray,
    y_pre: np.ndarray,
) -> tuple[GaussianBelief, EventUpdate]:
    """Condition on one observation increment and apply the signal jump.

    For a block of P paths (mean (P, m)), dy and y_pre hold one row per
    path and the record's pred_mean and innovation are (P, n).  The belief
    passed in and the one returned are the states before and after.
    """
    A, C, Q, R = params.A, params.C, params.Q, params.R
    m_pre, p_pre = belief.mean, belief.cov
    rows = m_pre.shape[:-1] + (params.n,)
    dy = np.asarray(dy, dtype=float).reshape(rows)
    y_pre = np.asarray(y_pre, dtype=float).reshape(rows)

    # (M @ x.T).T is M @ x for one path and the same product per row of a block
    pred_mean = (A @ m_pre.T).T - (C @ y_pre.T).T + params.obs_intercept
    pred_cov = A @ p_pre @ A.T + R
    v = dy - pred_mean

    gain = _solve_gain(p_pre, A, pred_cov)
    mean_post = m_pre + (gain @ v.T).T
    cov_post = _project_psd(p_pre - gain @ A @ p_pre + Q)
    if not (np.all(np.isfinite(mean_post)) and np.all(np.isfinite(cov_post))):
        raise NumericalBlowup("filter state became non-finite at an event update")

    record = EventUpdate(innovation=v, gain=gain, pred_mean=pred_mean, pred_cov=pred_cov)
    return GaussianBelief(belief.time, mean_post, cov_post), record


def run_filter(
    scenario: ValidatedScenario,
    events,
    reporting_times,
    params: LinearModelParams | None = None,
) -> KalmanTrajectory:
    """Exact filter along the given events, reported at the given times.

    Events need attributes time, dy and y_pre; rows follow the layout of
    `model.walk_events`.
    """
    if params is None:
        params = linear_params_from_scenario(scenario)
    belief = GaussianBelief(0.0, scenario.x0.astype(float).copy(), np.zeros((params.m, params.m)))

    def advance(t: float) -> None:
        nonlocal belief
        belief = propagate(belief, params, t - belief.time)

    def update(event, index: int) -> EventUpdate:
        nonlocal belief
        belief, record = jump_update(belief, params, event.dy, event.y_pre)
        return record

    times, sides, rows, updates = walk_events(
        events, reporting_times, advance, update, lambda side: (belief.mean.copy(), belief.cov.copy())
    )
    means, covs = zip(*rows)
    return KalmanTrajectory(
        times=np.asarray(times),
        sides=sides,
        means=np.asarray(means),
        covs=np.asarray(covs),
        events=updates,
    )


# ---------------------------------------------------------------------------
# vectorized event-only filtering (scalar scenarios, shared schedule)


@dataclass(frozen=True)
class VecEventBeliefs:
    """Per-event filter quantities for many paths sharing one schedule.

    The covariance recursion is data-free in the linear case, so variances
    are shared (K,) while means and innovations are per path (n_paths, K).
    """

    pred_mean: np.ndarray  # (n_paths, K): A m- - C y- + b
    pred_var: np.ndarray  # (K,): A P- A^T + R
    innovation: np.ndarray  # (n_paths, K)
    post_mean: np.ndarray  # (n_paths, K)
    post_var: np.ndarray  # (K,)
    pre_mean: np.ndarray  # (n_paths, K)
    pre_var: np.ndarray  # (K,)


def filter_events_vectorized(
    params: LinearModelParams,
    x0: np.ndarray,
    dys: np.ndarray,
    times: np.ndarray,
) -> VecEventBeliefs:
    """Run the scalar exact filter across paths that share event times.

    One `propagate` and one `jump_update` per event on the (n_paths, 1)
    block of means, so row p is `run_filter` on path p's events alone.
    """
    if not params.scalar:
        raise IncompatibleMethod("vectorized event filtering is scalar-only")
    dys = np.asarray(dys, dtype=float)
    times = np.asarray(times, dtype=float)
    n_paths = dys.shape[0]
    belief = GaussianBelief(0.0, np.full((n_paths, 1), float(np.asarray(x0).reshape(-1)[0])), np.zeros((1, 1)))
    y = np.zeros((n_paths, 1))
    pre, post, records = [], [], []
    for i, ti in enumerate(times):
        belief = propagate(belief, params, ti - belief.time)
        pre.append(belief)
        belief, record = jump_update(belief, params, dys[:, i : i + 1], y)
        post.append(belief)
        records.append(record)
        y = y + dys[:, i : i + 1]

    def per_path(steps: list, name: str) -> np.ndarray:
        return np.array([getattr(s, name)[:, 0] for s in steps]).reshape(len(times), n_paths).T

    def shared(steps: list, name: str) -> np.ndarray:
        return np.array([getattr(s, name)[0, 0] for s in steps], dtype=float)

    return VecEventBeliefs(
        pred_mean=per_path(records, "pred_mean"),
        pred_var=shared(records, "pred_cov"),
        innovation=per_path(records, "innovation"),
        post_mean=per_path(post, "mean"),
        post_var=shared(post, "cov"),
        pre_mean=per_path(pre, "mean"),
        pre_var=shared(pre, "cov"),
    )


def _solve_gain(p: np.ndarray, A: np.ndarray, s: np.ndarray) -> np.ndarray:
    try:
        cond = np.linalg.cond(s)
    except np.linalg.LinAlgError as exc:
        raise SingularS("innovation covariance is singular") from exc
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularS(f"innovation covariance is ill-conditioned (cond={cond:.3g})")
    return np.linalg.solve(s.T, (p @ A.T).T).T


def _project_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and clip eigenvalues at zero."""
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() >= 0.0:
        return cov
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * eigvals) @ eigvecs.T
