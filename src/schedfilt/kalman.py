"""Exact Gaussian filter for linear scenarios with scheduled jumps.

Between events the conditional law stays Gaussian and follows the
mean-reverting moment flow; with scalar state and drift -lam x + u,

    m_t = u/lam + (m_s - u/lam) exp(-lam (t-s)),
    P_t = sig^2/(2 lam) + (P_s - sig^2/(2 lam)) exp(-2 lam (t-s)),

the variance relaxing to sig^2 / (2 lam).  At an event with increment
dy = A x- - C y- + b + eta the update conditions on dy and then adds the
signal-jump covariance Q.  Two orderings are provided:

    observe_then_jump (default): gain built from P-, then P <- P_post + Q.
        Matches simulation, where dy reads the pre-jump state.
    jump_then_observe: gain built from P- + Q.  Kept for comparison runs.

Matrix-valued states propagate by RK4 on the coupled mean/covariance ODE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import IncompatibleMethod, NegativeDt, NumericalBlowup, SingularS
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

ORDERINGS = ("observe_then_jump", "jump_then_observe")


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
        object.__setattr__(self, "lam", np.atleast_2d(np.asarray(self.lam, dtype=float)))
        object.__setattr__(self, "sigma_x", np.atleast_2d(np.asarray(self.sigma_x, dtype=float)))
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "C", np.atleast_2d(np.asarray(self.C, dtype=float)))
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        object.__setattr__(self, "R", np.atleast_2d(np.asarray(self.R, dtype=float)))
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
    mean: np.ndarray  # (m,)
    cov: np.ndarray  # (m, m)


@dataclass(frozen=True)
class EventUpdate:
    index: int
    time: float
    innovation: np.ndarray  # (n,)
    innovation_cov: np.ndarray  # (n, n), from the ordering's gain stage
    gain: np.ndarray  # (m, n)
    pred_mean: np.ndarray  # (n,): A m- - C y- + b, pre-jump predictive mean of dY
    pred_cov: np.ndarray  # (n, n): A P- A^T + R, pre-jump predictive cov of dY
    mean_pre: np.ndarray
    cov_pre: np.ndarray
    mean_post: np.ndarray
    cov_post: np.ndarray


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
    except Exception as exc:
        raise IncompatibleMethod(f"exact filter needs affine drift: {exc}") from exc
    for name, desc in [("diffusion", model.diffusion), ("jump_coeff", model.jump_coeff)]:
        if not functions.descriptor_is_affine(desc):
            raise IncompatibleMethod(f"exact filter needs constant {name}")
        s, _ = functions.affine_coefficients(desc)
        if s != 0.0:
            raise IncompatibleMethod(f"exact filter needs state-free {name}")
    _, sigma = functions.affine_coefficients(model.diffusion)
    _, c_load = functions.affine_coefficients(model.jump_coeff)
    obs = functions.obs_affine_coefficients(model.obs_fn)
    if obs is None:
        raise IncompatibleMethod("exact filter needs an affine observation map")
    a_obs, c_obs, b_obs = obs
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


def propagate(belief: GaussianBelief, params: LinearModelParams, delta_t: float, dt_sub: float = 1e-3) -> GaussianBelief:
    """Event-free moment flow over delta_t (closed form when scalar)."""
    if delta_t < 0:
        raise NegativeDt(f"propagation interval must be nonnegative, got {delta_t}")
    if delta_t == 0.0:
        return belief
    if params.scalar:
        lam = float(params.lam[0, 0])
        sig2 = float(params.sigma_x[0, 0]) ** 2
        u = float(params.drift_const[0])
        m0 = float(belief.mean[0])
        p0 = float(belief.cov[0, 0])
        if abs(lam) < 1e-14:
            mean = m0 + u * delta_t
            var = p0 + sig2 * delta_t
        else:
            stat_mean = u / lam
            stat_var = sig2 / (2.0 * lam)
            mean = stat_mean + (m0 - stat_mean) * np.exp(-lam * delta_t)
            var = stat_var + (p0 - stat_var) * np.exp(-2.0 * lam * delta_t)
        return GaussianBelief(belief.time + delta_t, np.array([mean]), np.array([[max(var, 0.0)]]))

    # matrix case: RK4 on dm = (-lam m + u) dt, dP = (-lam P - P lam^T + sig sig^T) dt
    lam, u = params.lam, params.drift_const
    sig2 = params.sigma_x @ params.sigma_x.T
    mean, cov = belief.mean.copy(), belief.cov.copy()
    n_sub = max(1, int(np.ceil(delta_t / dt_sub - 1e-12)))
    h = delta_t / n_sub

    def rhs(state):
        mm, pp = state
        return (-lam @ mm + u, -lam @ pp - pp @ lam.T + sig2)

    for _ in range(n_sub):
        k1 = rhs((mean, cov))
        k2 = rhs((mean + 0.5 * h * k1[0], cov + 0.5 * h * k1[1]))
        k3 = rhs((mean + 0.5 * h * k2[0], cov + 0.5 * h * k2[1]))
        k4 = rhs((mean + h * k3[0], cov + h * k3[1]))
        mean = mean + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        cov = cov + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return GaussianBelief(belief.time + delta_t, mean, _project_psd(cov))


def jump_update(
    belief: GaussianBelief,
    params: LinearModelParams,
    dy: np.ndarray,
    y_pre: np.ndarray,
    ordering: str = "observe_then_jump",
    index: int = 0,
) -> tuple[GaussianBelief, EventUpdate]:
    """Condition on one observation increment and apply the signal jump."""
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    dy = np.asarray(dy, dtype=float).reshape(params.n)
    y_pre = np.asarray(y_pre, dtype=float).reshape(params.n)
    A, C, Q, R = params.A, params.C, params.Q, params.R
    m_pre, p_pre = belief.mean, belief.cov

    pred_mean = A @ m_pre - C @ y_pre + params.obs_intercept
    pred_cov = A @ p_pre @ A.T + R
    v = dy - pred_mean

    p_gain = p_pre + Q if ordering == "jump_then_observe" else p_pre
    s = A @ p_gain @ A.T + R
    gain = _solve_gain(p_gain, A, s)
    mean_post = m_pre + gain @ v
    cov_obs = p_gain - gain @ A @ p_gain
    cov_post = _project_psd(cov_obs + Q) if ordering == "observe_then_jump" else _project_psd(cov_obs)
    if not (np.all(np.isfinite(mean_post)) and np.all(np.isfinite(cov_post))):
        raise NumericalBlowup("filter state became non-finite at an event update")

    updated = GaussianBelief(belief.time, mean_post, cov_post)
    record = EventUpdate(
        index=index,
        time=belief.time,
        innovation=v,
        innovation_cov=s,
        gain=gain,
        pred_mean=pred_mean,
        pred_cov=pred_cov,
        mean_pre=m_pre.copy(),
        cov_pre=p_pre.copy(),
        mean_post=mean_post,
        cov_post=cov_post,
    )
    return updated, record


def run_filter(
    scenario: ValidatedScenario,
    events,
    reporting_times,
    ordering: str = "observe_then_jump",
    params: LinearModelParams | None = None,
) -> KalmanTrajectory:
    """Exact filter along the given events, reported at the given times.

    Events need attributes time, dy and y_pre; rows follow the layout of
    `model.walk_events`.
    """
    if params is None:
        params = linear_params_from_scenario(scenario)
    belief = GaussianBelief(0.0, scenario.x0.astype(float).copy(), np.zeros((params.m, params.m)))

    times: list[float] = []
    sides: list[str] = []
    means: list[np.ndarray] = []
    covs: list[np.ndarray] = []
    updates: list[EventUpdate] = []

    def advance(t: float) -> None:
        nonlocal belief
        belief = propagate(belief, params, t - belief.time)

    def update(event, index: int) -> None:
        nonlocal belief
        belief, record = jump_update(belief, params, event.dy, event.y_pre, ordering, index=index)
        updates.append(record)

    def emit(side: str) -> None:
        times.append(belief.time)
        sides.append(side)
        means.append(belief.mean.copy())
        covs.append(belief.cov.copy())

    walk_events(events, reporting_times, advance, update, emit)
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

    times: np.ndarray
    pred_mean: np.ndarray  # (n_paths, K): A m- - C y- + b
    pred_var: np.ndarray  # (K,): A P- A^T + R
    innovation: np.ndarray  # (n_paths, K)
    gain_var: np.ndarray  # (K,): innovation variance used for the gain
    post_mean: np.ndarray  # (n_paths, K)
    post_var: np.ndarray  # (K,)
    pre_mean: np.ndarray  # (n_paths, K)
    pre_var: np.ndarray  # (K,)


def filter_events_vectorized(
    params: LinearModelParams,
    x0: np.ndarray,
    dys: np.ndarray,
    times: np.ndarray,
    ordering: str = "observe_then_jump",
) -> VecEventBeliefs:
    """Run the scalar exact filter across paths that share event times."""
    if not params.scalar:
        raise IncompatibleMethod("vectorized event filtering is scalar-only")
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    dys = np.asarray(dys, dtype=float)
    n_paths, K = dys.shape
    a = float(params.A[0, 0])
    c = float(params.C[0, 0])
    b = float(params.obs_intercept[0])
    q = float(params.Q[0, 0])
    r = float(params.R[0, 0])

    mean = np.full(n_paths, float(np.asarray(x0).reshape(-1)[0]))
    var = 0.0
    y = np.zeros(n_paths)
    t_cur = 0.0
    out = {k: np.empty((n_paths, K)) for k in ("pred_mean", "innovation", "post_mean", "pre_mean")}
    shared = {k: np.empty(K) for k in ("pred_var", "gain_var", "post_var", "pre_var")}

    for i, ti in enumerate(np.asarray(times, dtype=float)):
        bel = propagate(GaussianBelief(t_cur, np.array([0.0]), np.array([[var]])), params, ti - t_cur)
        decay = _mean_decay(params, ti - t_cur)
        offset = _mean_offset(params, ti - t_cur)
        mean = offset + decay * mean
        var = float(bel.cov[0, 0])
        t_cur = ti

        pred_mean = a * mean - c * y + b
        pred_var = a * a * var + r
        v = dys[:, i] - pred_mean
        var_gain = var + q if ordering == "jump_then_observe" else var
        s = a * a * var_gain + r
        if s <= 0:
            raise SingularS(f"innovation variance {s} at event {i + 1}")
        gain = var_gain * a / s
        out["pre_mean"][:, i] = mean
        shared["pre_var"][i] = var
        mean = mean + gain * v
        var_post = var_gain - gain * a * var_gain
        var = var_post + q if ordering == "observe_then_jump" else var_post
        y = y + dys[:, i]
        out["pred_mean"][:, i] = pred_mean
        shared["pred_var"][i] = pred_var
        out["innovation"][:, i] = v
        shared["gain_var"][i] = s
        out["post_mean"][:, i] = mean
        shared["post_var"][i] = var

    return VecEventBeliefs(
        times=np.asarray(times, dtype=float),
        pred_mean=out["pred_mean"],
        pred_var=shared["pred_var"],
        innovation=out["innovation"],
        gain_var=shared["gain_var"],
        post_mean=out["post_mean"],
        post_var=shared["post_var"],
        pre_mean=out["pre_mean"],
        pre_var=shared["pre_var"],
    )


def _mean_decay(params: LinearModelParams, delta_t: float) -> float:
    lam = float(params.lam[0, 0])
    return float(np.exp(-lam * delta_t))


def _mean_offset(params: LinearModelParams, delta_t: float) -> float:
    lam = float(params.lam[0, 0])
    u = float(params.drift_const[0])
    if abs(lam) < 1e-14:
        return u * delta_t
    return (u / lam) * (1.0 - np.exp(-lam * delta_t))


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
