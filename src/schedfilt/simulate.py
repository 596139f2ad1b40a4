"""Path simulation.

Euler-Maruyama between event times, with event times inserted into the
time grid exactly so that jumps are applied at the scheduled instant:

    X_{k+1} = X_k + a(X_k) h + b(X_k) sqrt(h) Z_k,
    at T_i:  dY = f(X-, Y-) + eta_i  first, then  X <- X- + c(X-) xi_i.

Observations are therefore always of the pre-jump state.  Diffusion
increments and marks come from separate per-path streams, so refining dt
leaves the realized marks unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rngs
from .errors import (
    NumericalBlowup,
    ScheduleExhaustedHorizon,
    UnsupportedScenario,
)
from .model import ValidatedScenario

__all__ = [
    "ObservationEvent",
    "SignalPath",
    "SimulationResult",
    "EnsembleResult",
    "build_time_grid",
    "simulate_path",
    "run_ensemble",
    "resolve_threshold_times",
    "empirical_compensator_check_data",
]

_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class ObservationEvent:
    """One observation event.  Filters may use index, time, dy, y_pre only;
    x_pre, xi, eta are full-information fields for simulation diagnostics."""

    index: int  # 1-based, chronological
    time: float
    dy: np.ndarray  # (n,)
    y_pre: np.ndarray  # (n,)
    x_pre: np.ndarray  # (m,)
    xi: np.ndarray  # (m,)
    eta: np.ndarray  # (n,)
    threshold_label: int | None = None  # position in the thresholds tuple


@dataclass(frozen=True)
class SignalPath:
    t: np.ndarray  # (T+1,)
    x: np.ndarray  # (T+1, m), post-event values at event nodes
    y: np.ndarray  # (T+1, n)
    event_rows: np.ndarray  # grid row of each event


@dataclass(frozen=True)
class SimulationResult:
    path: SignalPath
    events: list[ObservationEvent]
    warnings: list[str] = field(default_factory=list)


def build_time_grid(horizon: float, dt: float, special_times=()) -> np.ndarray:
    """Uniform grid on [0, horizon] with the given times inserted exactly."""
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-6 * max(dt, horizon):
        n = max(1, int(np.ceil(horizon / dt - 1e-12)))
    t = np.linspace(0.0, horizon, n + 1)
    for s in sorted(set(float(s) for s in special_times)):
        if s <= 0.0 or s > horizon + _MERGE_TOL:
            continue
        k = int(np.argmin(np.abs(t - s)))
        if abs(t[k] - s) <= _MERGE_TOL:
            t[k] = s
        else:
            t = np.insert(t, int(np.searchsorted(t, s)), s)
    return t


def _scheduled_times(scenario: ValidatedScenario) -> tuple[list[float], list[str]]:
    """Deterministic event times within the horizon, plus drop warnings."""
    sched = scenario.schedule
    warnings_list: list[str] = []
    if sched.kind == "deterministic":
        kept = []
        for i, s in enumerate(sched.times):
            if s > scenario.horizon + _MERGE_TOL:
                msg = f"scheduled time T_{i + 1} = {s} beyond horizon {scenario.horizon}; dropped"
                warnings_list.append(msg)
                warnings.warn(msg, ScheduleExhaustedHorizon, stacklevel=3)
            else:
                kept.append(float(s))
        return kept, warnings_list
    return [float(s) for s in sched.obs_grid], warnings_list


def resolve_threshold_times(thresholds, obs_grid, y_entering) -> np.ndarray:
    """Trigger times for falling thresholds, aligned with the thresholds tuple.

    `y_entering[j]` is the observed level entering grid time `obs_grid[j]`
    (its left limit, known causally since Y is constant between events).
    Threshold i triggers at the first grid time with level <= thresholds[i];
    +inf if never.  Each threshold triggers at most once and never resets.
    """
    thr = np.asarray(thresholds, dtype=float)
    grid = np.asarray(obs_grid, dtype=float)
    y = np.asarray(y_entering, dtype=float).reshape(len(grid), -1)[:, 0]
    out = np.full(thr.shape, np.inf)
    for i, level in enumerate(thr):
        hits = np.nonzero(y <= level)[0]
        if hits.size:
            out[i] = grid[hits[0]]
    return out


def simulate_path(scenario: ValidatedScenario, path_id: int = 0, seed: int | None = None) -> SimulationResult:
    """Simulate one signal/observation path.

    Reproducible: the same (scenario, path_id, seed) give the same result
    bit for bit.  `seed` defaults to the scenario seed.
    """
    seed = scenario.seed if seed is None else seed
    rng_diff = rngs.stream(seed, rngs.PATH_DIFFUSION, path_id)
    rng_marks = rngs.stream(seed, rngs.PATH_MARKS, path_id)

    special, warn_list = _scheduled_times(scenario)
    t = build_time_grid(scenario.horizon, scenario.dt, special)
    n_steps = len(t) - 1
    m, n = scenario.m, scenario.n
    z = rng_diff.standard_normal((n_steps, m))

    sched = scenario.schedule
    det_rows = _node_lookup(t, special) if sched.kind == "deterministic" else {}
    obs_rows = _node_lookup(t, special) if sched.kind == "threshold" else {}

    x = scenario.x0.copy()
    y = np.zeros(n)
    X = np.empty((n_steps + 1, m))
    Y = np.empty((n_steps + 1, n))
    events: list[ObservationEvent] = []
    event_rows: list[int] = []
    untriggered = np.ones(len(sched.thresholds), dtype=bool)

    for k in range(n_steps + 1):
        # events fire on arrival at the node, observing the pre-jump state
        labels: list[int | None] = []
        if sched.kind == "deterministic" and k in det_rows:
            labels = [None]
        elif sched.kind == "threshold" and k in obs_rows:
            trig = untriggered & (y[0] <= np.asarray(sched.thresholds))
            labels = list(np.nonzero(trig)[0])
            untriggered[trig] = False
        for label in labels:
            x_pre, y_pre = x.copy(), y.copy()
            xi, eta = scenario.jump_law.sample_marks(rng_marks, 1)
            xi, eta = xi[0], eta[0]
            dy = scenario.obs_fn(x_pre[None, :], y_pre)[0] + eta
            y = y + dy
            x = x + scenario.jump_coeff(x_pre[None, :])[0] @ xi
            events.append(
                ObservationEvent(
                    index=len(events) + 1,
                    time=float(t[k]),
                    dy=dy,
                    y_pre=y_pre,
                    x_pre=x_pre,
                    xi=xi,
                    eta=eta,
                    threshold_label=None if label is None else int(label),
                )
            )
            event_rows.append(k)
        X[k] = x
        Y[k] = y
        if k < n_steps:
            h = t[k + 1] - t[k]
            xr = x[None, :]
            x = x + scenario.drift(xr)[0] * h + scenario.diffusion_apply(xr, z[k : k + 1])[0] * np.sqrt(h)
            if not np.all(np.isfinite(x)):
                raise NumericalBlowup(f"state became non-finite at t = {t[k + 1]:.6g}")

    path = SignalPath(t=t, x=X, y=Y, event_rows=np.asarray(event_rows, dtype=int))
    return SimulationResult(path=path, events=events, warnings=warn_list)


def _node_lookup(t: np.ndarray, times) -> dict[int, float]:
    lookup = {}
    for s in times:
        k = int(np.argmin(np.abs(t - s)))
        if abs(t[k] - s) <= _MERGE_TOL:
            lookup[k] = float(s)
    return lookup


# ---------------------------------------------------------------------------
# vectorized ensembles (deterministic schedules)


@dataclass(frozen=True)
class EnsembleResult:
    checkpoint_times: np.ndarray  # (C,)
    x_checkpoints: np.ndarray  # (n_paths, C, m), post-event values
    integrals: np.ndarray  # (n_paths, C, G) trapezoid of each integrand up to the checkpoint
    event_times: np.ndarray  # (K,)
    x_pre: np.ndarray  # (n_paths, K, m)
    y_pre: np.ndarray  # (n_paths, K, n)
    dy: np.ndarray  # (n_paths, K, n)
    xi: np.ndarray  # (n_paths, K, m)
    eta: np.ndarray  # (n_paths, K, n)


def run_ensemble(
    scenario: ValidatedScenario,
    n_paths: int,
    seed: int | None = None,
    *,
    checkpoint_times=(),
    integrands=(),
    antithetic: bool = False,
    chunk_size: int = 4000,
) -> EnsembleResult:
    """Simulate many paths at once, keeping per-path reproducibility.

    Path p uses the same noise streams as `simulate_path(scenario, p)`, so
    ensemble trajectories agree with single-path runs: bit for bit for a
    scalar state (m = 1), to round-off for m >= 2, where a matrix product
    over P rows can round differently from the one-row product.  Only
    deterministic schedules are supported here; integrands g are (N, m) ->
    (N,) maps accumulated as trapezoid integrals of g(X_s) ds with the
    pre-jump value closing the segment that ends at an event.
    """
    if scenario.schedule.kind != "deterministic":
        raise UnsupportedScenario("run_ensemble supports deterministic schedules only")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic ensembles need an even number of paths")
    if antithetic and scenario.jump_law.spec.kind == "discrete":
        raise UnsupportedScenario("antithetic pairing is undefined for discrete mark laws")

    seed = scenario.seed if seed is None else seed
    event_times, _ = _scheduled_times(scenario)
    t = build_time_grid(scenario.horizon, scenario.dt, event_times)
    ckpts = np.asarray(sorted(float(c) for c in checkpoint_times), dtype=float)
    ckpt_rows = []
    for c in ckpts:
        k = int(np.argmin(np.abs(t - c)))
        if abs(t[k] - c) > _MERGE_TOL:
            raise ValueError(f"checkpoint {c} does not lie on the simulation grid")
        ckpt_rows.append(k)
    event_rows = [int(np.argmin(np.abs(t - s))) for s in event_times]
    row_events = {k: i for i, k in enumerate(event_rows)}

    m, n = scenario.m, scenario.n
    K, C, G = len(event_times), len(ckpts), len(integrands)
    n_steps = len(t) - 1
    hs = np.diff(t)

    out_xc = np.empty((n_paths, C, m))
    out_int = np.empty((n_paths, C, G))
    out_xpre = np.empty((n_paths, K, m))
    out_ypre = np.empty((n_paths, K, n))
    out_dy = np.empty((n_paths, K, n))
    out_xi = np.empty((n_paths, K, m))
    out_eta = np.empty((n_paths, K, n))

    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        P = hi - lo
        z = np.empty((P, n_steps, m))
        xi_all = np.empty((P, K, m))
        eta_all = np.empty((P, K, n))
        for p in range(lo, hi):
            if antithetic and p % 2:
                z[p - lo] = -z[p - 1 - lo]
                xi_all[p - lo] = -xi_all[p - 1 - lo]
                eta_all[p - lo] = -eta_all[p - 1 - lo]
                continue
            z[p - lo] = rngs.stream(seed, rngs.PATH_DIFFUSION, p).standard_normal((n_steps, m))
            rng_marks = rngs.stream(seed, rngs.PATH_MARKS, p)
            for i in range(K):
                xi_i, eta_i = scenario.jump_law.sample_marks(rng_marks, 1)
                xi_all[p - lo, i] = xi_i[0]
                eta_all[p - lo, i] = eta_i[0]

        x = np.broadcast_to(scenario.x0, (P, m)).copy()
        y = np.zeros((P, n))
        acc = np.zeros((P, G))
        g_prev = _eval_integrands(integrands, x) if G else None
        ckpt_map = {}
        for idx, k in enumerate(ckpt_rows):
            ckpt_map.setdefault(k, []).append(idx)

        for k in range(n_steps + 1):
            if k in row_events:
                i = row_events[k]
                x_pre, y_pre = x.copy(), y.copy()
                dy = scenario.obs_fn(x_pre, y_pre) + eta_all[:, i]
                y = y + dy
                x = x + np.einsum("pij,pj->pi", scenario.jump_coeff(x_pre), xi_all[:, i])
                out_xpre[lo:hi, i] = x_pre
                out_ypre[lo:hi, i] = y_pre
                out_dy[lo:hi, i] = dy
                out_xi[lo:hi, i] = xi_all[:, i]
                out_eta[lo:hi, i] = eta_all[:, i]
                if G:
                    g_prev = _eval_integrands(integrands, x)
            for idx in ckpt_map.get(k, ()):
                out_xc[lo:hi, idx] = x
                if G:
                    out_int[lo:hi, idx] = acc
            if k < n_steps:
                h = hs[k]
                x = x + scenario.drift(x) * h + scenario.diffusion_apply(x, z[:, k]) * np.sqrt(h)
                if not np.all(np.isfinite(x)):
                    raise NumericalBlowup(f"ensemble state became non-finite at t = {t[k + 1]:.6g}")
                if G:
                    g_now = _eval_integrands(integrands, x)
                    acc += 0.5 * h * (g_prev + g_now)
                    g_prev = g_now

    return EnsembleResult(
        checkpoint_times=ckpts,
        x_checkpoints=out_xc,
        integrals=out_int,
        event_times=np.asarray(event_times),
        x_pre=out_xpre,
        y_pre=out_ypre,
        dy=out_dy,
        xi=out_xi,
        eta=out_eta,
    )


def _eval_integrands(integrands, x: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(g(x), dtype=float) for g in integrands], axis=1)


# ---------------------------------------------------------------------------
# compensator check data


def empirical_compensator_check_data(
    scenario: ValidatedScenario,
    n_paths: int,
    seed: int | None = None,
    weight_fns: dict | None = None,
    quad_order: int = 24,
    variance_scale: float = 1.0,
):
    """Per-path event sums (W * mu) and predicted sums (W * nu).

    For each path, (W * mu) adds W(T_i, dY_i) over realized events, and
    (W * nu) adds the quadrature of W(T_i, .) against the one-step
    predictive law of dY given the filter state, N(A m- - C y-, A P- A^T + R),
    computed with the exact Gaussian recursion (linear-Gaussian scenarios
    only).  `variance_scale` rescales the predictive variance and exists
    for negative controls.  Returns (weight name -> (mu_sums, nu_sums),
    event_times).
    """
    from . import kalman  # deferred to keep module import order flexible

    params = kalman.linear_params_from_scenario(scenario)  # raises IncompatibleMethod
    if weight_fns is None:
        weight_fns = default_weight_battery(scenario)
    ens = run_ensemble(scenario, n_paths, seed)
    K = len(ens.event_times)
    mu = {name: np.zeros(n_paths) for name in weight_fns}
    nu = {name: np.zeros(n_paths) for name in weight_fns}
    if K == 0:
        return {name: (mu[name], nu[name]) for name in weight_fns}, ens.event_times

    beliefs = kalman.filter_events_vectorized(params, scenario.x0, ens.dy[:, :, 0], ens.event_times)
    from .quad import gaussian_quad_points

    std_pts, w = gaussian_quad_points(0.0, 1.0, quad_order)
    for i, ti in enumerate(ens.event_times):
        pred_mean = beliefs.pred_mean[:, i]
        pred_var = beliefs.pred_var[i] * variance_scale
        nodes = pred_mean[:, None] + np.sqrt(pred_var) * std_pts[None, :]
        for name, fn in weight_fns.items():
            mu[name] += fn(ti, ens.dy[:, i, 0])
            nu[name] += (w[None, :] * fn(ti, nodes)).sum(axis=1)
    return {name: (mu[name], nu[name]) for name in weight_fns}, ens.event_times


def default_weight_battery(scenario: ValidatedScenario) -> dict:
    """Predictable weights W(t, y): constants, moments, one time window."""
    sched = scenario.schedule
    t1 = sched.times[0] if sched.kind == "deterministic" and sched.times else np.inf

    return {
        "one": lambda t, y: np.ones_like(y),
        "y": lambda t, y: y,
        "y_squared": lambda t, y: y**2,
        "y_before_first_event": lambda t, y: y * (1.0 if t <= t1 else 0.0),
    }
