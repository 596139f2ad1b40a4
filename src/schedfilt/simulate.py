"""Path simulation.

Euler-Maruyama between event times, with event times inserted into the
time grid exactly so that jumps are applied at the scheduled instant:

    X_{k+1} = X_k + a(X_k) h + b(X_k) sqrt(h) Z_k,
    at T_i:  dY = f(X-, Y-) + eta_i  first, then  X <- X- + c(X-) xi_i.

Observations are therefore always of the pre-jump state.  Diffusion
increments and marks come from separate per-path streams, so refining dt
leaves the realized marks unchanged.  One engine, `_euler`, steps a block
of paths and holds the threshold trigger; `simulate_batch` runs it on
blocks of whole paths (`simulate_path` is the one-path case) and
`run_ensemble` on chunks of many, keeping only checkpoints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import rngs
from .errors import (
    NumericalBlowup,
    ScheduleExhaustedHorizon,
    UnsupportedScenario,
    ValidationError,
)
from .model import DiscreteMarks, ValidatedScenario

__all__ = [
    "ObservationEvent",
    "SignalPath",
    "SimulationResult",
    "EnsembleResult",
    "build_time_grid",
    "simulate_path",
    "simulate_batch",
    "run_ensemble",
]

_MERGE_TOL = 1e-9
# Paths a simulate_batch block steps together: about 1 MB per (2001, P, m)
# array for a scalar model of 2,000 steps.
BLOCK_PATHS = 64


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
    """Candidate event times within the horizon, plus drop warnings."""
    kept: list[float] = []
    warnings_list: list[str] = []
    for i, s in enumerate(scenario.schedule.candidate_times):
        if s > scenario.horizon + _MERGE_TOL:
            msg = f"scheduled time T_{i + 1} = {s} beyond horizon {scenario.horizon}; dropped"
            warnings_list.append(msg)
            warnings.warn(msg, ScheduleExhaustedHorizon, stacklevel=3)
        else:
            kept.append(float(s))
    return kept, warnings_list


def simulate_path(scenario: ValidatedScenario, path_id: int = 0, seed: int | None = None) -> SimulationResult:
    """Simulate one signal/observation path.

    Reproducible: the same (scenario, path_id, seed) give the same result
    bit for bit.  `seed` defaults to the scenario seed.
    """
    return next(_blocks(scenario, [path_id], seed, _scheduled_times(scenario)))


def simulate_batch(scenario: ValidatedScenario, path_ids, seed: int | None = None) -> Iterator[SimulationResult]:
    """Simulate the paths `path_ids`, yielding one result per path.

    The paths run as Euler blocks of at most `BLOCK_PATHS`, so a caller
    that drops each result in turn holds one block at a time.  Each path
    draws from its own streams, so its result equals
    `simulate_path(scenario, path_id, seed)` bit for bit whatever the
    block.  `seed` defaults to the scenario seed.
    """
    return _blocks(scenario, list(path_ids), seed, _scheduled_times(scenario))


def _blocks(scenario: ValidatedScenario, path_ids: list, seed, scheduled) -> Iterator[SimulationResult]:
    # `scheduled` is _scheduled_times' result, taken in the public entry
    # point so that its warning names the caller's line
    seed = scenario.seed if seed is None else seed
    special, warn_list = scheduled
    t = build_time_grid(scenario.horizon, scenario.dt, special)
    event_rows = _grid_rows(t, special, "event time")
    for lo in range(0, len(path_ids), BLOCK_PATHS):
        ids = path_ids[lo : lo + BLOCK_PATHS]
        P = len(ids)
        draws = _draws(scenario, seed, ids, len(t) - 1, scenario.schedule.n_events)
        x, y, _, fired = _euler(scenario, t, draws, event_rows, range(len(t)))
        events: list[list[ObservationEvent]] = [[] for _ in range(P)]
        rows: list[list[int]] = [[] for _ in range(P)]
        for k, label, paths, *arrays in fired:
            for r, j in enumerate(paths.tolist()):
                event = ObservationEvent(len(events[j]) + 1, float(t[k]), *(a[r] for a in arrays), threshold_label=label)
                events[j].append(event)
                rows[j].append(k)
        for j in range(P):
            path = SignalPath(t, x[:, j], y[:, j], np.asarray(rows[j], dtype=int))
            yield SimulationResult(path, events[j], list(warn_list))


def _grid_rows(t: np.ndarray, times, what: str) -> list[int]:
    """Row of each time on the grid t, within _MERGE_TOL."""
    rows = []
    for s in times:
        k = int(np.argmin(np.abs(t - s)))
        if abs(t[k] - s) > _MERGE_TOL:
            raise ValidationError(f"{what} {s} does not lie on the simulation grid")
        rows.append(k)
    return rows


def _draws(scenario: ValidatedScenario, seed: int, paths, n_steps: int, n_marks: int, antithetic: bool = False):
    """Normals z (P, n_steps, m) and marks xi (P, n_marks, m), eta (P, n_marks, n)
    for the path ids `paths`, each path from its own streams.  With
    `antithetic`, an odd path negates the draws of the path before it."""
    m, n, P = scenario.m, scenario.n, len(paths)
    z, xi, eta = np.empty((P, n_steps, m)), np.empty((P, n_marks, m)), np.empty((P, n_marks, n))
    for j, p in enumerate(paths):
        if antithetic and p % 2:
            z[j], xi[j], eta[j] = -z[j - 1], -xi[j - 1], -eta[j - 1]
            continue
        z[j] = rngs.stream(seed, rngs.PATH_DIFFUSION, p).standard_normal((n_steps, m))
        rng_marks = rngs.stream(seed, rngs.PATH_MARKS, p)
        for i in range(n_marks):
            xi_i, eta_i = scenario.jump_law.sample_marks(rng_marks, 1)
            xi[j, i], eta[j, i] = xi_i[0], eta_i[0]
    return z, xi, eta


def _euler(scenario: ValidatedScenario, t: np.ndarray, draws, event_rows, snap_rows, integrands=()):
    """Step the (P, m) block of paths that `draws` gives across the grid t.

    At the rows of a deterministic schedule, event i fires on every path
    with mark i.  At the observation-grid rows of a threshold schedule, the
    labels whose threshold the entering level Y[:, 0] has reached, and that
    have not fired before, fire in label order on those paths.  Thresholds
    fall, so a path's labels fire in the order 0, 1, ..., and label i takes
    the path's i-th mark.  Returns x (S, P, m), y (S, P, n) and the
    trapezoid integrals (S, P, G) at `snap_rows`, and per event the tuple
    (row, label, paths, dy, y_pre, x_pre, xi, eta), with `paths` the block
    rows it fired on and the arrays over those rows.
    """
    z, xi_all, eta_all = draws
    P, n_steps, m = z.shape
    sched = scenario.schedule
    thresholds = np.asarray(sched.thresholds) if sched.kind == "threshold" else None
    untriggered = np.ones((P, sched.n_events), dtype=bool)
    at_row: dict[int, list[int]] = {}
    for i, k in enumerate(event_rows):
        at_row.setdefault(k, []).append(i)
    snaps: dict[int, list[int]] = {}
    for s, k in enumerate(snap_rows):
        snaps.setdefault(k, []).append(s)
    G, S = len(integrands), len(snap_rows)
    x_out, y_out, int_out = np.empty((S, P, m)), np.empty((S, P, scenario.n)), np.empty((S, P, G))
    fired = []

    x = np.broadcast_to(scenario.x0, (P, m)).copy()
    y = np.zeros((P, scenario.n))
    acc = np.zeros((P, G))
    g_prev = _eval_integrands(integrands, x) if G else None
    hs = np.diff(t)
    sqrt_hs = np.sqrt(hs)
    for k in range(n_steps + 1):
        # events fire on arrival at the row, observing the pre-jump state
        if k in at_row:
            if thresholds is None:
                firing = [(slice(None), i, None) for i in at_row[k]]
            else:
                trig = untriggered & (y[:, :1] <= thresholds)
                untriggered &= ~trig
                firing = [(np.flatnonzero(col), label, label) for label, col in enumerate(trig.T) if col.any()]
            for paths, mark, label in firing:
                x_pre, y_pre = x[paths].copy(), y[paths].copy()
                xi, eta = xi_all[paths, mark], eta_all[paths, mark]
                dy = scenario.obs_fn(x_pre, y_pre) + eta
                y[paths] = y_pre + dy
                x[paths] = x_pre + np.einsum("pij,pj->pi", scenario.jump_coeff(x_pre), xi)
                fired.append((k, label, np.arange(P)[paths], dy, y_pre, x_pre, xi, eta))
            if G and firing:
                g_prev = _eval_integrands(integrands, x)
        for s in snaps.get(k, ()):
            x_out[s], y_out[s] = x, y
            if G:
                int_out[s] = acc
        if k < n_steps:
            x = x + scenario.drift(x) * hs[k] + scenario.diffusion_apply(x, z[:, k]) * sqrt_hs[k]
            if not np.isfinite(x).all():
                raise NumericalBlowup(f"state became non-finite at t = {t[k + 1]:.6g}")
            if G:
                g_now = _eval_integrands(integrands, x)
                acc += 0.5 * hs[k] * (g_prev + g_now)
                g_prev = g_now
    return x_out, y_out, int_out, fired


# ---------------------------------------------------------------------------
# ensembles (deterministic schedules)


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
    ensemble trajectories agree with single-path runs bit for bit.  Only
    deterministic schedules are supported here; integrands g are (N, m) ->
    (N,) maps accumulated as trapezoid integrals of g(X_s) ds with the
    pre-jump value closing the segment that ends at an event.
    """
    if scenario.schedule.kind != "deterministic":
        raise UnsupportedScenario("run_ensemble supports deterministic schedules only")
    if antithetic and n_paths % 2:
        raise ValidationError("antithetic ensembles need an even number of paths")
    if antithetic and isinstance(scenario.jump_law, DiscreteMarks):
        raise UnsupportedScenario("antithetic pairing is undefined for discrete mark laws")

    if antithetic:
        chunk_size += chunk_size % 2  # a mirrored pair must share a chunk
    seed = scenario.seed if seed is None else seed
    event_times, _ = _scheduled_times(scenario)
    t = build_time_grid(scenario.horizon, scenario.dt, event_times)
    ckpts = np.asarray(sorted(float(c) for c in checkpoint_times), dtype=float)
    ckpt_rows = _grid_rows(t, ckpts, "checkpoint")
    event_rows = _grid_rows(t, event_times, "event time")
    m, n, K, C = scenario.m, scenario.n, len(event_times), len(ckpts)
    dims = {"dy": n, "y_pre": n, "x_pre": m, "xi": m, "eta": n}  # the order of _euler's events
    out = EnsembleResult(
        checkpoint_times=ckpts,
        x_checkpoints=np.empty((n_paths, C, m)),
        integrals=np.empty((n_paths, C, len(integrands))),
        event_times=np.asarray(event_times),
        **{name: np.empty((n_paths, K, d)) for name, d in dims.items()},
    )
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        draws = _draws(scenario, seed, range(lo, hi), len(t) - 1, K, antithetic)
        x, _, integrals, fired = _euler(scenario, t, draws, event_rows, ckpt_rows, integrands)
        del draws  # free the (P, steps, m) normals before the next chunk draws its own
        out.x_checkpoints[lo:hi], out.integrals[lo:hi] = x.swapaxes(0, 1), integrals.swapaxes(0, 1)
        for i, event in enumerate(fired):
            for name, value in zip(dims, event[3:]):
                getattr(out, name)[lo:hi, i] = value
    return out


def _eval_integrands(integrands, x: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(g(x), dtype=float) for g in integrands], axis=1)
