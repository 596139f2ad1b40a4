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
`run_ensemble` on chunks of many, keeping only checkpoints.  The chunks
run on forked workers, one per CPU the process may use (`_fork_map`); each
path draws from its own streams, so the result does not depend on the
number of workers or chunks.  A block's normals are drawn a tile of steps
at a time into one reused buffer of at most `TILE_NORMALS` values, so a
chunk never holds its whole horizon of normals; each path's stream is
still read in step order, so the tiling does not change a draw.  As in
`particle.propagate`, the state is checked to be finite at each event and
at the end, not after every step, and each event's observation increment
when it fires.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

import numpy as np

from . import rngs
from .errors import NumericalBlowup, UnsupportedScenario, ValidationError
from .model import ValidatedScenario

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
# Paths a run_ensemble chunk steps together, at most.
CHUNK_PATHS = 4000
# Paths a forked worker's share of run_ensemble holds, at least: a fork costs
# 5-8 ms, about what 256 paths of a scalar chunk take.
FORK_PATHS = 512
# Normals a block holds at once: its (P, T, m) tile buffer is about 8 MB.
# That is the whole horizon of a simulate_batch block, and 262 steps of a
# 4,000-path scalar run_ensemble chunk.
TILE_NORMALS = 2**20


@dataclass(frozen=True)
class ObservationEvent:
    """One observation event.  Filters may use index, time, dy, y_pre only;
    x_pre, xi, eta are full-information fields for simulation diagnostics,
    None on an event read back from a file."""

    index: int  # 1-based, chronological
    time: float
    dy: np.ndarray  # (n,)
    y_pre: np.ndarray  # (n,)
    x_pre: np.ndarray | None = None  # (m,)
    xi: np.ndarray | None = None  # (m,)
    eta: np.ndarray | None = None  # (n,)
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


def simulate_path(scenario: ValidatedScenario, path_id: int = 0, seed: int | None = None) -> SimulationResult:
    """Simulate one signal/observation path.

    Reproducible: the same (scenario, path_id, seed) give the same result
    bit for bit.  `seed` defaults to the scenario seed.
    """
    return next(_blocks(scenario, [path_id], seed))


def simulate_batch(scenario: ValidatedScenario, path_ids, seed: int | None = None) -> Iterator[SimulationResult]:
    """Simulate the paths `path_ids`, yielding one result per path.

    The paths run as Euler blocks of at most `BLOCK_PATHS`, so a caller
    that drops each result in turn holds one block at a time.  Each path
    draws from its own streams, so its result equals
    `simulate_path(scenario, path_id, seed)` bit for bit whatever the
    block.  `seed` defaults to the scenario seed.
    """
    return _blocks(scenario, list(path_ids), seed)


def _blocks(scenario: ValidatedScenario, path_ids: list, seed) -> Iterator[SimulationResult]:
    seed = scenario.seed if seed is None else seed
    special = scenario.schedule.candidate_times
    t = build_time_grid(scenario.horizon, scenario.dt, special)
    event_rows = _grid_rows(t, special, "event time")
    for lo in range(0, len(path_ids), BLOCK_PATHS):
        ids = path_ids[lo : lo + BLOCK_PATHS]
        P = len(ids)
        draws = _draws(scenario, seed, ids, scenario.schedule.n_events)
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
            yield SimulationResult(path, events[j])


def _grid_rows(t: np.ndarray, times, what: str) -> list[int]:
    """Row of each time on the grid t, within _MERGE_TOL."""
    rows = []
    for s in times:
        k = int(np.argmin(np.abs(t - s)))
        if abs(t[k] - s) > _MERGE_TOL:
            raise ValidationError(f"{what} {s} does not lie on the simulation grid")
        rows.append(k)
    return rows


def _draws(scenario: ValidatedScenario, seed: int, paths, n_marks: int):
    """Diffusion generators (P,) and marks xi (P, n_marks, m), eta (P,
    n_marks, n) for the path ids `paths`, each path from its own streams,
    its marks in one draw."""
    P = len(paths)
    xi, eta = np.empty((P, n_marks, scenario.m)), np.empty((P, n_marks, scenario.n))
    gens = list(rngs.streams(seed, rngs.PATH_DIFFUSION, paths))
    for j, rng in enumerate(rngs.streams(seed, rngs.PATH_MARKS, paths)):
        xi[j], eta[j] = scenario.jump_law.sample_marks(rng, n_marks)
    return gens, xi, eta


def _tile_steps(n_paths: int, m: int, n_steps: int) -> int:
    return max(1, min(n_steps, TILE_NORMALS // (n_paths * m)))


def _normals(gens, m: int, n_steps: int) -> Iterator[np.ndarray]:
    """Yield the (P, m) normals of each step in turn.  They are drawn a
    tile of `_tile_steps` steps at a time into one buffer, row j from
    generator j."""
    T = _tile_steps(len(gens), m, n_steps)
    tile = np.empty((len(gens), T, m))
    for lo in range(0, n_steps, T):
        L = min(T, n_steps - lo)
        for j, gen in enumerate(gens):
            gen.standard_normal(out=tile[j, :L])
        yield from tile.swapaxes(0, 1)[:L]


@np.errstate(over="ignore", invalid="ignore")
def _euler(scenario: ValidatedScenario, t: np.ndarray, draws, event_rows, snap_rows, integrands=()):
    """Step the (P, m) block of paths that `draws` gives across the grid t.

    At the rows of a deterministic schedule, event i fires on every path
    with mark i.  At the observation-grid rows of a threshold schedule, the
    labels whose threshold the entering level Y[:, 0] has reached, and that
    have not fired before, fire in label order on those paths.  Thresholds
    fall, so a path's labels fire in the order 0, 1, ..., and label i takes
    the path's i-th mark.  Returns x (S, P, m), y (S, P, n) and the
    trapezoid integrals (S, P, G) at `snap_rows`, which ascend and may
    repeat, and per event the tuple
    (row, label, paths, dy, y_pre, x_pre, xi, eta), with `paths` the block
    rows it fired on and the arrays over those rows.  A non-finite state
    raises NumericalBlowup on arrival at the next event row or at the end:
    inf + a and nan + a are never finite, so it stays non-finite till then.
    A non-finite dy raises it at its event.  numpy's overflow and invalid
    warnings are off, since these checks report the blowup.
    """
    gens, xi_all, eta_all = draws
    P, n_steps, m = len(gens), len(t) - 1, scenario.m
    normals = _normals(gens, m, n_steps)
    sched = scenario.schedule
    thresholds = np.asarray(sched.thresholds) if sched.kind == "threshold" else None
    untriggered = np.ones((P, sched.n_events), dtype=bool)
    at_row: dict[int, list[int]] = {}
    for i, k in enumerate(event_rows):
        at_row.setdefault(k, []).append(i)
    G, S = len(integrands), len(snap_rows)
    x_out, y_out, int_out = np.empty((S, P, m)), np.empty((S, P, scenario.n)), np.empty((S, P, G))
    fired = []

    x = np.broadcast_to(scenario.x0, (P, m)).copy()
    y = np.zeros((P, scenario.n))
    acc = np.zeros((P, G))
    g_prev = _eval_integrands(integrands, x) if G else None
    hs = np.diff(t)
    sqrt_hs = np.sqrt(hs)
    checked = 0  # the row of the last finiteness check
    s = 0  # the next snapshot
    for k in range(n_steps + 1):
        # events fire on arrival at the row, observing the pre-jump state
        if k in at_row:
            checked = _checked(x, t, x_out, snap_rows, checked, k)
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
                if not np.isfinite(dy).all():
                    raise NumericalBlowup(f"observation increment became non-finite at t = {t[k]:.6g}")
                y[paths] = y_pre + dy
                x[paths] = x_pre + np.einsum("pij,pj->pi", scenario.jump_coeff(x_pre), xi)
                fired.append((k, label, np.arange(P)[paths], dy, y_pre, x_pre, xi, eta))
            if G and firing:
                g_prev = _eval_integrands(integrands, x)
        while s < S and snap_rows[s] == k:
            x_out[s], y_out[s] = x, y
            if G:
                int_out[s] = acc
            s += 1
        if k < n_steps:
            x = x + scenario.drift(x) * hs[k] + scenario.diffusion_apply(x, next(normals)) * sqrt_hs[k]
            if G:
                g_now = _eval_integrands(integrands, x)
                acc += 0.5 * hs[k] * (g_prev + g_now)
                g_prev = g_now
    _checked(x, t, x_out, snap_rows, checked, n_steps)
    return x_out, y_out, int_out, fired


def _checked(x: np.ndarray, t: np.ndarray, x_out: np.ndarray, snap_rows, checked: int, row: int) -> int:
    """`row` if the state x there is finite.  Else NumericalBlowup naming the
    stretch since the check at row `checked`, narrowed by the snapshots in it;
    with every row kept, that is the grid time of the first non-finite row."""
    if np.isfinite(x).all():
        return row
    kept = [(k, np.isfinite(x_out[s]).all()) for s, k in enumerate(snap_rows) if checked < k < row]
    lo, hi = max([checked] + [k for k, ok in kept if ok]), min([row] + [k for k, ok in kept if not ok])
    where = f"at t = {t[hi]:.6g}" if hi <= lo + 1 else f"in ({t[lo]:.6g}, {t[hi]:.6g}]"
    raise NumericalBlowup(f"state became non-finite {where}")


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
) -> EnsembleResult:
    """Simulate many paths at once, keeping per-path reproducibility.

    Path p uses the same noise streams as `simulate_path(scenario, p)`, so
    ensemble trajectories agree with single-path runs bit for bit.  Only
    deterministic schedules are supported here; integrands g are (N, m) ->
    (N,) maps accumulated as trapezoid integrals of g(X_s) ds with the
    pre-jump value closing the segment that ends at an event.  The paths
    run in W * ceil(n_paths / (W * CHUNK_PATHS)) equal contiguous chunks,
    W the CPUs the process may use, but no more than leaves each worker
    `FORK_PATHS` paths: the caller steps the first W-th of the chunks and
    a forked worker each other W-th (`_fork_map`).  Each path draws from
    its own streams, so the result does not depend on W.  A chunk holds
    its paths' generators, marks and current states plus one tile of
    normals (`TILE_NORMALS`), not its whole horizon of normals.
    """
    if scenario.schedule.kind != "deterministic":
        raise UnsupportedScenario("run_ensemble supports deterministic schedules only")
    if not isinstance(n_paths, Integral) or n_paths < 0:
        raise ValidationError(f"n_paths must be a nonnegative integer, got {n_paths!r}")

    seed = scenario.seed if seed is None else seed
    event_times = scenario.schedule.times
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
        event_times=np.asarray(event_times, dtype=float),
        **{name: np.empty((n_paths, K, d)) for name, d in dims.items()},
    )

    def chunk(span):
        draws = _draws(scenario, seed, range(*span), K)
        x, _, integrals, fired = _euler(scenario, t, draws, event_rows, ckpt_rows, integrands)
        return x.swapaxes(0, 1), integrals.swapaxes(0, 1), [event[3:] for event in fired]

    workers = _workers(n_paths // FORK_PATHS)
    n_chunks = workers * -(-n_paths // (workers * CHUNK_PATHS))
    spans = [(n_paths * c // n_chunks, n_paths * (c + 1) // n_chunks) for c in range(n_chunks)]
    for (lo, hi), (x, integrals, fired) in zip(spans, _fork_map(chunk, spans, workers)):
        out.x_checkpoints[lo:hi], out.integrals[lo:hi] = x, integrals
        for i, arrays in enumerate(fired):
            for name, value in zip(dims, arrays):
                getattr(out, name)[lo:hi, i] = value
    return out


def _eval_integrands(integrands, x: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(g(x), dtype=float) for g in integrands], axis=1)


# ---------------------------------------------------------------------------
# forked workers


def _workers(shares: int) -> int:
    """The CPUs this process may run on, at most `shares` and at least one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, min(shares, len(affinity(0)) if affinity else os.cpu_count() or 1))


def _fork_map(fn, items, workers: int) -> list:
    """`[fn(item) for item in items]` over `workers` contiguous groups of the
    items: the caller maps the first group and a forked child each other one.

    A child pickles its results, or its exception, into a pipe and leaves
    through `os._exit`.  The caller reads the pipes in group order and
    raises the first error, its own first, so the outcome is the serial one
    when the items are independent; on an error the children still running
    are killed.  Every child is reaped before the call returns or raises.
    Runs serially for one group, without `os.fork`, or with other threads
    alive, which a forked child would not have.
    """
    items = list(items)
    bounds = [len(items) * g // workers for g in range(workers + 1)]
    groups = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if len(groups) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    pids, pipes = [], []
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            with os.fdopen(write, "wb") as reply:
                pid = os.fork()
                if pid == 0:
                    _child(fn, group, reply, pipes)
            pids.append(pid)
        results = [fn(item) for item in groups[0]]
        for pipe in pipes:
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                ok, value = False, ChildProcessError("a forked worker ended without a reply")
            if not ok:
                raise value
            results += value
        return results
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _child(fn, group, reply, pipes) -> None:
    """A forked child of `_fork_map`: write `(True, results)` or
    `(False, error)` to `reply` and exit, running none of the caller's
    cleanup.  An error that does not survive pickling is sent as a
    RuntimeError naming it."""
    try:
        for pipe in pipes:  # the siblings' read ends, and its own
            pipe.close()
        try:
            data = pickle.dumps((True, [fn(item) for item in group]))
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        reply.write(data)
        reply.flush()
    finally:
        os._exit(0)
