"""Deterministic grid filter for scalar scenarios, used as ground truth.

The conditional density lives on a fixed uniform grid.  Event-free
propagation applies one-step Gaussian transition kernels (mean shifted by
the drift, variance b^2 dt); the kernel matrix is time-homogeneous, so
binary powers are cached and a long interval costs a handful of
matrix-vector products.  An event multiplies by the measurement-noise
likelihood, renormalizes, and then pushes the density through the law of
x + c(x) xi with xi drawn from the mark law conditioned on the residual
dy - f(x, y_pre).

Rows of every kernel are mass-normalized, so propagation conserves mass
by construction; a separate check keeps the outer 2% of nodes below a
mass threshold and raises BoundaryLeak when the domain is too small.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import rngs
from .errors import BoundaryLeak, UnsupportedScenario, ZeroLikelihoodMass
from .model import DiscreteDistribution, GaussianDistribution, PointMass, ValidatedScenario, walk_events
from .quad import gaussian_quad_points

__all__ = [
    "GridDensity",
    "GridTrajectory",
    "estimate_domain",
    "init_density",
    "grid_propagate",
    "grid_event_update",
    "grid_S_phi",
    "grid_nu_integral",
    "predictive_density",
    "grid_run_filter",
]

_SMOOTH_SIGMA_FACTOR = 0.7071  # below sigma = 0.7071 dx a sampled Gaussian row aliases
_MAX_POW2 = 64
_BOUNDARY_FRACTION = 0.02
_BOUNDARY_TOL = 1e-6
_MASS_TOL = 1e-8
_INIT_SD_NODES = 3.0  # initial point mass widened to a 3-node Gaussian


@dataclass
class GridDensity:
    x: np.ndarray  # (G,) uniform nodes
    p: np.ndarray  # (G,) density values

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n_nodes(self) -> int:
        return self.x.size

    def trapz_weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    def mass(self) -> float:
        return float(np.trapezoid(self.p, self.x))

    def mean(self) -> float:
        return float(np.trapezoid(self.p * self.x, self.x))

    def var(self) -> float:
        mu = self.mean()
        return float(np.trapezoid(self.p * (self.x - mu) ** 2, self.x))

    def expectation(self, phi) -> float:
        vals = np.asarray(phi(self.x[:, None])).reshape(self.n_nodes)
        return float(np.trapezoid(self.p * vals, self.x))

    def boundary_mass(self) -> float:
        k = max(1, int(np.ceil(_BOUNDARY_FRACTION * self.n_nodes)))
        w = self.trapz_weights()
        return float(np.sum(self.p[:k] * w[:k]) + np.sum(self.p[-k:] * w[-k:]))

    def copy(self) -> "GridDensity":
        return GridDensity(self.x, self.p.copy())


@dataclass(frozen=True)
class GridTrajectory:
    times: np.ndarray
    sides: list
    means: np.ndarray
    vars: np.ndarray
    densities: list | None
    x: np.ndarray


def _require_scalar(scenario: ValidatedScenario) -> None:
    model = scenario.config.model
    if model.m != 1 or model.n != 1:
        raise UnsupportedScenario("the grid filter supports scalar state and observation only")


def estimate_domain(
    scenario: ValidatedScenario,
    halfwidth_sds: float | None = None,
    n_pilot: int = 2048,
    max_steps: int = 400,
) -> tuple[float, float]:
    """Domain from an unconditioned pilot cloud: envelope of mean +/- k sd.

    Jumps are applied unconditionally at every candidate event time, which
    over-spreads relative to the conditional law and errs toward a wide
    domain.  Deterministic for a fixed scenario seed.
    """
    _require_scalar(scenario)
    if halfwidth_sds is None:
        halfwidth_sds = scenario.filters.grid_halfwidth_sds
    rng = rngs.stream(scenario.seed, rngs.PILOT)
    horizon = scenario.horizon
    dt = max(scenario.dt, horizon / max_steps)
    schedule = scenario.schedule
    candidate = schedule.times if schedule.kind == "deterministic" else schedule.obs_grid
    candidate = sorted(t for t in candidate if t <= horizon + 1e-12)

    x = np.full(n_pilot, float(scenario.x0[0]))
    lo = hi = float(scenario.x0[0])
    law = scenario.jump_law
    xi_marg = law.xi_marginal()
    t = 0.0
    ci = 0
    while t < horizon - 1e-12:
        while ci < len(candidate) and candidate[ci] <= t + 1e-12:
            if not law.xi_is_zero():
                xi = xi_marg.sample(rng, n_pilot).reshape(n_pilot)
                cvals = scenario.jump_coeff(x[:, None])[:, 0, 0]
                x = x + cvals * xi
            ci += 1
        h = min(dt, horizon - t)
        z = rng.standard_normal(n_pilot)
        xcol = x[:, None]
        x = x + scenario.drift(xcol)[:, 0] * h + scenario.diffusion(xcol)[:, 0, 0] * np.sqrt(h) * z
        t += h
        mu, sd = float(x.mean()), float(x.std())
        lo = min(lo, mu - halfwidth_sds * sd, float(x.min()))
        hi = max(hi, mu + halfwidth_sds * sd, float(x.max()))
    pad = 0.05 * (hi - lo) + 1e-6
    return lo - pad, hi + pad


def init_density(x_nodes: np.ndarray, x0: float, sd: float | None = None) -> GridDensity:
    """Narrow Gaussian standing in for the point mass at x0."""
    x_nodes = np.asarray(x_nodes, dtype=float)
    if sd is None:
        sd = _INIT_SD_NODES * float(x_nodes[1] - x_nodes[0])
    p = np.exp(-0.5 * ((x_nodes - x0) / sd) ** 2)
    dens = GridDensity(x_nodes, p)
    dens.p /= dens.mass()
    return dens


def make_grid(scenario: ValidatedScenario, n_nodes: int | None = None, domain: tuple[float, float] | None = None) -> np.ndarray:
    _require_scalar(scenario)
    if n_nodes is None:
        n_nodes = scenario.filters.grid_nodes
    if domain is None:
        domain = estimate_domain(scenario)
    lo, hi = domain
    if not hi > lo:
        raise ValueError(f"empty domain ({lo}, {hi})")
    return np.linspace(lo, hi, n_nodes)


# ---------------------------------------------------------------------------
# kernels


def _fill_pointlike_row(row: np.ndarray, x: np.ndarray, mu: float, sigma: float, dx: float) -> None:
    """Sub-grid-scale kernel row: moment-matched 3-point stencil when it is
    nonnegative, otherwise a 2-point linear splat (mean exact, variance
    within dx^2/4)."""
    G = x.size
    j = int(np.clip(round((mu - x[0]) / dx), 0, G - 1))
    delta = (mu - x[j]) / dx
    v = (sigma / dx) ** 2
    if 0 < j < G - 1 and v + delta**2 >= abs(delta) and v + delta**2 <= 1.0:
        row[j - 1] += 0.5 * (v + delta**2 - delta)
        row[j] += 1.0 - v - delta**2
        row[j + 1] += 0.5 * (v + delta**2 + delta)
        return
    jf = int(np.clip(np.floor((mu - x[0]) / dx), 0, G - 2))
    frac = float(np.clip((mu - x[jf]) / dx, 0.0, 1.0))
    row[jf] += 1.0 - frac
    row[jf + 1] += frac


def _kernel_rows(x: np.ndarray, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """(G, G) matrix; row k spreads unit mass from source k over targets."""
    G = x.size
    dx = float(x[1] - x[0])
    K = np.zeros((G, G))
    smooth = sigmas > _SMOOTH_SIGMA_FACTOR * dx
    if np.any(smooth):
        z = (x[None, :] - means[smooth, None]) / sigmas[smooth, None]
        rows = np.exp(-0.5 * z * z)
        sums = rows.sum(axis=1, keepdims=True)
        sums[sums == 0.0] = 1.0
        K[smooth] = rows / sums
    for k in np.nonzero(~smooth)[0]:
        _fill_pointlike_row(K[k], x, float(means[k]), float(sigmas[k]), dx)
    return K


def _apply_kernel(density: GridDensity, K: np.ndarray) -> np.ndarray:
    w = density.trapz_weights()
    masses = density.p * w
    return (masses @ K) / w


class _PowerCache:
    """Binary powers of a one-step transition matrix, built lazily."""

    def __init__(self, K: np.ndarray):
        self.powers = {1: K}

    def power(self, k: int) -> np.ndarray:
        if k not in self.powers:
            half = self.power(k // 2)
            self.powers[k] = half @ half
        return self.powers[k]


_TRANSITION_CACHE: OrderedDict[str, _PowerCache] = OrderedDict()
_TRANSITION_CACHE_MAX = 4


def _scenario_dynamics_key(scenario: ValidatedScenario, x: np.ndarray, dt: float) -> str:
    model = scenario.config.model
    payload = json.dumps(
        {
            "drift": model.drift,
            "diffusion": model.diffusion,
            "lo": float(x[0]),
            "hi": float(x[-1]),
            "nodes": int(x.size),
            "dt": float(dt),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _transition_cache(scenario: ValidatedScenario, x: np.ndarray, dt: float) -> _PowerCache:
    key = _scenario_dynamics_key(scenario, x, dt)
    if key in _TRANSITION_CACHE:
        _TRANSITION_CACHE.move_to_end(key)
        return _TRANSITION_CACHE[key]
    xcol = x[:, None]
    means = x + scenario.drift(xcol)[:, 0] * dt
    sigmas = np.abs(scenario.diffusion(xcol)[:, 0, 0]) * np.sqrt(dt)
    cache = _PowerCache(_kernel_rows(x, means, sigmas))
    _TRANSITION_CACHE[key] = cache
    while len(_TRANSITION_CACHE) > _TRANSITION_CACHE_MAX:
        _TRANSITION_CACHE.popitem(last=False)
    return cache


def _check_density(density: GridDensity, where: str, check_boundary: bool = True) -> GridDensity:
    if not np.all(np.isfinite(density.p)):
        raise ZeroLikelihoodMass(f"non-finite density values after {where}")
    mass = density.mass()
    if not np.isfinite(mass) or mass <= 0.0:
        raise ZeroLikelihoodMass(f"density mass {mass} after {where}")
    density.p /= mass
    if check_boundary:
        leak = density.boundary_mass()
        if leak > _BOUNDARY_TOL:
            raise BoundaryLeak(f"boundary mass {leak:.3e} after {where}; widen the domain")
    return density


def grid_propagate(
    density: GridDensity,
    scenario: ValidatedScenario,
    delta_t: float,
    substep: float | None = None,
) -> GridDensity:
    """Event-free evolution over delta_t, which must be a multiple of the
    substep (default: the scenario's simulation step); any other delta_t
    raises UnsupportedScenario."""
    _require_scalar(scenario)
    if delta_t < 0:
        raise ValueError(f"delta_t must be nonnegative, got {delta_t}")
    if delta_t == 0.0:
        return density.copy()
    if substep is None:
        substep = scenario.dt
    steps = int(round(delta_t / substep))
    if steps < 1 or abs(steps * substep - delta_t) > 1e-9:
        raise UnsupportedScenario(f"delta_t={delta_t} is not a multiple of substep={substep}")
    cache = _transition_cache(scenario, density.x, substep)
    out = density.copy()
    while steps >= _MAX_POW2:
        out.p = _apply_kernel(out, cache.power(_MAX_POW2))
        steps -= _MAX_POW2
    k = 1
    while steps:
        if steps & 1:
            out.p = _apply_kernel(out, cache.power(k))
        steps >>= 1
        k *= 2
    return _check_density(out, "propagation")


# ---------------------------------------------------------------------------
# event updates


def _likelihood(density: GridDensity, scenario: ValidatedScenario, dy: float, y_pre: float) -> tuple[np.ndarray, np.ndarray]:
    f_vals = scenario.obs_fn(density.x[:, None], np.array([y_pre]))[:, 0]
    eta_hat = (dy - f_vals)[:, None]
    return np.exp(scenario.jump_law.eta_log_density(eta_hat)), eta_hat[:, 0]


_JUMP_KERNEL_CACHE: OrderedDict[str, np.ndarray] = OrderedDict()


def _jump_kernel_unconditional(scenario: ValidatedScenario, x: np.ndarray, sd_xi: float) -> np.ndarray:
    """Kernel for x -> x + c(x) xi with xi ~ N(0, sd_xi^2); eta-independent,
    so cacheable per scenario and grid."""
    model = scenario.config.model
    payload = json.dumps(
        {"jump": model.jump_coeff, "lo": float(x[0]), "hi": float(x[-1]), "nodes": int(x.size), "sd": sd_xi},
        sort_keys=True,
        default=str,
    )
    key = hashlib.sha256(payload.encode()).hexdigest()
    if key in _JUMP_KERNEL_CACHE:
        _JUMP_KERNEL_CACHE.move_to_end(key)
        return _JUMP_KERNEL_CACHE[key]
    cvals = scenario.jump_coeff(x[:, None])[:, 0, 0]
    K = _kernel_rows(x, x, np.abs(cvals) * sd_xi)
    _JUMP_KERNEL_CACHE[key] = K
    while len(_JUMP_KERNEL_CACHE) > _TRANSITION_CACHE_MAX:
        _JUMP_KERNEL_CACHE.popitem(last=False)
    return K


def _apply_jump_convolution(density: GridDensity, scenario: ValidatedScenario, eta_hat: np.ndarray) -> np.ndarray:
    """Push the density through the conditional signal jump."""
    law = scenario.jump_law
    x = density.x
    if law.xi_is_zero():
        return density.p

    probe = law.conditional_xi(np.array([0.0])) if law.eta_has_density else None
    if isinstance(probe, GaussianDistribution) and law.spec.kind == "gaussian_product":
        sd = float(np.sqrt(probe.cov[0, 0]))
        if sd == 0.0:
            return density.p
        return _apply_kernel(density, _jump_kernel_unconditional(scenario, x, sd))

    cvals = scenario.jump_coeff(x[:, None])[:, 0, 0]
    w = density.trapz_weights()
    masses = density.p * w
    out_m = np.zeros_like(masses)
    active = masses > 0.0
    if law.spec.kind == "gaussian_joint":
        # conditional law N(slope * eta, s2) per node; s2 shared, mean varies
        g = law.conditional_xi(eta_hat[:1].reshape(1))
        s2 = float(g.cov[0, 0])
        cov = np.asarray(law.spec.cov, dtype=float)
        mu = (cov[0, 1] / cov[1, 1]) * eta_hat
        K = _kernel_rows(x, x + cvals * mu, np.abs(cvals) * np.sqrt(s2))
        return _apply_kernel(density, K)

    if isinstance(law.xi_marginal(), DiscreteDistribution) or law.spec.kind == "discrete":
        dx = density.dx
        for k in np.nonzero(active)[0]:
            cond = law.conditional_xi(np.array([eta_hat[k]]))
            if isinstance(cond, PointMass):
                atoms, probs = cond.points.reshape(1), np.array([1.0])
            else:
                atoms, probs = cond.points[:, 0], cond.probs
            targets = x[k] + cvals[k] * atoms
            for tgt, pr in zip(targets, probs):
                row = np.zeros(x.size)
                _fill_pointlike_row(row, x, float(tgt), 0.0, dx)
                out_m += masses[k] * pr * row
        return out_m / w

    raise UnsupportedScenario(f"grid jump convolution for law kind {law.spec.kind!r}")


def grid_event_update(
    density: GridDensity,
    scenario: ValidatedScenario,
    dy: float,
    y_pre: float,
    check_boundary: bool = True,
) -> GridDensity:
    """Bayes reweight by the noise likelihood, then the conditional jump.

    check_boundary=False is for quadrature over hypothetical observations,
    where far-tail values legitimately push mass to the domain edge but
    enter the integral with negligible weight.
    """
    _require_scalar(scenario)
    lik, eta_hat = _likelihood(density, scenario, float(dy), float(y_pre))
    q = density.p * lik
    mass = float(np.trapezoid(q, density.x))
    if not np.isfinite(mass) or mass <= 0.0:
        raise ZeroLikelihoodMass(f"likelihood update left mass {mass} at dy={dy}")
    posterior = GridDensity(density.x, q / mass)
    posterior.p = _apply_jump_convolution(posterior, scenario, eta_hat)
    return _check_density(posterior, "event update", check_boundary=check_boundary)


def grid_S_phi(
    density_pre: GridDensity,
    scenario: ValidatedScenario,
    phi,
    y: float,
    y_pre: float,
    check_boundary: bool = True,
) -> float:
    """Conditional expected change of phi across an event given dy = y:
    E[phi(X_post) | pre-event law, dy = y] - E_pre[phi].  Shares the exact
    update code, so at the realized dy it reproduces the filter's jump in
    phi-expectation to machine precision."""
    posterior = grid_event_update(density_pre, scenario, y, y_pre, check_boundary=check_boundary)
    return posterior.expectation(phi) - density_pre.expectation(phi)


def predictive_density(density_pre: GridDensity, scenario: ValidatedScenario, y_values: np.ndarray, y_pre: float) -> np.ndarray:
    """Density of the observation increment under the pre-event law."""
    _require_scalar(scenario)
    law = scenario.jump_law
    if not law.eta_has_density:
        raise UnsupportedScenario("predictive density needs a measurement-noise density")
    f_vals = scenario.obs_fn(density_pre.x[:, None], np.array([y_pre]))[:, 0]
    out = np.empty(np.asarray(y_values).size)
    for i, y in enumerate(np.asarray(y_values, dtype=float).reshape(-1)):
        g = np.exp(law.eta_log_density((y - f_vals)[:, None]))
        out[i] = np.trapezoid(density_pre.p * g, density_pre.x)
    return out


def grid_nu_integral(
    density_pre: GridDensity,
    scenario: ValidatedScenario,
    phi,
    y_pre: float,
    order: int | None = None,
) -> float:
    """Integral of S(phi)(y) against the predictive law of dy.

    Gauss-Hermite nodes are anchored at the predictive mean and variance
    of dy under the pre-event density; the integrand carries the ratio of
    the true predictive density to the Gaussian envelope.
    """
    _require_scalar(scenario)
    law = scenario.jump_law
    if not law.eta_has_density:
        raise UnsupportedScenario("predictive-law integral needs a measurement-noise density")
    if order is None:
        order = scenario.filters.quad_order_event
    f_vals = scenario.obs_fn(density_pre.x[:, None], np.array([y_pre]))[:, 0]
    mean_y = float(np.trapezoid(density_pre.p * f_vals, density_pre.x))
    var_f = float(np.trapezoid(density_pre.p * (f_vals - mean_y) ** 2, density_pre.x))
    r = float(law.eta_cov[0, 0])
    var_y = var_f + r
    nodes, wts = gaussian_quad_points(mean_y, var_y, order)
    f_i = predictive_density(density_pre, scenario, nodes, y_pre)
    envelope = np.exp(-0.5 * (nodes - mean_y) ** 2 / var_y) / np.sqrt(2.0 * np.pi * var_y)
    total = 0.0
    for y_k, w_k, fi_k, env_k in zip(nodes, wts, f_i, envelope):
        if fi_k <= 0.0 or env_k <= 0.0:
            continue
        try:
            s_k = grid_S_phi(density_pre, scenario, phi, float(y_k), y_pre, check_boundary=False)
        except ZeroLikelihoodMass:
            continue  # likelihood underflow: the node's weight is negligible anyway
        total += w_k * s_k * (fi_k / env_k)
    return total


def grid_run_filter(
    scenario: ValidatedScenario,
    events,
    reporting_times=None,
    substep: float | None = None,
    n_nodes: int | None = None,
    domain: tuple[float, float] | None = None,
    collect_densities: bool = False,
) -> GridTrajectory:
    """Full filtering pass along a realized event sequence; rows follow the
    layout of `model.walk_events`."""
    _require_scalar(scenario)
    x_nodes = make_grid(scenario, n_nodes=n_nodes, domain=domain)
    dens = init_density(x_nodes, float(scenario.x0[0]))
    if substep is None:
        substep = scenario.dt
    if reporting_times is None:
        reporting_times = scenario.reporting_times

    t_cur = 0.0
    rows_t: list[float] = []
    sides: list[str] = []
    means: list[float] = []
    variances: list[float] = []
    densities: list[np.ndarray] | None = [] if collect_densities else None

    def advance(t_target: float) -> None:
        nonlocal t_cur, dens
        if t_target - t_cur > 1e-12:
            dens = grid_propagate(dens, scenario, t_target - t_cur, substep)
            t_cur = t_target

    def update(event, index: int) -> None:
        nonlocal dens
        dy, y_pre = (float(np.asarray(v).reshape(-1)[0]) for v in (event.dy, event.y_pre))
        dens = grid_event_update(dens, scenario, dy, y_pre)

    def emit(side: str) -> None:
        rows_t.append(t_cur)
        sides.append(side)
        means.append(dens.mean())
        variances.append(dens.var())
        if densities is not None:
            densities.append(dens.p.copy())

    walk_events(events, reporting_times, advance, update, emit)
    return GridTrajectory(
        times=np.asarray(rows_t),
        sides=sides,
        means=np.asarray(means).reshape(-1, 1),
        vars=np.asarray(variances).reshape(-1, 1),
        densities=densities,
        x=x_nodes,
    )
