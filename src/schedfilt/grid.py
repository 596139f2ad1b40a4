"""Deterministic grid filter for scalar scenarios, used as ground truth.

The conditional density lives on a fixed uniform grid.  Event-free
propagation applies a one-step Gaussian transition kernel (mean shifted by
the drift, variance b^2 dt) once per substep.  The kernel is local, so it
is stored as a band: per target node, the weights of the source nodes
within h of it.  An event multiplies by the measurement-noise likelihood,
renormalizes, and then pushes the density through the law of x + c(x) xi
with xi drawn from the mark law conditioned on the residual dy - f(x, y_pre):
a Gaussian band for Gaussian marks, one linear splat per atom for discrete
ones.  The bands of the transition and of the unconditional Gaussian jump
depend only on the scenario, the grid and the step, so the last few built
are kept.

Rows of every kernel are mass-normalized, so propagation conserves mass
by construction; a separate check keeps the outer 2% of nodes below a
mass threshold and raises BoundaryLeak when the domain is too small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rngs
from .errors import BoundaryLeak, NegativeDt, UnsupportedScenario, ValidationError, ZeroLikelihoodMass
from .model import GaussianMarks, ValidatedScenario, walk_events
from .quad import gaussian_quad_points

__all__ = [
    "GridDensity",
    "GridTrajectory",
    "estimate_domain",
    "init_density",
    "grid_propagate",
    "grid_event_update",
    "grid_nu_integral",
    "grid_run_filter",
]

_SMOOTH_SIGMA_FACTOR = 0.7071  # below sigma = 0.7071 dx a sampled Gaussian row aliases
_TAIL_SDS = 8.6  # exp(-8.6**2 / 2) < 2**-53: a kernel row's dropped tail is below round-off
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
    candidate = [t for t in scenario.schedule.candidate_times if t <= horizon + 1e-12]

    x = np.full(n_pilot, float(scenario.x0[0]))
    lo = hi = float(scenario.x0[0])
    law = scenario.jump_law
    t = 0.0
    ci = 0
    while t < horizon - 1e-12:
        while ci < len(candidate) and candidate[ci] <= t + 1e-12:
            if not law.xi_is_zero:
                xi = law.sample_xi_marginal(rng, n_pilot).reshape(n_pilot)
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
    if n_nodes < 16:
        raise ValidationError(f"a grid needs at least 16 nodes, got {n_nodes}")
    if domain is None:
        domain = estimate_domain(scenario)
    lo, hi = domain
    if not hi > lo:
        raise ValidationError(f"empty domain ({lo}, {hi})")
    return np.linspace(lo, hi, n_nodes)


# ---------------------------------------------------------------------------
# kernels


def _pointlike_rows(x: np.ndarray, means: np.ndarray, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sub-grid-scale kernel rows: moment-matched 3-point stencil when it is
    nonnegative, otherwise a 2-point linear splat (mean exact, variance
    within dx^2/4).  Returns the target nodes and weights, (K, 3) each; a
    splat's third weight is zero."""
    G = x.size
    dx = float(x[1] - x[0])
    j = np.clip(np.round((means - x[0]) / dx), 0, G - 1).astype(int)
    delta = (means - x[j]) / dx
    v = (sigmas / dx) ** 2
    s = v + delta**2
    stencil = ((0 < j) & (j < G - 1) & (s >= np.abs(delta)) & (s <= 1.0))[:, None]
    jf = np.clip(np.floor((means - x[0]) / dx), 0, G - 2).astype(int)
    frac = np.clip((means - x[jf]) / dx, 0.0, 1.0)
    targets = np.where(stencil, j[:, None] + [-1, 0, 1], jf[:, None] + [0, 1, 1])
    weights = np.where(
        stencil,
        np.stack([0.5 * (s - delta), 1.0 - v - delta**2, 0.5 * (s + delta)], axis=1),
        np.stack([1.0 - frac, frac, np.zeros_like(frac)], axis=1),
    )
    return targets, weights


def _kernel_rows(x: np.ndarray, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Band of the kernel whose row k spreads unit mass from source k over
    the targets: band[j, h + s] is the weight source j + s puts on target j.

    A row is N(means[k], sigmas[k]^2) on the nodes within _TAIL_SDS sd of
    its mean, normalized; a row with no node there is zero.  Rows with
    sigma below _SMOOTH_SIGMA_FACTOR dx are pointlike stencils."""
    G = x.size
    dx = float(x[1] - x[0])
    k = np.arange(G)
    smooth = sigmas > _SMOOTH_SIGMA_FACTOR * dx
    point_t, point_w = _pointlike_rows(x, means[~smooth], sigmas[~smooth])
    point_s = k[~smooth, None] - point_t
    first = np.maximum(np.ceil((means - _TAIL_SDS * sigmas - x[0]) / dx), 0)
    last = np.minimum(np.floor((means + _TAIL_SDS * sigmas - x[0]) / dx), G - 1)
    hit = smooth & (first <= last)
    h = int(np.max(np.concatenate([last[hit] - k[hit], k[hit] - first[hit], np.abs(point_s).ravel()]), initial=0))
    width = 2 * h + 1
    mu = sliding_window_view(np.pad(np.where(hit, means, np.inf), h, constant_values=np.inf), width)
    sd = sliding_window_view(np.pad(np.where(hit, sigmas, 1.0), h, constant_values=1.0), width)
    z2 = ((x[:, None] - mu) / sd) ** 2
    band = np.exp(-0.5 * z2, where=z2 <= _TAIL_SDS**2, out=np.zeros_like(z2))
    del z2
    source = sliding_window_view(np.arange(G + 2 * h), width)  # padded source index of band[j, s]
    sums = np.bincount(source.ravel(), band.ravel(), minlength=G + 2 * h)
    sums[sums == 0.0] = 1.0
    band /= sliding_window_view(sums, width)
    np.add.at(band, (point_t, point_s + h), point_w)
    return band


def _apply_band(density: GridDensity, band: np.ndarray) -> np.ndarray:
    h = band.shape[1] // 2
    w = density.trapz_weights()
    padded = np.zeros(density.n_nodes + 2 * h)
    padded[h : h + density.n_nodes] = density.p * w
    return np.einsum("js,js->j", band, sliding_window_view(padded, band.shape[1])) / w


_BANDS: dict[tuple, np.ndarray] = {}
_BANDS_MAX = 4


def _memo_band(spec: dict, x: np.ndarray, width: float, build) -> np.ndarray:
    """The band of a time-homogeneous kernel, built by build() on a miss;
    the last _BANDS_MAX bands used are kept."""
    key = (json.dumps(spec, sort_keys=True, default=str), float(x[0]), float(x[-1]), x.size, float(width))
    band = _BANDS.pop(key, None)
    _BANDS[key] = build() if band is None else band
    if len(_BANDS) > _BANDS_MAX:
        del _BANDS[next(iter(_BANDS))]
    return _BANDS[key]


def _transition_band(scenario: ValidatedScenario, x: np.ndarray, dt: float) -> np.ndarray:
    xcol = x[:, None]
    means = x + scenario.drift(xcol)[:, 0] * dt
    sigmas = np.abs(scenario.diffusion(xcol)[:, 0, 0]) * np.sqrt(dt)
    return _kernel_rows(x, means, sigmas)


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
    """Event-free evolution over delta_t: whole substeps (default: the
    scenario's simulation step), then one step of what is left, as the
    particles and the simulator do."""
    _require_scalar(scenario)
    if delta_t < 0:
        raise NegativeDt(f"delta_t must be nonnegative, got {delta_t}")
    if delta_t == 0.0:
        return density.copy()
    if substep is None:
        substep = scenario.dt
    x = density.x
    model = scenario.config.model
    steps = int((delta_t + 1e-9) // substep)
    rest = delta_t - steps * substep
    spec = {"drift": model.drift, "diffusion": model.diffusion}
    band = _memo_band(spec, x, substep, lambda: _transition_band(scenario, x, substep))
    out = density.copy()
    for _ in range(steps):
        out.p = _apply_band(out, band)
    if rest > 1e-9:
        # the rest's width varies by float noise, so it is not memoized
        out.p = _apply_band(out, _transition_band(scenario, x, rest))
    return _check_density(out, "propagation")


# ---------------------------------------------------------------------------
# event updates


def _likelihood(density: GridDensity, scenario: ValidatedScenario, dy: float, y_pre: float) -> tuple[np.ndarray, np.ndarray]:
    f_vals = scenario.obs_fn(density.x[:, None], np.array([y_pre]))[:, 0]
    eta_hat = (dy - f_vals)[:, None]
    return np.exp(scenario.jump_law.eta_log_density(eta_hat)), eta_hat[:, 0]


def _gaussian_jump_band(scenario: ValidatedScenario, x: np.ndarray, eta_hat: np.ndarray | None = None) -> np.ndarray:
    """Band of x -> x + c(x) xi with xi | eta_hat = N(gain eta_hat, sd^2) at
    each node.  With gain 0 it does not depend on eta_hat, so one band per
    scenario and grid serves every event."""
    law = scenario.jump_law
    cvals = scenario.jump_coeff(x[:, None])[:, 0, 0]
    gain, sd = float(law.gain[0, 0]), float(np.sqrt(law.cond_cov[0, 0]))
    if gain == 0.0:
        spec = {"jump": scenario.config.model.jump_coeff}
        return _memo_band(spec, x, sd, lambda: _kernel_rows(x, x, np.abs(cvals) * sd))
    return _kernel_rows(x, x + cvals * (gain * eta_hat), np.abs(cvals) * sd)


def _band_adjoint(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J^T v for the kernel J that `_apply_band` applies to masses."""
    G, h = band.shape[0], band.shape[1] // 2
    source = sliding_window_view(np.arange(G + 2 * h), band.shape[1])
    return np.bincount(source.ravel(), (band * v[:, None]).ravel())[h : h + G]


def _apply_jump_convolution(density: GridDensity, scenario: ValidatedScenario, eta_hat: np.ndarray) -> np.ndarray:
    """Push the density through the conditional signal jump."""
    law = scenario.jump_law
    x = density.x
    if law.xi_is_zero:
        return density.p
    if isinstance(law, GaussianMarks):
        return _apply_band(density, _gaussian_jump_band(scenario, x, eta_hat))

    # discrete: one splat per (node, atom), accumulated in node then atom order
    cvals = scenario.jump_coeff(x[:, None])[:, 0, 0]
    w = density.trapz_weights()
    masses = density.p * w
    live = np.flatnonzero(masses > 0.0)
    cond = law.conditional_probs(eta_hat[live, None])
    rows, atoms = np.nonzero(cond)
    nodes = live[rows]
    targets, weights = _pointlike_rows(x, x[nodes] + cvals[nodes] * law.points[atoms, 0], np.zeros(nodes.size))
    out_m = np.bincount(targets.ravel(), ((masses[nodes] * cond[rows, atoms])[:, None] * weights).ravel(), minlength=x.size)
    return out_m / w


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


def grid_nu_integral(
    density_pre: GridDensity,
    scenario: ValidatedScenario,
    phi,
    y_pre: float,
    order: int | None = None,
) -> float:
    """Integral of S(phi)(y) = E[phi(X_post) | dy = y] - E_pre[phi] against
    the predictive law of dy: Gauss-Hermite nodes anchored at its mean and
    variance, each weighted by the ratio of the predictive density to the
    Gaussian envelope.

    One likelihood product over all nodes gives the predictive density (its
    row sums) and the prior masses q_k.  When the jump band J does not
    depend on eta_hat, E_post,k[phi] = <q_k, J^T phi> / <q_k, J^T 1>;
    otherwise each node gets a full event update.  A node whose predictive
    density, envelope or post-jump mass is zero or non-finite is skipped.
    """
    _require_scalar(scenario)
    law = scenario.jump_law
    if not law.eta_has_density:
        raise UnsupportedScenario("predictive-law integral needs a measurement-noise density")
    if order is None:
        order = scenario.filters.quad_order_event
    x, p = density_pre.x, density_pre.p
    f_vals = scenario.obs_fn(x[:, None], np.array([y_pre]))[:, 0]
    mean_y = float(np.trapezoid(p * f_vals, x))
    var_y = float(np.trapezoid(p * (f_vals - mean_y) ** 2, x)) + float(law.See[0, 0])
    nodes, wts = gaussian_quad_points(mean_y, var_y, order)
    envelope = np.exp(-0.5 * (nodes - mean_y) ** 2 / var_y) / np.sqrt(2.0 * np.pi * var_y)
    eta = (nodes[:, None] - f_vals).reshape(-1, 1)
    q = p * np.exp(law.eta_log_density(eta)).reshape(order, x.size)
    f_i = np.trapezoid(q, x, axis=1)  # predictive density of dy at the nodes
    live = (f_i > 0.0) & (envelope > 0.0)

    post = np.full(order, np.nan)  # E[phi(X_post) | dy = node]
    if law.gain.any():  # the jump band depends on eta_hat: one full update per node
        for k in np.flatnonzero(live):
            try:
                post[k] = grid_event_update(density_pre, scenario, nodes[k], y_pre, check_boundary=False).expectation(phi)
            except ZeroLikelihoodMass:
                continue  # likelihood underflow: the node's weight is negligible anyway
    else:
        phi_vals = np.asarray(phi(x[:, None]), dtype=float).reshape(x.size)
        adj = np.stack([phi_vals, np.ones(x.size)])
        if not law.xi_is_zero:
            band = _gaussian_jump_band(scenario, x)
            adj = np.stack([_band_adjoint(band, v) for v in adj])
        num, den = adj @ (q[live] * density_pre.trapz_weights()).T
        post[live] = np.divide(num, den, out=np.full(num.size, np.nan), where=np.isfinite(den) & (den > 0.0))
    ok = live & np.isfinite(post)
    s_phi = post[ok] - density_pre.expectation(phi)
    return float(np.sum(wts[ok] * s_phi * (f_i[ok] / envelope[ok])))


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
