"""Particle approximations of the conditional law.

Two modes share one ensemble type.  The normalized mode reweights by the
measurement-noise likelihood and renormalizes at every event, so the
weighted ensemble tracks the conditional law directly.  The unnormalized
mode multiplies instead by the likelihood ratio

    density_eta(dy - f(x_j, y_pre)) / density_eta(dy),

whose ensemble average is the mass ratio rho_post(1) / rho_pre(1); total
mass is carried in log space and conditional expectations are recovered
as ratios of weighted sums.  Both modes finish an event by drawing the
signal jump from the mark law conditioned on the residual the particle
assigns to measurement noise.

Weights are stored as log-weights normalized to sum to one; the
unnormalized mass lives in a separate scalar, so resampling (systematic,
triggered by low effective sample size) preserves it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rngs
from .errors import (
    IncompatibleMethod,
    NonpositiveR,
    NumericalBlowup,
    ValidationError,
    WeightCollapse,
    ZeroMass,
    ZeroReferenceDensity,
)
from .model import ValidatedScenario, walk_events

__all__ = [
    "ParticleEnsemble",
    "EventRecord",
    "ParticleTrajectory",
    "init_ensemble",
    "propagate",
    "ks_update",
    "zakai_update",
    "gamma_gaussian",
    "effective_sample_size",
    "systematic_resample",
    "estimate_se",
    "bootstrap_se",
    "run_particle_filter",
]

MODES = ("normalized", "unnormalized")


@dataclass
class ParticleEnsemble:
    """Weighted particle cloud at a point in time.

    log_w is kept normalized (logsumexp zero); log_mass accumulates the
    total unnormalized mass, fixed at 0.0 in normalized mode.
    """

    x: np.ndarray  # (N, m)
    log_w: np.ndarray  # (N,)
    mode: str
    time: float
    log_mass: float
    rng: np.random.Generator

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_w)

    def ess(self) -> float:
        return effective_sample_size(self.weights)

    def expectation(self, phi) -> float:
        return float(np.sum(self.weights * np.asarray(phi(self.x)).reshape(self.n)))

    def mean(self) -> np.ndarray:
        return self.weights @ self.x

    def var(self) -> np.ndarray:
        mu = self.mean()
        return self.weights @ (self.x - mu) ** 2


@dataclass(frozen=True)
class EventRecord:
    index: int
    time: float
    ess_pre: float
    resampled: bool
    log_mass_pre: float
    log_mass_post: float
    mass_ratio: float | None  # unnormalized mode: rho_post(1)/rho_pre(1)
    mass_ratio_se: float | None


def init_ensemble(
    scenario: ValidatedScenario,
    n_particles: int,
    seed: int | None = None,
    mode: str = "normalized",
    run_label: int = 0,
    rng: np.random.Generator | None = None,
) -> ParticleEnsemble:
    """All particles at the known initial state, equal weights."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}")
    if n_particles < 2:
        raise ValidationError("need at least two particles")
    if rng is None:
        base = scenario.seed if seed is None else seed
        mode_code = MODES.index(mode)
        rng = rngs.stream(base, rngs.PARTICLES, mode_code, run_label)
    x = np.tile(scenario.x0.astype(float), (n_particles, 1))
    log_w = np.full(n_particles, -np.log(n_particles))
    return ParticleEnsemble(x=x, log_w=log_w, mode=mode, time=0.0, log_mass=0.0, rng=rng)


def propagate(ensemble: ParticleEnsemble, scenario: ValidatedScenario, t_end: float) -> ParticleEnsemble:
    """Euler step every particle forward to t_end; weights unchanged.

    Each substep of length h = min(dt, t_end - t) draws one (N, m)
    standard-normal block z from the ensemble's generator and sets

        x <- x + a(x) h + sqrt(h) B(x) z,

    summed in that order, with B(x) z from `scenario.diffusion_apply`.
    The block is written into one buffer reused across substeps; the
    numbers drawn, and so every trajectory, are those of a fresh
    `standard_normal((N, m))` per substep.
    """
    t = ensemble.time
    if t_end < t - 1e-12:
        raise ValueError(f"cannot propagate backwards from {t} to {t_end}")
    dt = scenario.dt
    drift, diffusion_apply = scenario.drift, scenario.diffusion_apply
    # Work arrays are allocated once: fresh ones of this size every substep
    # cost more than the arithmetic.  The state alternates between x and
    # x_next; x starts as a copy, so the caller's array is never written.
    x = ensemble.x.copy()
    x_next, z, noise = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        ensemble.rng.standard_normal(out=z)
        # the sum above with its terms commuted, which is exact in IEEE
        # arithmetic, so the result is the same bit for bit
        np.multiply(drift(x), h, out=x_next)
        x_next += x
        diffusion_apply(x, z, out=noise)
        noise *= np.sqrt(h)
        x_next += noise
        x, x_next = x_next, x
        t += h
    if not np.all(np.isfinite(x)):
        raise NumericalBlowup(f"particle positions became non-finite near t={t_end}")
    ensemble.x = x
    ensemble.time = float(t_end)
    return ensemble


def _apply_jumps(ensemble: ParticleEnsemble, scenario: ValidatedScenario, eta_hat: np.ndarray) -> None:
    law = scenario.jump_law
    if law.xi_is_zero:
        return
    xi = law.sample_xi_given_eta(ensemble.rng, eta_hat)  # (N, m)
    cmat = scenario.jump_coeff(ensemble.x)  # (N, m, m)
    ensemble.x = ensemble.x + np.einsum("nij,nj->ni", cmat, xi)


def _maybe_resample(ensemble: ParticleEnsemble, threshold: float) -> tuple[float, bool]:
    w = ensemble.weights
    ess = effective_sample_size(w)
    if ess >= threshold * ensemble.n:
        return ess, False
    idx = systematic_resample(ensemble.rng, w, ensemble.n)
    ensemble.x = ensemble.x[idx]
    ensemble.log_w = np.full(ensemble.n, -np.log(ensemble.n))
    return ess, True


def ks_update(
    ensemble: ParticleEnsemble,
    scenario: ValidatedScenario,
    dy: np.ndarray,
    y_pre: np.ndarray,
    resample_threshold: float = 0.5,
    index: int = 0,
) -> EventRecord:
    """Normalized-mode event: Bayes reweight, resample if needed, jump."""
    if ensemble.mode != "normalized":
        raise IncompatibleMethod("ks_update requires a normalized ensemble")
    return _event_update(ensemble, scenario, dy, y_pre, resample_threshold, index, unnormalized=False)


def zakai_update(
    ensemble: ParticleEnsemble,
    scenario: ValidatedScenario,
    dy: np.ndarray,
    y_pre: np.ndarray,
    resample_threshold: float = 0.5,
    index: int = 0,
) -> EventRecord:
    """Unnormalized-mode event: likelihood-ratio reweight, mass tracked."""
    if ensemble.mode != "unnormalized":
        raise IncompatibleMethod("zakai_update requires an unnormalized ensemble")
    if not scenario.jump_law.eta_has_density:
        raise IncompatibleMethod("unnormalized mode needs a measurement-noise density (atomic noise laws are rejected)")
    return _event_update(ensemble, scenario, dy, y_pre, resample_threshold, index, unnormalized=True)


def _event_update(
    ensemble: ParticleEnsemble,
    scenario: ValidatedScenario,
    dy: np.ndarray,
    y_pre: np.ndarray,
    resample_threshold: float,
    index: int,
    unnormalized: bool,
) -> EventRecord:
    law = scenario.jump_law
    dy = np.asarray(dy, dtype=float).reshape(scenario.config.model.n)
    y_pre = np.asarray(y_pre, dtype=float).reshape(scenario.config.model.n)

    eta_hat = dy[None, :] - scenario.obs_fn(ensemble.x, y_pre)  # (N, n)
    loglik = law.eta_log_density(eta_hat)  # (N,)
    log_mass_pre = ensemble.log_mass
    mass_ratio = None
    ratio_se = None

    if unnormalized:
        log_ref = float(law.eta_log_density(dy[None, :])[0])
        if not np.isfinite(log_ref):
            raise ZeroReferenceDensity(f"reference density vanished at dy={dy}")
        # per-particle ratio r_j = exp(loglik_j - log_ref); pre-event weights
        # are normalized, so sum(w r) is the mass ratio and its spread gives
        # the delta-method standard error of that ratio.
        log_wr = ensemble.log_w + loglik
        log_total = _logsumexp(log_wr)
        if not np.isfinite(log_total):
            raise ZeroMass("all particle likelihood ratios vanished")
        # r_j - R = R (exp(loglik_j - log_total) - 1), so the spread is taken
        # relative to R and stays finite where r_j itself would overflow
        w_pre = ensemble.weights
        mass_ratio = float(np.exp(log_total - log_ref))
        ratio_se = mass_ratio * float(np.sqrt(np.sum(w_pre**2 * np.expm1(loglik - log_total) ** 2)))
        ensemble.log_mass = log_mass_pre + log_total - log_ref
        ensemble.log_w = log_wr - log_total
    else:
        log_w = ensemble.log_w + loglik
        log_total = _logsumexp(log_w)
        if not np.isfinite(log_total):
            raise WeightCollapse(f"all particle likelihoods vanished at event {index}")
        ensemble.log_w = log_w - log_total

    ess_pre, resampled = _maybe_resample(ensemble, resample_threshold)
    if resampled:
        eta_hat = dy[None, :] - scenario.obs_fn(ensemble.x, y_pre)
    _apply_jumps(ensemble, scenario, eta_hat)

    return EventRecord(
        index=index,
        time=ensemble.time,
        ess_pre=ess_pre,
        resampled=resampled,
        log_mass_pre=log_mass_pre,
        log_mass_post=ensemble.log_mass,
        mass_ratio=mass_ratio,
        mass_ratio_se=ratio_se,
    )


def gamma_gaussian(pred_mean, pred_var, r: float, y) -> float | np.ndarray:
    """Log ratio of the N(0, r) density to the N(pred_mean, pred_var + r)
    density at y.  pred_var is the pre-event variance of the noiseless
    increment, so pred_var + r is the full predictive variance.

    pred_mean, pred_var and y may be arrays, which broadcast; the result is
    then an array, and a float otherwise.
    """
    if r <= 0.0:
        raise NonpositiveR(f"measurement noise variance must be positive, got {r}")
    if np.any(np.asarray(pred_var) < 0.0):
        raise ValueError(f"predictive variance must be nonnegative, got {pred_var}")
    s = pred_var + r
    gamma = 0.5 * np.log(s / r) - y**2 / (2.0 * r) + (y - pred_mean) ** 2 / (2.0 * s)
    return float(gamma) if np.ndim(gamma) == 0 else gamma


def effective_sample_size(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        return 0.0
    w = w / total
    return float(1.0 / np.sum(w**2))


def systematic_resample(rng: np.random.Generator, weights: np.ndarray, n_out: int) -> np.ndarray:
    """Index vector with one uniform stratified over n_out slots."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    positions = (rng.random() + np.arange(n_out)) / n_out
    cum = np.cumsum(w)
    cum[-1] = 1.0  # roundoff guard for the last slot
    return np.searchsorted(cum, positions, side="left")


def estimate_se(values: np.ndarray, weights: np.ndarray) -> float:
    """Delta-method standard error of the weighted mean sum(w v)/sum(w).

    Large-sample limit of the particle bootstrap; cheap enough to report
    at every time point.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    w = w / w.sum()
    est = np.sum(w * v)
    return float(np.sqrt(np.sum(w**2 * (v - est) ** 2)))


def bootstrap_se(
    values: np.ndarray,
    weights: np.ndarray | None = None,
    n_boot: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Standard error of the weighted mean by multinomial resampling."""
    v = np.asarray(values, dtype=float).reshape(-1)
    n = v.size
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float) / np.sum(weights)
    if rng is None:
        rng = np.random.default_rng(0)
    counts = rng.multinomial(n, w, size=n_boot)  # (n_boot, n)
    means = counts @ v / n
    return float(np.std(means, ddof=1))


@dataclass(frozen=True)
class ParticleTrajectory:
    times: np.ndarray  # (T,)
    sides: list  # "interior" | "pre" | "post"
    means: np.ndarray  # (T, m)
    vars: np.ndarray  # (T, m)
    ess: np.ndarray  # (T,)
    log_mass: np.ndarray  # (T,)
    phi_estimates: dict  # name -> (T,)
    phi_se: dict  # name -> (T,)
    events: list = field(default_factory=list)  # EventRecord
    snapshots: list = field(default_factory=list)  # (t, x, log_w)


def run_particle_filter(
    scenario: ValidatedScenario,
    events,
    method: str = "ks",
    n_particles: int | None = None,
    seed: int | None = None,
    reporting_times=None,
    resample_threshold: float | None = None,
    phis=(),
    run_label: int = 0,
    snapshot_times=(),
    antithetic: bool = False,
) -> ParticleTrajectory:
    """Filter along a realized event sequence.

    events supply (time, dy, y_pre); method "ks" runs the normalized
    filter, "zakai" the unnormalized one.  phis are extra test functions
    recorded with delta-method standard errors at every reported time.
    Rows follow the layout of `model.walk_events`.
    """
    if method not in ("ks", "zakai"):
        raise ValidationError("method must be 'ks' or 'zakai'")
    settings = scenario.filters
    if n_particles is None:
        n_particles = settings.n_particles
    if resample_threshold is None:
        resample_threshold = settings.resample_threshold
    mode = "normalized" if method == "ks" else "unnormalized"
    ens = init_ensemble(scenario, n_particles, seed=seed, mode=mode, run_label=run_label)
    if antithetic:
        ens.rng = _AntitheticGenerator(ens.rng)
        if n_particles % 2:
            raise ValidationError("antithetic propagation needs an even particle count")

    if reporting_times is None:
        reporting_times = scenario.reporting_times
    snap = {round(float(t), 12) for t in snapshot_times}
    event_update = ks_update if method == "ks" else zakai_update

    rows: dict[str, list] = {"t": [], "side": [], "ess": [], "log_mass": []}
    means, variances = [], []
    phi_est = {p.name: [] for p in phis}
    phi_se = {p.name: [] for p in phis}
    event_records: list[EventRecord] = []
    snapshots: list = []

    def update(event, index: int) -> None:
        event_records.append(event_update(ens, scenario, event.dy, event.y_pre, resample_threshold, index=index))

    def emit(side: str) -> None:
        rows["t"].append(ens.time)
        rows["side"].append(side)
        rows["ess"].append(ens.ess())
        rows["log_mass"].append(ens.log_mass)
        means.append(ens.mean())
        variances.append(ens.var())
        w = ens.weights
        for p in phis:
            vals = np.asarray(p(ens.x)).reshape(ens.n)
            phi_est[p.name].append(float(np.sum(w * vals)))
            phi_se[p.name].append(estimate_se(vals, w))
        if round(ens.time, 12) in snap and side != "pre":
            snapshots.append((ens.time, ens.x.copy(), ens.log_w.copy()))

    walk_events(events, reporting_times, lambda t: propagate(ens, scenario, t), update, emit)
    return ParticleTrajectory(
        times=np.asarray(rows["t"]),
        sides=rows["side"],
        means=np.asarray(means),
        vars=np.asarray(variances),
        ess=np.asarray(rows["ess"]),
        log_mass=np.asarray(rows["log_mass"]),
        phi_estimates={k: np.asarray(v) for k, v in phi_est.items()},
        phi_se={k: np.asarray(v) for k, v in phi_se.items()},
        events=event_records,
        snapshots=snapshots,
    )


class _AntitheticGenerator:
    """Mirrors the top half of every normal block onto the bottom half.

    Only standard_normal is paired; other draws pass through.  Used for
    variance reduction in event-free runs where the state is linear in
    the noise.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def standard_normal(self, size=None, out=None):
        if out is None:
            half = self._rng.standard_normal((size[0] // 2,) + tuple(size[1:]))
            return np.concatenate([half, -half], axis=0)
        half = len(out) // 2
        self._rng.standard_normal(out=out[:half])
        np.negative(out[:half], out=out[half:])
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _logsumexp(log_values: np.ndarray) -> float:
    peak = np.max(log_values)
    if not np.isfinite(peak):
        return float(peak)
    return float(peak + np.log(np.sum(np.exp(log_values - peak))))
