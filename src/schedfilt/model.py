"""Model and scenario types.

A scenario bundles the signal dynamics

    dX_t = a(X_t) dt + b(X_t) dB_t + c(X_{t-}) dJ_t,      J_t = sum_i 1{T_i <= t} xi_i,

the observation process, which is piecewise constant and jumps only at the
scheduled times T_i by

    dY_{T_i} = f(X_{T_i-}, Y_{T_i-}) + eta_i,

the joint mark law of (xi_i, eta_i), and the event schedule (deterministic
times or a threshold rule on the observed Y).  Everything is built from
serializable pieces so scenario files round-trip exactly.

Serialization reads the dataclass fields.  `scenario_to_dict` is
`dataclasses.asdict` as JSON data, less the mark-law fields the kind
leaves unset and the schedule fields of the other kind.
`scenario_from_dict` reads each field by its annotation and ignores
unknown keys, except in `filters`; a missing or unreadable field raises
ValidationError.

Mark laws come in two families.  `GaussianMarks` is (xi, eta) jointly
Gaussian with blocks Sxx, Sxe, See, so xi | eta = N(gain eta, cond_cov):
the "gaussian_joint" kind, with "gaussian_product" (Sxe = 0) and
"degenerate_xi_zero" (Sxx = Sxe = 0) as special cases.  `DiscreteMarks`
puts the mark on finitely many atoms, matching an observed eta to the atoms
within match_tol of it.  `mark_law` builds either from a `JumpLawSpec`.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from . import functions
from .errors import (
    HorizonTooShort,
    NegativeDt,
    NonIncreasingTimes,
    NonPSDCovariance,
    UnknownFunctionDescriptor,
    ValidationError,
    ZeroConditionalMass,
)
from .quad import gaussian_quad_points

__all__ = [
    "JumpLawSpec",
    "GaussianMarks",
    "DiscreteMarks",
    "mark_law",
    "Schedule",
    "ModelSpec",
    "FilterSettings",
    "ScenarioConfig",
    "ValidatedScenario",
    "validate",
    "apply_overrides",
    "walk_events",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_to_json",
    "scenario_from_json",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
REPORTING_DT = 0.05  # spacing of every filter's default reporting grid


# ---------------------------------------------------------------------------
# mark laws


@dataclass(frozen=True)
class JumpLawSpec:
    """Serializable description of the i.i.d. mark law of (xi_i, eta_i).

    kind: one of "gaussian_product", "gaussian_joint", "discrete",
    "degenerate_xi_zero".  Fields not used by a kind stay None.
    """

    kind: str
    q: tuple | None = None  # xi covariance (gaussian_product)
    r: tuple | None = None  # eta covariance (gaussian_product, degenerate_xi_zero)
    cov: tuple | None = None  # joint covariance (gaussian_joint)
    points: tuple | None = None  # atoms in R^{m+n} (discrete)
    probs: tuple | None = None  # atom probabilities (discrete)
    match_tol: float = 1e-9  # atom matching tolerance for conditioning


class GaussianMarks:
    """(xi, eta) jointly Gaussian with mean zero and covariance `cov`, whose
    blocks are Sxx, Sxe and See.  Given eta, xi is N(gain eta, cond_cov).

    Marks are drawn as z factor^T with z standard normal of width
    factor.shape[1], so a law may draw fewer normals than it has
    coordinates.  The factor is applied row by row, so that K marks drawn
    in one call are the K marks drawn one at a time: exactly where each
    row of the factor has one nonzero entry, to round-off otherwise.
    """

    eta_has_density = True

    def __init__(self, cov: np.ndarray, factor: np.ndarray, m: int):
        self.m, self._factor = m, factor
        self.Sxx, self.Sxe, self.See = cov[:m, :m], cov[:m, m:], cov[m:, m:]
        self._xi_factor = _psd_factor(self.Sxx)
        self.gain, self.cond_cov, self._cond_factor = np.zeros(self.Sxe.shape), self.Sxx, self._xi_factor
        if self.Sxe.any():
            if np.linalg.matrix_rank(self.See) < self.See.shape[0]:
                raise NonPSDCovariance("a correlated Gaussian mark law needs a nonsingular eta block")
            self.gain = np.linalg.solve(self.See, self.Sxe.T).T
            self.cond_cov = _check_psd(_symmetrize(self.Sxx - self.gain @ self.Sxe.T), "conditional cov")
            self._cond_factor = _psd_factor(self.cond_cov)
        self.xi_is_zero = not self.Sxx.any()

    def sample_marks(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (xi (size, m), eta (size, n)) jointly."""
        z = np.einsum("ij,nj->ni", self._factor, rng.standard_normal((size, self._factor.shape[1])))
        return z[:, : self.m], z[:, self.m :]

    def sample_xi_marginal(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal((size, self.m)) @ self._xi_factor.T

    def sample_xi_given_eta(self, rng: np.random.Generator, eta_hat: np.ndarray) -> np.ndarray:
        """One xi per row of eta_hat (N, n)."""
        eta_hat = np.atleast_2d(np.asarray(eta_hat, dtype=float))
        return eta_hat @ self.gain.T + rng.standard_normal((eta_hat.shape[0], self.m)) @ self._cond_factor.T

    def eta_log_density(self, e: np.ndarray) -> np.ndarray:
        return _gaussian_log_density(np.atleast_2d(np.asarray(e, dtype=float)), self.See)

    def xi_quadrature(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (K, m) and weights (K,) for expectations over the xi marginal:
        the Gauss-Hermite rule of `order` points a coordinate, tensorized
        through a factor of Sxx; a zero xi gives one node at 0."""
        if self.xi_is_zero:
            return np.zeros((1, self.m)), np.ones(1)
        pts, wts = gaussian_quad_points(0.0, 1.0, order)

        def tensor(v):  # (K, m): every combination of one entry of v per coordinate
            return np.stack([g.ravel() for g in np.meshgrid(*([v] * self.m), indexing="ij")], axis=1)

        return tensor(pts) @ self._xi_factor.T, np.prod(tensor(wts), axis=1)


class DiscreteMarks:
    """(xi, eta) on finitely many atoms.  An observed eta matches the atoms
    whose eta lies within match_tol of it in the max norm; eta has a mass
    there, not a density."""

    eta_has_density = False

    def __init__(self, points: np.ndarray, probs: np.ndarray, match_tol: float, m: int):
        self.m = m
        self.points, self.probs, self.match_tol = points, probs, match_tol
        self.xi_is_zero = not points[:, :m].any()

    def _match_weights(self, eta: np.ndarray) -> np.ndarray:
        """(N, L): each atom's probability where it matches the row of eta (N, n), else 0."""
        eta = np.atleast_2d(np.asarray(eta, dtype=float))
        dist = np.max(np.abs(eta[:, None, :] - self.points[None, :, self.m :]), axis=2)
        return (dist <= self.match_tol) * self.probs

    def sample_marks(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        z = self.points[rng.choice(len(self.probs), size=size, p=self.probs)]
        return z[:, : self.m], z[:, self.m :]

    def sample_xi_marginal(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.points[rng.choice(len(self.probs), size=size, p=self.probs), : self.m]

    def conditional_probs(self, eta: np.ndarray) -> np.ndarray:
        """(N, L) law of the atom given each row of eta (N, n)."""
        weights = self._match_weights(eta)
        mass = weights.sum(axis=1)
        if np.any(mass <= 0.0):
            raise ZeroConditionalMass(f"no atom's eta within {self.match_tol} of some observed eta")
        return weights / mass[:, None]

    def sample_xi_given_eta(self, rng: np.random.Generator, eta_hat: np.ndarray) -> np.ndarray:
        """One xi per row of eta_hat (N, n); a row that matches no atom gets
        xi = 0, which keeps the array finite: it carries zero likelihood."""
        weights = self._match_weights(eta_hat)
        mass = weights.sum(axis=1)
        out = np.zeros((weights.shape[0], self.m))
        ok = mass > 0
        if np.any(ok):
            cum = np.cumsum(weights[ok] / mass[ok, None], axis=1)
            u = rng.random(ok.sum())
            out[ok] = self.points[(u[:, None] > cum[:, :-1]).sum(axis=1), : self.m]
        return out

    def eta_log_density(self, e: np.ndarray) -> np.ndarray:
        """Log mass of the atoms that e's rows match."""
        with np.errstate(divide="ignore"):
            return np.log(self._match_weights(e).sum(axis=1))

    def xi_quadrature(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """The xi atoms and their probabilities; `order` is unused."""
        return self.points[:, : self.m], self.probs


def mark_law(spec: JumpLawSpec, m: int, n: int) -> GaussianMarks | DiscreteMarks:
    """Bind a mark-law spec to the model dimensions, checking it."""
    kind = spec.kind
    if kind == "discrete":
        pts = np.asarray(spec.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != m + n:
            raise ValidationError(f"discrete law atoms must have {m + n} columns")
        probs = np.asarray(spec.probs, dtype=float)
        if probs.shape != (pts.shape[0],) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValidationError("discrete law probabilities must be nonnegative and sum to 1")
        return DiscreteMarks(pts, probs, spec.match_tol, m)
    if kind == "gaussian_joint":
        cov = _check_psd(np.asarray(spec.cov, dtype=float).reshape(m + n, m + n), "joint cov")
        return GaussianMarks(cov, _psd_factor(cov), m)
    if kind not in ("gaussian_product", "degenerate_xi_zero"):
        raise ValidationError(f"unknown jump law kind: {kind!r}")
    Q = np.zeros((m, m))
    if kind == "gaussian_product":
        Q = _check_psd(np.asarray(spec.q, dtype=float).reshape(m, m), "Q")
    R = _check_psd(np.asarray(spec.r, dtype=float).reshape(n, n), "R")
    cov = np.block([[Q, np.zeros((m, n))], [np.zeros((n, m)), R]])
    factor = np.block([[_psd_factor(Q), np.zeros((m, n))], [np.zeros((n, m)), _psd_factor(R)]])
    if kind == "degenerate_xi_zero":
        factor = factor[:, m:]  # no normals are drawn for xi
    return GaussianMarks(cov, factor, m)


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class Schedule:
    """Event schedule: fixed times, or thresholds checked on an observation grid.

    `validate` requires every fixed or observation-grid time to lie in
    (0, horizon].  For kind "deterministic", `times` strictly increase.
    For kind "threshold", `thresholds` are strictly decreasing levels
    (theta_K > ... > theta_1, listed in that order) checked against the
    observed Y at grid points; threshold i triggers at the first grid time
    with Y <= theta_i, at most once, never resetting.  Untriggered
    thresholds have event time +inf.
    """

    kind: str
    times: tuple = ()
    thresholds: tuple = ()
    obs_grid: tuple = ()

    @property
    def candidate_times(self) -> tuple:
        """The times an event may fire at: the fixed times, or the
        observation grid of a threshold schedule."""
        return self.times if self.kind == "deterministic" else self.obs_grid

    @property
    def n_events(self) -> int:
        if self.kind == "deterministic":
            return len(self.times)
        return len(self.thresholds)


# ---------------------------------------------------------------------------
# model, filter settings, scenario


@dataclass(frozen=True)
class ModelSpec:
    """Signal/observation model in descriptor form."""

    m: int
    n: int
    x0: tuple
    drift: dict
    diffusion: dict
    jump_coeff: dict
    obs_fn: dict
    jump_law: JumpLawSpec


@dataclass(frozen=True)
class FilterSettings:
    n_particles: int = 20_000
    grid_nodes: int = 2000


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelSpec
    schedule: Schedule
    horizon: float
    dt: float
    seed: int
    filters: FilterSettings = field(default_factory=FilterSettings)
    preset: str = "custom"


@dataclass(frozen=True)
class ValidatedScenario:
    """A checked scenario with compiled coefficient callables.

    Treat as immutable; safe to share across workers.  `config` preserves
    the exact serializable form.
    """

    config: ScenarioConfig
    m: int
    n: int
    x0: np.ndarray
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion_apply: Callable[..., np.ndarray]  # (x, z, out=None) -> B(x) z
    diffusion: Callable[[np.ndarray], np.ndarray]
    jump_coeff: Callable[[np.ndarray], np.ndarray]
    obs_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jump_law: GaussianMarks | DiscreteMarks

    @property
    def schedule(self) -> Schedule:
        return self.config.schedule

    @property
    def horizon(self) -> float:
        return self.config.horizon

    @property
    def dt(self) -> float:
        return self.config.dt

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def filters(self) -> FilterSettings:
        return self.config.filters

    @property
    def reporting_times(self) -> np.ndarray:
        """Default reporting grid: 0 to the horizon in steps of REPORTING_DT."""
        n = int(round(self.horizon / REPORTING_DT))
        return np.linspace(0.0, self.horizon, n + 1)

    def with_overrides(self, **changes: Any) -> "ValidatedScenario":
        """Revalidate with top-level config fields replaced."""
        return validate(apply_overrides(self.config, changes))


def apply_overrides(config: ScenarioConfig, changes: dict[str, Any]) -> ScenarioConfig:
    """Replace config fields; FilterSettings field names go to `config.filters`."""
    filter_fields = {k: v for k, v in changes.items() if hasattr(FilterSettings(), k)}
    config_fields = {k: v for k, v in changes.items() if k not in filter_fields}
    config = replace(config, **config_fields)
    if filter_fields:
        config = replace(config, filters=replace(config.filters, **filter_fields))
    return config


def validate(config: ScenarioConfig) -> ValidatedScenario:
    """Check a scenario and compile its coefficient functions.

    Raises subclasses of ValidationError on malformed input.
    """
    model = config.model
    m, n = model.m, model.n
    if m < 1 or n < 1:
        raise ValidationError("state and observation dimensions must be >= 1")
    if config.dt <= 0:
        raise NegativeDt(f"dt must be positive, got {config.dt}")
    if config.horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {config.horizon}")
    if config.seed < 0:
        raise ValidationError("seed must be nonnegative")

    x0 = np.asarray(model.x0, dtype=float).reshape(-1)
    if x0.shape != (m,):
        raise ValidationError(f"x0 must have length {m}, got {x0.shape}")

    _validate_schedule(config.schedule, config.horizon)
    _validate_filter_settings(config.filters)

    law = mark_law(model.jump_law, m, n)

    offsets = np.array([[-2.0], [-0.5], [0.0], [0.5], [2.0]])
    probe = x0 * (1.0 + 0.1 * offsets) + offsets  # (5, m) states around x0
    matrix_shape = probe.shape[:-1] + (m, m)
    drift = _compile_checked("drift", functions.compile_drift, (model.drift, m), (probe,), probe.shape)
    diffusion = _compile_checked("diffusion", functions.compile_matrix_fn, (model.diffusion, m), (probe,), matrix_shape)
    jump_coeff = _compile_checked("jump_coeff", functions.compile_matrix_fn, (model.jump_coeff, m), (probe,), matrix_shape)
    obs_fn = _compile_checked(
        "obs", functions.compile_obs_fn, (model.obs_fn, m, n), (probe, np.zeros(n)), probe.shape[:-1] + (n,)
    )
    return ValidatedScenario(
        config=config,
        m=m,
        n=n,
        x0=x0,
        drift=drift,
        diffusion_apply=functions.compile_diffusion_apply(model.diffusion, m, diffusion),
        diffusion=diffusion,
        jump_coeff=jump_coeff,
        obs_fn=obs_fn,
        jump_law=law,
    )


def _compile_checked(role: str, compile_fn, args: tuple, probe_args: tuple, expected: tuple):
    """compile_fn(*args), checked to give finite values of shape `expected`
    on probe_args; a malformed descriptor raises UnknownFunctionDescriptor."""
    try:
        fn = compile_fn(*args)
        vals = fn(*probe_args)
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UnknownFunctionDescriptor(f"malformed {role} descriptor: {exc!r}") from exc
    if vals.shape != expected:
        raise UnknownFunctionDescriptor(f"{role} descriptor produced shape {vals.shape}, expected {expected}")
    if not np.all(np.isfinite(vals)):
        raise UnknownFunctionDescriptor(f"{role} descriptor produced non-finite values on probe grid")
    return fn


def _validate_schedule(schedule: Schedule, horizon: float) -> None:
    if schedule.kind == "deterministic":
        times = np.asarray(schedule.times, dtype=float)
        if times.size and (np.any(times <= 0) or np.any(np.diff(times) <= 0)):
            raise NonIncreasingTimes("deterministic times must be strictly increasing and positive")
    elif schedule.kind == "threshold":
        thr = np.asarray(schedule.thresholds, dtype=float)
        if thr.size == 0:
            raise ValidationError("threshold schedule needs at least one threshold")
        if np.any(np.diff(thr) >= 0):
            raise NonIncreasingTimes("thresholds must be strictly decreasing")
        grid = np.asarray(schedule.obs_grid, dtype=float)
        if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise NonIncreasingTimes("observation grid must be strictly increasing and positive")
    else:
        raise ValidationError(f"unknown schedule kind: {schedule.kind!r}")
    last = max(schedule.candidate_times, default=0.0)
    if last > horizon:
        raise HorizonTooShort(f"scheduled time {last} lies past the horizon {horizon}")


def _validate_filter_settings(fs: FilterSettings) -> None:
    if fs.n_particles < 2:
        raise ValidationError("n_particles must be >= 2")
    if fs.grid_nodes < 16:
        raise ValidationError("grid_nodes must be >= 16")


# ---------------------------------------------------------------------------
# the event/reporting walk shared by every filter


def walk_events(events, reporting_times, advance, update, row) -> tuple[list, list, list, list]:
    """Walk a filter through its events and reporting times, recording rows.

    Rows: one "interior" row at t = 0; a "pre" and a "post" row at each
    event, in time order, the post row right after the pre row; an
    "interior" row at each reporting time more than 1e-12 past the previous
    row, so a reporting time at 0, at an event or repeated adds none.
    Events up to 1e-12 past a reporting time come before its row; events
    after the last one are still applied.

    advance(t) moves the filter to t, update(event, index) applies one
    event (index from 1 in time order) and returns its record, and
    row(side) returns the values the filter records at a row.  Returns the
    rows' times (the event or reporting time the walk is at), their sides,
    the values of row and the records of the events in time order.
    """
    pending = sorted(events, key=lambda e: float(e.time))
    times: list[float] = []
    sides: list[str] = []
    rows: list = []
    records: list = []

    def record(t: float, side: str) -> None:
        times.append(t)
        sides.append(side)
        rows.append(row(side))

    t_row, i = 0.0, 0
    record(t_row, "interior")
    for t in [*sorted(float(t) for t in reporting_times), np.inf]:
        while i < len(pending) and float(pending[i].time) <= t + 1e-12:
            t_row = float(pending[i].time)
            advance(t_row)
            record(t_row, "pre")
            records.append(update(pending[i], i + 1))
            record(t_row, "post")
            i += 1
        if np.isfinite(t) and t - t_row > 1e-12:
            advance(t)
            record(t, "interior")
            t_row = t
    return times, sides, rows, records


# ---------------------------------------------------------------------------
# serialization (exact JSON round trip)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    data = json.loads(json.dumps(asdict(config)))  # tuples as lists
    law, sched = data["model"]["jump_law"], data["schedule"]
    data["model"]["jump_law"] = {
        k: v for k, v in law.items() if v is not None and (k != "match_tol" or law["kind"] == "discrete")
    }
    for key in ("thresholds", "obs_grid") if sched["kind"] == "deterministic" else ("times",):
        del sched[key]
    return data


def scenario_from_dict(data: dict) -> ScenarioConfig:
    try:
        return _from_fields(ScenarioConfig, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario dictionary: {exc}") from exc


def scenario_to_json(config: ScenarioConfig) -> str:
    return json.dumps(scenario_to_dict(config), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> ScenarioConfig:
    return scenario_from_dict(json.loads(text))


def _from_fields(cls, data: dict):
    """The dataclass `cls` from `data`, each field read by its annotation."""
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            read = _READERS.get(f.type)
            kwargs[f.name] = data[f.name] if read is None else read(data[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


def _known_fields(cls, data: dict):
    """`_from_fields`, refusing a key that names no field: a misspelt knob
    must not fall back to its default."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise TypeError(f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}")
    return _from_fields(cls, data)


def _integral(value: Any) -> int:
    """An `int` field's value; a number with a fractional part is refused,
    not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


def _nested_tuple(value: Any):
    if isinstance(value, list):
        return tuple(_nested_tuple(v) for v in value)
    return value


# field annotation (a string, under `from __future__ import annotations`) ->
# reader of its JSON value; fields of other types are taken as they are
_READERS: dict[str, Callable[[Any], Any]] = {
    "int": _integral,
    "float": float,
    "tuple": lambda v: tuple(map(_nested_tuple, v)),
    "tuple | None": _nested_tuple,
    **{cls.__name__: partial(_from_fields, cls) for cls in (JumpLawSpec, Schedule, ModelSpec)},
    "FilterSettings": partial(_known_fields, FilterSettings),
}


# ---------------------------------------------------------------------------
# numeric helpers


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _check_psd(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NonPSDCovariance(f"{name} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise NonPSDCovariance(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(_symmetrize(mat))
    if eigvals.size and eigvals.min() < -1e-12 * max(1.0, abs(eigvals.max())):
        raise NonPSDCovariance(f"{name} has negative eigenvalue {eigvals.min()}")
    return _symmetrize(mat)


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = cov, tolerant of zero eigenvalues."""
    cov = _symmetrize(np.asarray(cov, dtype=float))
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(eigvals)


def _gaussian_log_density(e2: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Rows of e2 against N(0, cov); degenerate directions are rejected."""
    d = cov.shape[0]
    eigvals = np.linalg.eigvalsh(_symmetrize(cov))
    if eigvals.min() <= 0:
        raise NonPSDCovariance("density requested for a singular Gaussian")
    chol = np.linalg.cholesky(_symmetrize(cov))
    sol = np.linalg.solve(chol, e2.T)
    quad_form = np.sum(sol**2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * _LOG_2PI + logdet + quad_form)
