"""Monte Carlo and quadrature checks of the structural identities.

Each check builds a CheckReport whose pass flag is recomputable from the
numbers it records.  Negative controls deliberately corrupt one term and
are expected to fail; the test suite asserts both directions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import rngs, simulate, testfns
from .errors import UnsupportedScenario, ValidationError
from .kalman import LinearModelParams, filter_events_vectorized, linear_params_from_scenario
from .model import ValidatedScenario
from .particle import gamma_gaussian, run_particle_filter
from .quad import gaussian_quad_points

__all__ = [
    "CheckReport",
    "check_martingale_Mphi",
    "check_ks_residual",
    "check_zakai",
    "check_compensator",
    "CHECKS",
    "run_checks",
    "report_table",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    statistic: float  # worst-case normalized statistic (|stat|/SE or |stat|/tol)
    tolerance: str  # human-readable pass rule
    sizes: dict
    seed: int
    negative_control: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report as JSON data: numpy scalars and arrays as Python ones."""
        return json.loads(json.dumps(asdict(self), default=lambda v: v.tolist()))


# ---------------------------------------------------------------------------
# martingale of the compensated generator decomposition

_CHECKPOINTS = (0.4, 0.9, 1.4, 2.0)


def check_martingale_Mphi(
    scenario: ValidatedScenario,
    phi: testfns.TestFunction | None = None,
    n_paths: int = 10_000,
    seed: int | None = None,
    negative_control: bool = False,
) -> CheckReport:
    """Sample mean of M_t = phi(X_t) - phi(X_0) - int L phi ds - sum A phi
    must vanish at every checkpoint (3 SE rule), and increments must be
    uncorrelated with the past (regression coefficients within 3 SE).

    The negative control drops the predictable-jump sum, which biases the
    mean by the accumulated expected jump effect once events occur.
    """
    if n_paths < 4:
        raise ValidationError(f"the martingale check's 3-feature regression needs at least 4 paths, got {n_paths}")
    if phi is None:
        phi = testfns.default_battery(scenario.m)[0]
    if seed is None:
        seed = scenario.seed
    checkpoints = tuple(c for c in _CHECKPOINTS if c <= scenario.horizon + 1e-12)
    lphi = testfns.diffusion_generator(phi, scenario)
    aphi = testfns.jump_generator(phi, scenario)

    ens = simulate.run_ensemble(scenario, n_paths, seed, checkpoint_times=checkpoints, integrands=[lphi])
    phi0 = float(np.asarray(phi(scenario.x0[None, :]))[0])
    event_times = ens.event_times
    a_vals = np.zeros((n_paths, len(event_times)))
    for i in range(len(event_times)):
        a_vals[:, i] = np.asarray(aphi(ens.x_pre[:, i]))

    means, ses, per_pass = [], [], []
    m_paths = np.empty((n_paths, len(checkpoints)))
    for j, c in enumerate(checkpoints):
        m_j = np.asarray(phi(ens.x_checkpoints[:, j])) - phi0 - ens.integrals[:, j, 0]
        if not negative_control:
            active = event_times <= c + 1e-12
            if np.any(active):
                m_j = m_j - a_vals[:, active].sum(axis=1)
        m_paths[:, j] = m_j
        mean = float(m_j.mean())
        se = float(m_j.std(ddof=1) / np.sqrt(n_paths))
        means.append(mean)
        ses.append(se)
        per_pass.append(abs(mean) <= 3.0 * se)

    # increment regression: E[M_t - M_s | past] = 0 tested against the
    # coarse past proxy (1, X_s, M_s)
    reg_tstats = []
    for j in range(1, len(checkpoints)):
        d = m_paths[:, j] - m_paths[:, j - 1]
        feats = np.column_stack(
            [np.ones(n_paths), ens.x_checkpoints[:, j - 1, 0], m_paths[:, j - 1]]
        )
        beta, _, rank, _ = np.linalg.lstsq(feats, d, rcond=None)
        if rank < feats.shape[1]:
            raise UnsupportedScenario(
                f"the martingale check's regression on (1, X, M) is rank-deficient at t = {checkpoints[j - 1]:g}: "
                f"phi = {phi.name} is flat over the simulated states"
            )
        resid = d - feats @ beta
        dof = n_paths - feats.shape[1]
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(feats.T @ feats)
        reg_tstats.extend((beta / np.sqrt(np.diag(cov))).tolist())

    ratios = [abs(m) / s if s > 0 else (0.0 if m == 0 else np.inf) for m, s in zip(means, ses)]
    stat = max(ratios + [abs(t) for t in reg_tstats])
    passed = all(per_pass) and all(abs(t) <= 3.0 for t in reg_tstats)
    return CheckReport(
        name="martingale_Mphi",
        passed=passed,
        statistic=float(stat),
        tolerance="|mean M_t| <= 3 SE at every checkpoint; regression |t| <= 3",
        sizes={"n_paths": n_paths, "quad_order_jump": testfns.QUAD_ORDER_JUMP, "phi": phi.name},
        seed=seed,
        negative_control=negative_control,
        details={
            "checkpoints": list(checkpoints),
            "means": means,
            "ses": ses,
            "checkpoint_pass": per_pass,
            "regression_tstats": reg_tstats,
        },
    )


# ---------------------------------------------------------------------------
# filtering-equation residuals on the grid oracle

_H_BASE = 0.04  # the interior step; its half is the second


def check_ks_residual(
    scenario: ValidatedScenario,
    phi: testfns.TestFunction | None = None,
    n_runs: int = 20,
    seed: int | None = None,
    negative_control: bool = False,
) -> CheckReport:
    """Interior and event residuals of the conditional-expectation flow.

    Interior: |pi_{t+h}(phi) - pi_t(phi) - h pi_t(L phi)| must shrink like
    h^2 (halving ratio in [3.2, 4.8]); the ratio is measured on the battery
    function with the largest half-step remainder, since a degenerate
    second-order coefficient carries no order information.  Events: the KS
    equation makes the jump of pi(phi) at T the prior expected signal jump
    pi_{T-}(A phi) plus the observed conditional change S phi(dY) minus its
    predictive average.  The observed change cancels from that balance, so
    what is tested is the tower identity E_pred[S phi(dY)] = pi_{T-}(A phi)
    at each event of a grid filter run: the residual is nu_term - a_term.
    The negative control drops a_term.
    """
    from . import grid

    if phi is None:
        phi = testfns.default_battery(scenario.m)[0]
    if seed is None:
        seed = scenario.seed
    tol = 1e-6 if scenario.jump_law.xi_is_zero else 1e-3
    if negative_control and scenario.jump_law.xi_is_zero:
        raise UnsupportedScenario("the negative control needs a scenario with signal jumps")
    lphi = testfns.diffusion_generator(phi, scenario)
    aphi = testfns.jump_generator(phi, scenario)
    x_nodes = grid.make_grid(scenario)

    # interior Taylor-order ratio on a jump-free stretch from the start.
    # Measured over the whole battery and scored on the function with the
    # largest half-step remainder: a phi whose second-order coefficient
    # nearly vanishes at this t0 cannot measure the order.
    first_event = float(next(iter(scenario.schedule.candidate_times), scenario.horizon))
    t0 = min(0.2, 0.4 * first_event)
    t0 = max(scenario.dt, round(t0 / scenario.dt) * scenario.dt)
    dens0 = grid.init_density(x_nodes, float(scenario.x0[0]))
    base = grid.grid_propagate(dens0, scenario, t0)
    stepped_full = grid.grid_propagate(base, scenario, _H_BASE)
    stepped_half = grid.grid_propagate(base, scenario, _H_BASE / 2.0)
    best = None
    for cand in testfns.default_battery(scenario.m):
        lcand = testfns.diffusion_generator(cand, scenario)
        pairs = []
        for h, stepped in ((_H_BASE, stepped_full), (_H_BASE / 2.0, stepped_half)):
            r = stepped.expectation(cand) - base.expectation(cand) - h * base.expectation(lcand)
            pairs.append(abs(r))
        if best is None or pairs[1] > best[2][1]:
            best = (cand.name, pairs[0] / pairs[1] if pairs[1] > 0 else np.inf, pairs)
    ratio_phi, ratio, resid_h = best
    ratio_ok = 3.2 <= ratio <= 4.8

    # event residuals along simulated observation paths
    a_terms, nu_terms = [], []
    for sim in simulate.simulate_batch(scenario, range(n_runs), seed):
        events = sim.events
        traj = grid.grid_run_filter(
            scenario, events, reporting_times=[], domain=(x_nodes[0], x_nodes[-1]),
            n_nodes=x_nodes.size, collect_densities=True,
        )
        pre = [p for p, side in zip(traj.densities, traj.sides) if side == "pre"]
        for event, p in zip(sorted(events, key=lambda e: float(e.time)), pre):
            dens = grid.GridDensity(x_nodes, p)
            a_terms.append(dens.expectation(aphi))
            nu_terms.append(grid.grid_nu_integral(dens, scenario, phi, float(np.asarray(event.y_pre).reshape(-1)[0])))
    residuals = [nu if negative_control else nu - a for a, nu in zip(a_terms, nu_terms)]
    worst = max((abs(r) for r in residuals), default=0.0)
    passed = ratio_ok and worst <= tol
    return CheckReport(
        name="ks_residual",
        passed=passed,
        statistic=float(max(worst / tol, 0.0)),
        tolerance=f"interior halving ratio in [3.2, 4.8]; |event residual| <= {tol:g}",
        sizes={"n_runs": n_runs, "n_nodes": x_nodes.size, "quad_order_event": grid.QUAD_ORDER_EVENT, "phi": phi.name},
        seed=seed,
        negative_control=negative_control,
        details={
            "interior_residuals": resid_h,
            "interior_ratio": float(ratio),
            "interior_ratio_phi": ratio_phi,
            "interior_ratio_ok": ratio_ok,
            "event_residuals": residuals,
            "a_terms": a_terms,
            "nu_terms": nu_terms,
            "worst_event_residual": float(worst),
            "tol": float(tol),
        },
    )


# ---------------------------------------------------------------------------
# unnormalized-measure structure

_ZAKAI_QUAD_ORDER = 40
_ZAKAI_REF_PATHS = 2000
# the reference-noise lift rises toward its fixed point from below and never
# reaches it; after 8 iterates it stands about 1e-7 relative under it
_LIFT_ITERATES = 8


def check_zakai(
    scenario: ValidatedScenario,
    n_runs: int = 3,
    n_particles: int = 20_000,
    seed: int | None = None,
    negative_control: bool = False,
) -> CheckReport:
    """Three structural facts of the unnormalized filter.

    compensated_drift: the predictive average of (density ratio - 1)
    vanishes at every event (quadrature, 1e-10).  mass_jump: the particle
    mass ratio across an event matches the closed-form density ratio at
    the observed increment (3 SE).  reference_martingale: under the
    reference law (increments i.i.d. noise), the remainder of the
    mass-weighted mean telescopes to zero on average (3 SE; run with a
    boosted noise variance so the estimator has finite variance).

    The negative control doubles the predictive variance inside the
    density-ratio exponent; compensated_drift and mass_jump must then
    reject it.
    """
    params = linear_params_from_scenario(scenario)  # raises IncompatibleMethod
    times = _fixed_event_times(scenario)  # raises UnsupportedScenario
    if seed is None:
        seed = scenario.seed
    r = float(params.R[0, 0])
    sims = list(simulate.simulate_batch(scenario, range(n_runs), seed))
    dys = np.array([[float(np.asarray(e.dy).reshape(-1)[0]) for e in sim.events] for sim in sims]).reshape(n_runs, times.size)
    beliefs = filter_events_vectorized(params, scenario.x0, dys, times)
    pv = (beliefs.pred_var - r) * (2.0 if negative_control else 1.0)  # (K,): noiseless predictive variance

    # compensated drift: the integral of (e^Gamma - 1) against the
    # predictive law, split so each piece gets a matched Gaussian
    # envelope: e^Gamma * f^i is the reference density itself (nodes
    # from N(0, R)), and f^i integrates to one against its own nodes.
    # Both pieces are then exact for Gaussians and the difference
    # probes Gamma pointwise at machine precision.
    nodes, wts = gaussian_quad_points(0.0, r, _ZAKAI_QUAD_ORDER)
    log_ref = -0.5 * nodes**2 / r - 0.5 * np.log(2.0 * np.pi * r)
    pm, s_full = beliefs.pred_mean[:, :, None], beliefs.pred_var[:, None]  # (n_runs, K, 1) and (K, 1)
    gammas = gamma_gaussian(pm, pv[:, None], r, nodes)
    log_fi = -0.5 * (nodes - pm) ** 2 / s_full - 0.5 * np.log(2.0 * np.pi * s_full)
    drift_vals = (np.sum(wts * np.exp(gammas + log_fi - log_ref), axis=-1) - 1.0).ravel().tolist()

    # mass jump: the particle mass ratio across each event against the
    # closed-form density ratio at the observed increment; the runs are
    # independent, so they run on forked workers
    log_expected = -gamma_gaussian(beliefs.pred_mean, pv, r, dys)  # (n_runs, K)

    def mass_jump_rows(run):
        traj = run_particle_filter(
            scenario, sims[run].events, method="zakai", n_particles=n_particles,
            seed=seed, reporting_times=[], run_label=run,
        )
        sides = np.asarray(traj.sides)
        log_ratios = traj.log_mass[sides == "post"] - traj.log_mass[sides == "pre"]
        rows = []
        for i, (rec, log_ratio) in enumerate(zip(traj.events, log_ratios.tolist())):
            expected, rel_se = float(log_expected[run, i]), rec.mass_ratio_rel_se
            # |R - E| / SE with SE = R rel_se, in logs; a zero or non-finite
            # SE or ratio tests nothing, and a gap too wide for a float reads
            # inf: both fail
            testable = 0.0 < rel_se < np.inf and np.isfinite(log_ratio)
            with np.errstate(over="ignore"):
                tstat = float(abs(np.expm1(expected - log_ratio)) / rel_se) if testable else np.inf
            rows.append(
                {
                    "run": run,
                    "event": i + 1,
                    "log_ratio": log_ratio,
                    "log_expected": expected,
                    "relative_se": rel_se,
                    "tstat": tstat,
                }
            )
        return rows

    runs = simulate._fork_map(mass_jump_rows, range(n_runs), simulate._workers(n_runs))
    jump_rows = [row for rows in runs for row in rows]
    drift_worst = max(abs(v) for v in drift_vals) if drift_vals else 0.0
    tmax = max((row["tstat"] for row in jump_rows), default=0.0)
    ref = _reference_martingale_stats(scenario, params, seed)
    ref_ok = all(abs(m) <= 3.0 * s for m, s in zip(ref["means"], ref["ses"]) if s > 0)
    ref_worst = max((abs(m) / (3.0 * s) for m, s in zip(ref["means"], ref["ses"]) if s > 0), default=0.0)
    details = {
        "compensated_drift": {"values": drift_vals, "worst": drift_worst, "passed": drift_worst <= 1e-10},
        "mass_jump": {"rows": jump_rows, "worst_tstat": tmax, "passed": tmax <= 3.0},
        "reference_martingale": {**ref, "passed": ref_ok},
    }
    return CheckReport(
        name="zakai_structure",
        passed=all(d["passed"] for d in details.values()),
        statistic=float(max(0.0, drift_worst / 1e-10, tmax / 3.0, ref_worst)),
        tolerance="drift quadrature <= 1e-10; mass ratio and reference means within 3 SE",
        sizes={
            "n_runs": n_runs,
            "n_particles": n_particles,
            "quad_order": _ZAKAI_QUAD_ORDER,
            "n_ref_paths": _ZAKAI_REF_PATHS,
        },
        seed=seed,
        negative_control=negative_control,
        details=details,
    )


def _reference_martingale_stats(scenario: ValidatedScenario, params: LinearModelParams, seed: int) -> dict:
    """Mean of the telescoped remainder for phi(x) = x under increments
    drawn from the pure-noise law.

    The density-ratio weight has finite variance only when the predictive
    variance stays below twice the noise variance, so the check runs with
    the noise floor lifted to meet that margin; the lifted value is
    recorded.  The lift r <- max(r, 1.3 max(P^-(r) - r)) runs
    _LIFT_ITERATES times; a noise variance already above the margin is
    kept as is.
    For phi(x) = x the time integrals telescope exactly and the
    remainder is the sum of event increments mass * (ratio * post_mean -
    pre_mean).
    """
    times = _fixed_event_times(scenario)
    r_ref = float(params.R[0, 0])
    for _ in range(_LIFT_ITERATES):
        probe = filter_events_vectorized(replace(params, R=[[r_ref]]), scenario.x0, np.zeros((1, len(times))), times)
        r_ref = max(r_ref, 1.3 * float(np.max(probe.pred_var - r_ref)))
    params_ref = replace(params, R=[[r_ref]])

    rng = rngs.stream(seed, rngs.REFERENCE_OBS)
    dys = np.sqrt(r_ref) * rng.standard_normal((_ZAKAI_REF_PATHS, len(times)))
    bel = filter_events_vectorized(params_ref, scenario.x0, dys, times)
    pv = bel.pred_var - r_ref  # (K,) noiseless predictive variance
    gammas = gamma_gaussian(bel.pred_mean, pv, r_ref, dys)  # (_ZAKAI_REF_PATHS, K)
    log_mass_pre = np.concatenate([np.zeros((_ZAKAI_REF_PATHS, 1)), np.cumsum(-gammas, axis=1)[:, :-1]], axis=1)
    increments = np.exp(log_mass_pre) * (np.exp(-gammas) * bel.post_mean - bel.pre_mean)
    m_vals = np.cumsum(increments, axis=1)  # remainder at checkpoints just after each event
    means = m_vals.mean(axis=0)
    ses = m_vals.std(axis=0, ddof=1) / np.sqrt(_ZAKAI_REF_PATHS)
    return {
        "checkpoint_times": times.tolist(),
        "means": means.tolist(),
        "ses": ses.tolist(),
        "reference_noise_variance": r_ref,
    }


def _fixed_event_times(scenario: ValidatedScenario) -> np.ndarray:
    """The schedule's fixed event times, or UnsupportedScenario."""
    sched = scenario.schedule
    if sched.kind != "deterministic" or not sched.times:
        raise UnsupportedScenario("the reference-measure check needs scheduled event times")
    return np.asarray(sched.times, dtype=float)


# ---------------------------------------------------------------------------
# event-measure compensator

_COMPENSATOR_QUAD_ORDER = 24


def check_compensator(
    scenario: ValidatedScenario,
    n_paths: int = 10_000,
    seed: int | None = None,
    negative_control: bool = False,
) -> CheckReport:
    """Realized event sums vs their predictable projections, per weight.

    Pass iff |mean difference| <= 3 paired SE for every weight in the
    battery.  The negative control doubles the predictive variance on the
    projection side, which the quadratic weight must reject.
    """
    if n_paths < 2:
        raise ValidationError(f"the compensator check's paired SE needs at least 2 paths, got {n_paths}")
    if seed is None:
        seed = scenario.seed
    variance_scale = 2.0 if negative_control else 1.0
    params = linear_params_from_scenario(scenario)  # raises IncompatibleMethod
    t1 = next(iter(scenario.schedule.candidate_times), np.inf)  # run_ensemble rejects threshold schedules
    weights = {  # predictable weights W(t, y): constants, moments, one time window
        "one": lambda t, y: np.ones_like(y),
        "y": lambda t, y: y,
        "y_squared": lambda t, y: y**2,
        "y_before_first_event": lambda t, y: y * (1.0 if t <= t1 else 0.0),
    }

    # (W * mu) adds W(T_i, dY_i) over realized events; (W * nu) adds the
    # quadrature of W(T_i, .) against the exact filter's predictive law of dY
    ens = simulate.run_ensemble(scenario, n_paths, seed)
    event_times = ens.event_times
    beliefs = filter_events_vectorized(params, scenario.x0, ens.dy[:, :, 0], event_times)
    mu = {name: np.zeros(n_paths) for name in weights}
    nu = {name: np.zeros(n_paths) for name in weights}
    std_pts, w = gaussian_quad_points(0.0, 1.0, _COMPENSATOR_QUAD_ORDER)
    for i, ti in enumerate(event_times):
        pred_var = beliefs.pred_var[i] * variance_scale
        nodes = beliefs.pred_mean[:, i, None] + np.sqrt(pred_var) * std_pts[None, :]
        for name, fn in weights.items():
            mu[name] += fn(ti, ens.dy[:, i, 0])
            nu[name] += (w[None, :] * fn(ti, nodes)).sum(axis=1)

    rows = {}
    all_pass = True
    stat = 0.0
    for name in weights:
        diffs = mu[name] - nu[name]
        mean = float(diffs.mean())
        se = float(diffs.std(ddof=1) / np.sqrt(len(diffs)))
        ok = abs(mean) <= 3.0 * se if se > 0 else mean == 0.0
        ratio = abs(mean) / se if se > 0 else (0.0 if mean == 0.0 else np.inf)
        rows[name] = {"mean_diff": mean, "se": se, "tstat": ratio, "passed": ok}
        all_pass &= ok
        stat = max(stat, ratio)
    return CheckReport(
        name="compensator",
        passed=bool(all_pass),
        statistic=float(stat),
        tolerance="|mean (W*mu) - (W*nu)| <= 3 paired SE per weight",
        sizes={"n_paths": n_paths, "quad_order": _COMPENSATOR_QUAD_ORDER, "n_events": len(event_times), "variance_scale": variance_scale},
        seed=seed,
        negative_control=negative_control,
        details={"weights": rows},
    )


# ---------------------------------------------------------------------------
# registry


CHECKS = {
    "compensator": check_compensator,
    "martingale": check_martingale_Mphi,
    "ks-residual": check_ks_residual,
    "zakai": check_zakai,
}


def run_checks(scenario: ValidatedScenario, names, seed: int | None = None, negative_control: bool = False, **overrides) -> list:
    reports = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        kwargs = dict(overrides.get(name, {}))
        reports.append(CHECKS[name](scenario, seed=seed, negative_control=negative_control, **kwargs))
    return reports


def report_table(reports) -> str:
    lines = [f"{'check':<22} {'result':<6} {'statistic':>12}  rule"]
    for rep in reports:
        flag = "PASS" if rep.passed else "FAIL"
        tag = " [negative control]" if rep.negative_control else ""
        lines.append(f"{rep.name:<22} {flag:<6} {rep.statistic:>12.4g}  {rep.tolerance}{tag}")
    return "\n".join(lines)
