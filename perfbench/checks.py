"""Output checks.  Each takes plain arrays and returns a list of problems,
empty when the output is correct, so that tests can feed a perturbed
output to every check and see it rejected."""

from __future__ import annotations

import math

import numpy as np

import reference as ref

# Particle means against the exact filter, as |mean - exact| / sqrt(var / ESS).
# The ESS a row reports ignores the duplicates resampling leaves, so after
# a degenerate event (ESS 380 of 20,000 on one njode_style path) that SE
# runs far too low: over 48 linear-preset runs it gave z up to 6.9 on
# correct output, and KS against Zakai gave 8.3.  `effective_ess` caps each
# row's ESS by the smallest pre-event ESS so far; with it the same runs
# stay below z = 3.3 (3.75 with variances too, over another 48 runs), and
# a bound of 6 leaves room for the rest.
PARTICLE_Z = 6.0
# Acceptance criterion 1: grid means and variances within 1e-3 of exact.
GRID_TOL = 1e-3
# Grid moments between events against the closed-form OU flow; a probe
# found 3.4e-6 on njode_style.
GRID_FLOW_TOL = 1e-4
# Sample mean and variance of X_T against the closed form, at this normal
# quantile (two-sided tail about 2e-9 per test).
SAMPLE_Z = 6.0


def finite(name: str, *arrays) -> list[str]:
    """A problem if any array holds a NaN or an infinity."""
    return [f"{name}: non-finite values"] if any(not np.all(np.isfinite(a)) for a in arrays) else []


def effective_ess(sides, ess, event_ess_pre) -> np.ndarray:
    """Row ESS capped by the smallest pre-event ESS of the events applied
    up to that row (one "post" row per event, in time order)."""
    out = np.asarray(ess, dtype=float).copy()
    floor, k = math.inf, 0
    for i, side in enumerate(sides):
        if side == "post":
            floor = min(floor, float(event_ess_pre[k]))
            k += 1
        out[i] = min(out[i], floor)
    return out


def particle_vs_exact(label: str, times, means, variances, ess, ref_means, ref_vars) -> tuple[float, list[str]]:
    """Largest z of particle means and variances against the exact filter,
    over t > 0.  The law is Gaussian, so a variance estimate from ESS
    particles has SE var * sqrt(2 / ESS)."""
    times, means, variances, ess = (np.asarray(a, dtype=float) for a in (times, means, variances, ess))
    problems = finite(label, means, variances, ess)
    if problems:
        return math.inf, problems
    rows = times > 1e-12
    ref_m, ref_v, n = np.asarray(ref_means)[rows], np.asarray(ref_vars)[rows], ess[rows]
    z_mean = np.abs(means[rows] - ref_m) / np.sqrt(ref_v / n)
    z_var = np.abs(variances[rows] - ref_v) / (ref_v * np.sqrt(2.0 / n))
    worst = float(max(z_mean.max(), z_var.max()))
    if worst > PARTICLE_Z:
        what = "mean" if z_mean.max() >= z_var.max() else "variance"
        problems.append(f"{label}: particle {what} off the exact filter by z={worst:.2f} > {PARTICLE_Z}")
    return worst, problems


def particle_pair_agree(label: str, times, means_a, vars_a, ess_a, means_b, vars_b, ess_b) -> tuple[float, list[str]]:
    """Largest z between two independent particle estimates of one mean."""
    times = np.asarray(times, dtype=float)
    arrays = [np.asarray(a, dtype=float) for a in (means_a, vars_a, ess_a, means_b, vars_b, ess_b)]
    problems = finite(label, *arrays)
    if problems:
        return math.inf, problems
    ma, va, ea, mb, vb, eb = arrays
    rows = times > 1e-12
    se = np.sqrt(va[rows] / ea[rows] + vb[rows] / eb[rows])
    z = np.abs(ma[rows] - mb[rows]) / se
    worst = float(z.max())
    if worst > PARTICLE_Z:
        problems.append(f"{label}: KS and Zakai means differ by z={worst:.2f} > {PARTICLE_Z}")
    return worst, problems


def grid_vs_exact(label: str, means, variances, ref_means, ref_vars, tol: float = GRID_TOL) -> tuple[float, list[str]]:
    """Largest |dm| or |dP| of the grid against the exact filter."""
    means, variances = np.asarray(means, dtype=float), np.asarray(variances, dtype=float)
    problems = finite(label, means, variances)
    if problems:
        return math.inf, problems
    worst = float(max(np.max(np.abs(means - ref_means)), np.max(np.abs(variances - ref_vars))))
    if worst > tol:
        problems.append(f"{label}: grid moments off the exact filter by {worst:.3e} > {tol:g}")
    return worst, problems


def grid_follows_flow(label: str, preset: ref.LinearPreset, times, sides, means, variances) -> tuple[float, list[str]]:
    """Between events the mean and variance of any law under a linear SDE
    follow the closed-form flow; check every consecutive pair of rows that
    has no event update between them."""
    times, means, variances = (np.asarray(a, dtype=float) for a in (times, means, variances))
    problems = finite(label, means, variances)
    if problems:
        return math.inf, problems
    worst = 0.0
    for k in range(1, len(times)):
        if sides[k] == "post":
            continue
        m, v = ref.ou_flow(preset, means[k - 1], variances[k - 1], times[k] - times[k - 1])
        worst = max(worst, abs(means[k] - m), abs(variances[k] - v))
    if worst > GRID_FLOW_TOL:
        problems.append(f"{label}: grid moments leave the OU flow between events by {worst:.3e} > {GRID_FLOW_TOL:g}")
    return worst, problems


def structure_reports(label: str, reports: list[dict], negative: bool, powerless: tuple = ()) -> list[str]:
    """Verdicts of one check battery, from CheckReport.to_dict() output.

    Plain checks must pass and negative controls must fail, except the
    controls named in `powerless`, which cannot fail at the benchmark's
    sizes.  The compensator's constant-weight row must be exactly 0, and
    the worst KS event residual within its tolerance.
    """
    problems = []
    for rep in reports:
        name = rep["name"]
        if negative and rep["passed"] and name not in powerless:
            problems.append(f"{label}: negative control of {name} passed")
        if not negative and not rep["passed"]:
            problems.append(f"{label}: {name} failed (statistic {rep['statistic']:.4g})")
        if name == "compensator" and not negative:
            one = rep["details"]["weights"]["one"]["mean_diff"]
            if one != 0.0:
                problems.append(f"{label}: compensator constant-weight row is {one!r}, not exactly 0")
        if name == "ks_residual" and not negative:
            worst, tol = rep["details"]["worst_event_residual"], rep["details"]["tol"]
            if not worst <= tol:
                problems.append(f"{label}: worst KS event residual {worst:.3e} above {tol:g}")
    return problems


def simulated_batch(
    label: str,
    paths: list[np.ndarray],
    events: list[np.ndarray],
    schedule: tuple | None,
    moments: tuple[float, float] | None,
) -> list[str]:
    """Check a `schedfilt simulate` batch read back from its CSV files.

    paths[p] has columns (path_id, t, x, y, is_jump_time, event_index) and
    events[p] has (path_id, i, T_i, dY).  Event times must equal the
    schedule (when one is given), y must change only at event rows and
    there by that event's dY, and the sample mean and variance of X_T must
    match `moments` (when given).
    """
    problems = []
    for p, (path, ev) in enumerate(zip(paths, events)):
        where = f"{label} path {p}"
        if schedule is not None and not np.array_equal(ev[:, 2], np.asarray(schedule, dtype=float)):
            problems.append(f"{where}: event times {ev[:, 2].tolist()} differ from the schedule {list(schedule)}")
            continue
        rows = np.nonzero(path[:, 4] == 1)[0]
        if not np.array_equal(path[rows, 1], ev[:, 2]) or not np.array_equal(path[rows, 5], ev[:, 1]):
            problems.append(f"{where}: event rows do not match the events file")
            continue
        dy = np.diff(path[:, 3])
        moved = np.zeros(len(dy), dtype=bool)
        moved[rows - 1] = True
        if np.any(dy[~moved] != 0.0):
            problems.append(f"{where}: y changes between events")
        scale = 1e-12 * max(1.0, float(np.max(np.abs(path[:, 3]))))
        if np.any(np.abs(dy[rows - 1] - ev[:, 3]) > scale):
            problems.append(f"{where}: y jumps differ from the events' dY")
    if moments is not None and not problems:
        x_end = np.array([path[-1, 2] for path in paths])
        n = len(x_end)
        mean, var = moments
        z_mean = abs(x_end.mean() - mean) / math.sqrt(var / n)
        lo, hi = ref.chi2_ratio_bounds(n - 1, SAMPLE_Z)
        ratio = x_end.var(ddof=1) / var
        if z_mean > SAMPLE_Z:
            problems.append(f"{label}: sample mean of X_T off the closed form by z={z_mean:.2f} > {SAMPLE_Z}")
        if not lo <= ratio <= hi:
            problems.append(f"{label}: sample variance of X_T is {ratio:.3f} x the closed form, outside [{lo:.3f}, {hi:.3f}]")
    return problems
