"""Tests of the benchmark's reference recursion, its output checks and its
tracer.  Run from the repository root: python3 -m pytest perfbench -q"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref

OU = ref.PRESETS["ou_kalman"]
CREDIT = ref.PRESETS["credit_risk"]


# -- reference recursion against values worked by hand ----------------------


def test_ou_flow_by_hand():
    # mean e^{-1/2}; variance sig^2/(2 lam) (1 - e^{-1}) with sig = 0.5, lam = 1
    assert ref.ou_flow(OU, 1.0, 0.0, 0.5) == pytest.approx((0.6065306597126334, 0.125 * 0.6321205588285577), rel=1e-14)
    # lam = 0: mean grows by u h, variance by sig^2 h
    assert ref.ou_flow(CREDIT, 0.0, 0.0, 0.25) == pytest.approx((0.019 * 0.25, 0.0625 * 0.25), rel=1e-14)


def test_event_update_by_hand():
    # S = 0.08 + 0.01, gain 8/9, innovation 0.7 - 0.6
    mean, var = ref.event_update(OU, 0.6, 0.08, 0.7, 0.0)
    assert mean == pytest.approx(0.6 + 0.1 * 8 / 9, rel=1e-14)
    assert var == pytest.approx(0.08 / 9 + 0.04, rel=1e-14)
    # credit_risk reads x + 0.3 y: prediction 0.1 + 0.3, S = 0.06, gain 1/3
    mean, var = ref.event_update(CREDIT, 0.1, 0.02, 0.5, 1.0)
    assert mean == pytest.approx(0.1 + 0.1 / 3, rel=1e-14)
    assert var == pytest.approx(0.02 - 0.02 / 3 + 0.01, rel=1e-14)


def test_unconditional_moments_by_hand():
    mean, var = ref.unconditional_moments(OU, 2.0)
    assert mean == pytest.approx(math.exp(-2.0), rel=1e-14)
    # each jump's variance 0.04 decays by e^{-2 (T - t_i)}
    expected = 0.125 * (1 - math.exp(-4.0)) + 0.04 * (math.exp(-3.0) + math.exp(-2.0) + math.exp(-1.0))
    assert var == pytest.approx(expected, rel=1e-14)
    mean, var = ref.unconditional_moments(CREDIT, 1.25)
    assert (mean, var) == pytest.approx((0.019 * 1.25, 0.0625 * 1.25 + 4 * 0.01), rel=1e-14)


def test_filter_rows_composes_flow_and_updates():
    events = [(0.5, 0.7, 0.0)]
    means, variances = ref.filter_rows(OU, events, [0.0, 0.5, 0.5, 1.0], ["interior", "pre", "post", "interior"])
    m_pre, v_pre = ref.ou_flow(OU, 1.0, 0.0, 0.5)
    m_post, v_post = ref.event_update(OU, m_pre, v_pre, 0.7, 0.0)
    assert means.tolist() == [1.0, m_pre, m_post, ref.ou_flow(OU, m_post, v_post, 0.5)[0]]
    assert variances.tolist() == [0.0, v_pre, v_post, ref.ou_flow(OU, m_post, v_post, 0.5)[1]]
    with pytest.raises(ValueError):
        ref.filter_rows(OU, events, [0.0, 0.4], ["interior", "post"])


def test_chi2_bounds_match_tables():
    # chi-square with 10 dof: 2.5% and 97.5% quantiles 3.247 and 20.483;
    # the cube-root approximation is good to about 1% here
    lo, hi = ref.chi2_ratio_bounds(10, 1.959964)
    assert lo * 10 == pytest.approx(3.247, rel=0.01)
    assert hi * 10 == pytest.approx(20.483, rel=0.01)


# -- every check accepts correct output and rejects a perturbed one ---------


def _rows(n=41, horizon=2.0):
    times = np.linspace(0.0, horizon, n)
    return times, 0.5 + 0.1 * np.sin(times), np.full(n, 0.05), np.full(n, 20_000.0)


def test_particle_vs_exact_rejects_shifted_moments():
    times, ref_m, ref_v, ess = _rows()
    rng = np.random.default_rng(0)
    se = np.sqrt(ref_v / ess)
    noisy = ref_m + se * rng.standard_normal(len(times))
    noisy_v = ref_v * (1 + np.sqrt(2 / ess) * rng.standard_normal(len(times)))
    z, problems = checks.particle_vs_exact("t", times, noisy, noisy_v, ess, ref_m, ref_v)
    assert not problems and z < 4
    bad = noisy.copy()
    bad[20] += 8 * se[20]
    assert checks.particle_vs_exact("t", times, bad, noisy_v, ess, ref_m, ref_v)[1]
    # a filter that drops the signal-jump variance 0.04 after an event
    assert checks.particle_vs_exact("t", times, noisy, noisy_v - 0.04 * (times > 1.0), ess, ref_m, ref_v)[1]
    bad[20] = np.nan
    assert checks.particle_vs_exact("t", times, bad, noisy_v, ess, ref_m, ref_v)[1]


def test_particle_pair_rejects_disagreement():
    times, m, v, ess = _rows()
    rng = np.random.default_rng(1)
    se = np.sqrt(v / ess)
    a, b = m + se * rng.standard_normal(len(m)), m + se * rng.standard_normal(len(m))
    assert not checks.particle_pair_agree("t", times, a, v, ess, b, v, ess)[1]
    b[-1] += 12 * se[-1]
    assert checks.particle_pair_agree("t", times, a, v, ess, b, v, ess)[1]


def test_grid_vs_exact_rejects_beyond_tolerance():
    _, m, v, _ = _rows()
    assert not checks.grid_vs_exact("t", m + 5e-4, v - 5e-4, m, v)[1]
    assert checks.grid_vs_exact("t", m + 2e-3, v, m, v)[1]
    assert checks.grid_vs_exact("t", m, v + 2e-3, m, v)[1]


def test_grid_follows_flow_rejects_drift_between_events():
    p = ref.PRESETS["njode_style"]
    times = [0.0, 0.2, 0.4, 0.4, 0.6]
    sides = ["interior", "interior", "pre", "post", "interior"]
    m, v = [0.5], [0.0]
    for k in range(1, len(times)):
        mk, vk = ref.ou_flow(p, m[-1], v[-1], times[k] - times[k - 1])
        if sides[k] == "post":  # an event may move the moments arbitrarily
            mk, vk = mk + 0.3, vk * 0.5
        m.append(mk)
        v.append(vk)
    assert not checks.grid_follows_flow("t", p, times, sides, m, v)[1]
    bad = list(m)
    bad[4] += 1e-3
    assert checks.grid_follows_flow("t", p, times, sides, bad, v)[1]


def _report(name, passed, **details):
    return {"name": name, "passed": passed, "statistic": 1.0, "details": details}


def test_structure_reports_verdicts():
    good_plain = [
        _report("compensator", True, weights={"one": {"mean_diff": 0.0}}),
        _report("ks_residual", True, worst_event_residual=1e-14, tol=1e-3),
        _report("martingale_Mphi", True),
    ]
    assert not checks.structure_reports("t", good_plain, negative=False)
    failing = good_plain[:2] + [_report("martingale_Mphi", False)]
    assert checks.structure_reports("t", failing, negative=False)
    nonzero = [_report("compensator", True, weights={"one": {"mean_diff": 1e-17}})]
    assert checks.structure_reports("t", nonzero, negative=False)
    residual = [_report("ks_residual", True, worst_event_residual=2e-3, tol=1e-3)]
    assert checks.structure_reports("t", residual, negative=False)

    negatives = [_report("compensator", False, weights={}), _report("martingale_Mphi", True)]
    assert checks.structure_reports("t", negatives, negative=True)
    assert not checks.structure_reports("t", negatives, negative=True, powerless=("martingale_Mphi",))


def _batch(n_paths=24, seed=0):
    """Paths on a 0.25 grid over [0, 2] with events at 0.5, 1.0 and 1.5,
    and X_T drawn from the closed-form law of ou_kalman."""
    rng = np.random.default_rng(seed)
    mean, var = ref.unconditional_moments(OU, 2.0)
    t = np.linspace(0.0, 2.0, 9)
    paths, events = [], []
    for p in range(n_paths):
        dy = rng.normal(size=3)
        y = np.zeros(len(t))
        jump = np.zeros(len(t))
        index = np.zeros(len(t))
        for i, te in enumerate((0.5, 1.0, 1.5)):
            k = int(np.argmin(np.abs(t - te)))
            y[k:] += dy[i]
            jump[k], index[k] = 1, i + 1
        x = np.full(len(t), 0.3)
        x[-1] = mean + math.sqrt(var) * rng.standard_normal()
        paths.append(np.column_stack([np.full(len(t), p), t, x, y, jump, index]))
        events.append(np.column_stack([np.full(3, p), [1, 2, 3], [0.5, 1.0, 1.5], dy]))
    return paths, events, (mean, var)


def test_simulated_batch_rejects_each_fault():
    paths, events, moments = _batch()
    sched = OU.event_times
    assert not checks.simulated_batch("t", paths, events, sched, moments)

    def fails(mutate):
        p2, e2 = [a.copy() for a in paths], [a.copy() for a in events]
        mutate(p2, e2)
        return bool(checks.simulated_batch("t", p2, e2, sched, moments))

    def shift_time(p, e):
        e[3][1, 2] += 1e-3

    def y_moves_between_events(p, e):
        p[5][7, 3] += 1e-6

    def y_jump_wrong(p, e):
        e[2][0, 3] += 1e-6

    def row_index_wrong(p, e):
        p[0][4, 5] = 3

    def mean_off(p, e):
        for a in p:
            a[-1, 2] += 1.0

    def variance_off(p, e):
        for a in p:
            a[-1, 2] = moments[0] + 5.0 * (a[-1, 2] - moments[0])

    for mutate in (shift_time, y_moves_between_events, y_jump_wrong, row_index_wrong, mean_off, variance_off):
        assert fails(mutate), mutate.__name__


# -- tracer -----------------------------------------------------------------


@pytest.fixture
def schedfilt_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    try:
        import schedfilt.cli
        import schedfilt.diagnostics  # noqa: F401  (the tracer patches every layer)
        import schedfilt.simulate

        yield schedfilt
    finally:
        sys.path.remove(str(src))


def test_effective_ess_is_floored_by_events():
    sides = ["interior", "pre", "post", "interior", "pre", "post", "interior"]
    ess = [100.0, 90.0, 100.0, 100.0, 80.0, 100.0, 100.0]
    assert checks.effective_ess(sides, ess, [5.0, 50.0]).tolist() == [100.0, 90.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    assert checks.effective_ess(sides, ess, [60.0, 30.0]).tolist() == [100.0, 90.0, 60.0, 60.0, 60.0, 30.0, 30.0]


def test_tracer_catches_calls_inside_the_package(schedfilt_modules, tmp_path, capsys):
    from tracer import Tracer

    cli, simulate = schedfilt_modules.cli, schedfilt_modules.simulate
    original = simulate.simulate_path
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.simulate_path is not original
        assert cli.main(["simulate", "ou_kalman", "--paths", "2", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert cli.simulate_path is original and simulate.simulate_path is original
    metrics = tracer.metrics()
    assert tracer.calls["simulate.simulate_path"] == 2
    assert metrics["simulate.steps"] == 2 * 2000
    assert metrics["cli.bytes_written"] == sum(f.stat().st_size for f in tmp_path.iterdir())
    assert 0 < metrics["cli.main.self_s"] < tracer.busy["cli.main"]
    children = metrics["simulate.simulate_path.busy_s"] + metrics["model.validate.busy_s"]
    assert children + metrics["cli.main.self_s"] == pytest.approx(tracer.busy["cli.main"])


def test_benchmark_json_lists_what_the_runs_report():
    import json

    import run
    import workloads
    from tracer import Tracer

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    traced = {name: run.unit_of(name) for name in Tracer().metrics()}
    traced["trace.op_s_overhead"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "steps_per_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
