"""Every structural check must accept the true model and reject its
negative control.

Sizes here are trimmed to the smallest counts at which the negative
controls still have power; the acceptance suite reruns the checks at
their default sizes.
"""

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from schedfilt import cli, diagnostics, model, particle, simulate
from schedfilt.errors import IncompatibleMethod, UnsupportedScenario, ValidationError
from schedfilt.presets import build_preset


def test_compensator_passes_and_rejects(ou_scenario):
    rep = diagnostics.check_compensator(ou_scenario, n_paths=2000)
    assert rep.passed, rep.details
    bad = diagnostics.check_compensator(ou_scenario, n_paths=2000, negative_control=True)
    assert not bad.passed
    assert bad.statistic > rep.statistic


def test_compensator_constant_weight_is_exact(ou_scenario):
    # W = 1 pairs each event with its own predictive mass, so the paired
    # difference is identically zero; this row guards the plumbing
    rep = diagnostics.check_compensator(ou_scenario, n_paths=500)
    row = rep.details["weights"]["one"]
    assert row["mean_diff"] == 0.0


def test_martingale_passes_and_rejects(ou_scenario):
    rep = diagnostics.check_martingale_Mphi(ou_scenario, n_paths=10_000)
    assert rep.passed, rep.details
    bad = diagnostics.check_martingale_Mphi(ou_scenario, n_paths=10_000, negative_control=True)
    assert not bad.passed


def test_ks_residual_passes_and_rejects(ou_scenario):
    rep = diagnostics.check_ks_residual(ou_scenario, n_runs=5)
    assert rep.passed, rep.details
    assert 3.2 <= rep.details["interior_ratio"] <= 4.8
    bad = diagnostics.check_ks_residual(ou_scenario, n_runs=5, negative_control=True)
    assert not bad.passed


def test_ks_residual_control_needs_jumps(ou_scenario):
    law = model.JumpLawSpec(kind="degenerate_xi_zero", r=((0.01,),))
    cfg = ou_scenario.config
    scn = model.validate(
        dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, jump_law=law))
    )
    with pytest.raises(UnsupportedScenario):
        diagnostics.check_ks_residual(scn, n_runs=2, negative_control=True)


@pytest.mark.parametrize(
    "check, n_paths",
    [(diagnostics.check_martingale_Mphi, 1), (diagnostics.check_martingale_Mphi, 3), (diagnostics.check_compensator, 1)],
)
def test_path_checks_refuse_too_few_paths(ou_scenario, check, n_paths):
    # the regression has 3 features and the paired SE needs 2 samples
    with pytest.raises(ValidationError, match="needs at least"):
        check(ou_scenario, n_paths=n_paths)


def test_martingale_on_saturated_phi_is_unsupported(ou_scenario, tmp_path, capsys):
    # tanh is flat at x ~ 1e3, so M_s is constant over the paths and the
    # (1, X_s, M_s) increment regression is rank-deficient
    cfg = ou_scenario.config
    far = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, x0=(1e3,)))
    with pytest.raises(UnsupportedScenario, match="rank-deficient.*tanh"):
        diagnostics.check_martingale_Mphi(model.validate(far), n_paths=4000)

    path = tmp_path / "far.json"
    path.write_text(model.scenario_to_json(far))
    argv = ["diagnose", str(path), "--checks", "martingale", "--paths", "4000", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "rank-deficient" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_zakai_passes_and_rejects(ou_scenario):
    rep = diagnostics.check_zakai(ou_scenario, n_runs=2, n_particles=5000)
    assert rep.passed, rep.details
    assert rep.details["compensated_drift"]["worst"] <= 1e-10
    bad = diagnostics.check_zakai(
        ou_scenario, n_runs=2, n_particles=5000, negative_control=True
    )
    assert not bad.passed


@pytest.mark.parametrize("negative_control", [False, True])
def test_zakai_report_same_on_one_and_two_cpus(ou_scenario, cpus, negative_control):
    # three replicate runs: two CPUs run the second and third on a forked
    # worker, and the report equals the one-CPU report; one run stays in
    # this process
    reports, forks = {}, {}
    for n in (1, 2):
        forks[n] = cpus(n)
        reports[n] = [
            diagnostics.check_zakai(ou_scenario, n_runs=n_runs, n_particles=2000, negative_control=negative_control).to_dict()
            for n_runs in (3, 1)
        ]
    assert [len(forks[1]), len(forks[2])] == [0, 1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert reports[2] == reports[1]
    assert [row["run"] for row in reports[2][0]["details"]["mass_jump"]["rows"]] == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_zakai_mass_jump_fails_on_unusable_se(ou_scenario, monkeypatch):
    # an SE that overflowed (or is zero) cannot support a t-statistic, so
    # the mass-jump sub-check must fail rather than read t = 0
    run = diagnostics.run_particle_filter

    def broken_se(*args, **kwargs):
        traj = run(*args, **kwargs)
        traj.events[0] = dataclasses.replace(traj.events[0], mass_ratio_rel_se=np.inf)
        return traj

    monkeypatch.setattr(diagnostics, "run_particle_filter", broken_se)
    rep = diagnostics.check_zakai(ou_scenario, n_runs=1, n_particles=500)
    assert not rep.passed
    assert not rep.details["mass_jump"]["passed"]
    assert rep.details["mass_jump"]["rows"][0]["tstat"] == np.inf


def test_zakai_refuses_threshold_schedule_before_running(ou_scenario, monkeypatch):
    # the reference sub-check needs fixed event times: a threshold schedule
    # is refused before any path is simulated or particle filter run
    schedule = model.Schedule(kind="threshold", thresholds=(0.0, -0.5), obs_grid=(0.5, 1.0, 1.5))
    threshold = model.validate(dataclasses.replace(ou_scenario.config, schedule=schedule))
    calls = {"simulate_batch": 0, "run_particle_filter": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(simulate, "simulate_batch")
    counted(diagnostics, "run_particle_filter")
    with pytest.raises(UnsupportedScenario, match="scheduled event times"):
        diagnostics.check_zakai(threshold, n_particles=500)
    assert calls == {"simulate_batch": 0, "run_particle_filter": 0}


@pytest.mark.parametrize("x0", [1e3, 1e4])
def test_zakai_mass_jump_is_finite_far_from_zero(ou_scenario, x0):
    # far from 0 both the particle mass ratio and the closed-form one exceed
    # a float; in logs the statistic stays finite.  It need not pass: the
    # Euler paths drift from the continuous-time Kalman reference there
    cfg = ou_scenario.config
    far = model.validate(dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, x0=(x0,))))
    events = simulate.simulate_path(far, path_id=0).events
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = particle.run_particle_filter(far, events, method="zakai", n_particles=5000, reporting_times=[])
        rep = diagnostics.check_zakai(far, n_runs=2, n_particles=5000)
    post = [k for k, side in enumerate(traj.sides) if side == "post"]
    for k, rec in zip(post, traj.events, strict=True):
        assert np.isfinite(traj.log_mass[k]) and 0.0 < rec.mass_ratio_rel_se < np.inf
    assert np.isfinite(rep.details["mass_jump"]["worst_tstat"])


def test_checks_outside_linear_gaussian_are_incompatible(tmp_path, capsys):
    # njode_style observes x^2: both checks that need the exact filter say
    # so with one error type, and the command line exits 3 on it
    njode = build_preset("njode_style")
    with pytest.raises(IncompatibleMethod):
        diagnostics.check_compensator(njode, n_paths=500)
    with pytest.raises(IncompatibleMethod):
        diagnostics.check_zakai(njode, n_runs=1, n_particles=500)
    argv = ["diagnose", "njode_style", "--checks", "zakai", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_reference_noise_lift(ou_scenario):
    # the preset's r = 0.01 is lifted toward the fixed point of
    # r <- 1.3 max(P^-(r) - r) and stops at the 8th iterate, still rising;
    # at r = 1.0 the margin already holds, so the noise is kept
    params = diagnostics.linear_params_from_scenario(ou_scenario)
    lifted = diagnostics._reference_martingale_stats(ou_scenario, params, 0)["reference_noise_variance"]
    assert lifted == pytest.approx(0.152908849, rel=0, abs=5e-10)
    times = np.asarray(ou_scenario.schedule.times, dtype=float)
    probe = diagnostics.filter_events_vectorized(
        dataclasses.replace(params, R=[[lifted]]), ou_scenario.x0, np.zeros((1, times.size)), times
    )
    assert lifted < 1.3 * float(np.max(probe.pred_var - lifted)) < lifted * (1 + 1e-6)

    unit = dataclasses.replace(params, R=[[1.0]])
    assert diagnostics._reference_martingale_stats(ou_scenario, unit, 0)["reference_noise_variance"] == 1.0


def test_reports_are_deterministic(ou_scenario):
    a = diagnostics.check_compensator(ou_scenario, n_paths=500, seed=42)
    b = diagnostics.check_compensator(ou_scenario, n_paths=500, seed=42)
    assert a.to_dict() == b.to_dict()
    c = diagnostics.check_compensator(ou_scenario, n_paths=500, seed=43)
    assert c.details != a.details


def test_report_round_trips_through_json(ou_scenario):
    rep = diagnostics.check_ks_residual(ou_scenario, n_runs=2)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["name"] == "ks_residual" or back["name"] == "ks-residual"
    assert isinstance(back["statistic"], float)
    assert back["passed"] is True


def test_report_to_dict_holds_only_python_types():
    rep = diagnostics.CheckReport(
        name="hand",
        passed=np.bool_(True),
        statistic=np.float64(1.5),
        tolerance="|t| <= 3",
        sizes={"n_paths": np.int64(400), "shape": (2, np.int64(3))},
        seed=np.int64(7),
        details={"means": np.array([0.5, np.inf]), "flags": np.array([True, False]), "se": np.nan, "nested": {"t": np.float64(-np.inf)}},
    )

    def kinds(value):
        if isinstance(value, dict):
            return {type(value)}.union(*(kinds(v) for v in value.values()))
        if isinstance(value, list):
            return {type(value)}.union(*(kinds(v) for v in value))
        return {type(value)}

    data = rep.to_dict()
    assert kinds(data) <= {dict, list, str, bool, int, float}
    assert data["passed"] is True and data["seed"] == 7 and data["sizes"] == {"n_paths": 400, "shape": [2, 3]}
    assert data["details"]["flags"] == [True, False] and data["details"]["means"] == [0.5, float("inf")]
    assert np.isnan(data["details"]["se"]) and data["details"]["nested"]["t"] == -float("inf")
    json.dumps(data)


def test_run_checks_dispatch(ou_scenario):
    reports = diagnostics.run_checks(
        ou_scenario,
        ["compensator"],
        seed=7,
        **{"compensator": {"n_paths": 500}},
    )
    assert len(reports) == 1 and reports[0].name == "compensator"
    with pytest.raises(KeyError):
        diagnostics.run_checks(ou_scenario, ["not-a-check"])


def test_report_table_lines(ou_scenario):
    rep = diagnostics.check_compensator(ou_scenario, n_paths=500)
    table = diagnostics.report_table([rep])
    assert "compensator" in table
    assert ("PASS" in table) or ("FAIL" in table)
