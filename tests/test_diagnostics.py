"""Every structural check must accept the true model and reject its
negative control.

Sizes here are trimmed to the smallest counts at which the negative
controls still have power; the acceptance suite reruns the checks at
their default sizes.
"""

import dataclasses
import json

import numpy as np
import pytest

from schedfilt import diagnostics, model
from schedfilt.errors import UnsupportedScenario


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


def test_zakai_passes_and_rejects(ou_scenario):
    rep = diagnostics.check_zakai(ou_scenario, n_runs=2, n_particles=5000)
    assert rep.passed, rep.details
    assert rep.details["compensated_drift"]["worst"] <= 1e-10
    bad = diagnostics.check_zakai(
        ou_scenario, n_runs=2, n_particles=5000, negative_control=True
    )
    assert not bad.passed


def test_zakai_mass_jump_fails_on_unusable_se(ou_scenario, monkeypatch):
    # an SE that overflowed (or is zero) cannot support a t-statistic, so
    # the mass-jump sub-check must fail rather than read t = 0
    run = diagnostics.run_particle_filter

    def broken_se(*args, **kwargs):
        traj = run(*args, **kwargs)
        traj.events[0] = dataclasses.replace(traj.events[0], mass_ratio_se=np.inf)
        return traj

    monkeypatch.setattr(diagnostics, "run_particle_filter", broken_se)
    rep = diagnostics.check_zakai(ou_scenario, n_runs=1, n_particles=500, subchecks=("mass_jump",))
    assert not rep.passed
    assert rep.details["mass_jump"]["rows"][0]["tstat"] == np.inf


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
