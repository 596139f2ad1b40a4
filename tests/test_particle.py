"""Particle ensemble mechanics and both event-update modes.

Small hand-built ensembles give enumeration oracles for the reweighting
algebra; larger runs check the normalized filter against the exact
linear-Gaussian recursion on a shared event sequence.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from schedfilt import kalman, model, particle, simulate
from schedfilt.errors import IncompatibleMethod, NonpositiveR, WeightCollapse
from schedfilt.presets import PRESETS
from schedfilt.quad import gaussian_quad_points
from schedfilt.testfns import clipped_identity


def _hand_ensemble(positions, weights, mode="normalized", seed=7, time=0.5):
    x = np.asarray(positions, dtype=float).reshape(-1, 1)
    w = np.asarray(weights, dtype=float)
    return particle.ParticleEnsemble(
        x=x,
        log_w=np.log(w / w.sum()),
        mode=mode,
        time=time,
        log_mass=0.0,
        rng=np.random.default_rng(seed),
    )


def test_init_ensemble_layout(ou_scenario):
    ens = particle.init_ensemble(ou_scenario, 50)
    assert ens.x.shape == (50, 1)
    np.testing.assert_array_equal(ens.x, np.ones((50, 1)))
    np.testing.assert_allclose(ens.weights, 1.0 / 50, atol=1e-15)
    assert ens.log_mass == 0.0 and ens.time == 0.0
    with pytest.raises(ValueError):
        particle.init_ensemble(ou_scenario, 1)
    with pytest.raises(ValueError):
        particle.init_ensemble(ou_scenario, 10, mode="renormalized")


def test_flat_likelihood_keeps_weights_uniform(ou_scenario):
    # identical positions mean identical likelihoods, so the Bayes step
    # cannot move the weights and the resampler must stay idle
    ens = _hand_ensemble([0.4] * 20, [1.0] * 20)
    rec = particle.ks_update(ens, ou_scenario, dy=[0.9], y_pre=[1.0])
    np.testing.assert_allclose(ens.weights, 0.05, atol=1e-14)
    assert rec.ess_pre == pytest.approx(20.0)
    assert not rec.resampled
    assert ens.log_mass == 0.0


def test_two_atom_bayes_enumeration(ou_scenario):
    # obs increment is x + noise with r = 0.01; two atoms give a
    # closed-form posterior that the update must reproduce exactly
    xs, dy, r = [0.2, 1.0], 0.9, 0.01
    ens = _hand_ensemble(xs, [0.5, 0.5])
    particle.ks_update(ens, ou_scenario, dy=[dy], y_pre=[1.0], resample_threshold=0.0)
    lik = np.exp(-((dy - np.asarray(xs)) ** 2) / (2 * r))
    np.testing.assert_allclose(ens.weights, lik / lik.sum(), atol=1e-12)


def test_three_atom_zakai_mass_oracle(ou_scenario):
    xs, w, dy, r = [0.2, 0.6, 1.1], [0.5, 0.3, 0.2], 0.4, 0.01
    ens = _hand_ensemble(xs, w, mode="unnormalized")
    rec = particle.zakai_update(ens, ou_scenario, dy=[dy], y_pre=[1.0], resample_threshold=0.0)

    dens = norm.pdf(dy - np.asarray(xs), scale=np.sqrt(r))
    ref = norm.pdf(dy, scale=np.sqrt(r))
    ratios = dens / ref
    expect_ratio = float(np.dot(w, ratios))
    assert rec.mass_ratio == pytest.approx(expect_ratio, rel=1e-12)
    assert rec.log_mass_post - rec.log_mass_pre == pytest.approx(np.log(expect_ratio), abs=1e-12)
    assert ens.log_mass == pytest.approx(np.log(expect_ratio), abs=1e-12)
    # delta-method spread of the per-particle ratios around the estimate
    se = np.sqrt(np.sum(np.asarray(w) ** 2 * (ratios - expect_ratio) ** 2))
    assert rec.mass_ratio_se == pytest.approx(float(se), rel=1e-10)
    # conditional weights agree with the normalized-mode Bayes answer
    np.testing.assert_allclose(ens.weights, np.asarray(w) * dens / np.dot(w, dens), atol=1e-12)


def test_gamma_hand_value():
    assert particle.gamma_gaussian(0.8, 0.05, 0.01, 0.9) == pytest.approx(
        -39.52078693205264, abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(
    pm=st.floats(-3, 3),
    pv=st.floats(0, 4),
    r=st.floats(0.01, 4),
    y=st.floats(-5, 5),
)
def test_gamma_matches_density_ratio(pm, pv, r, y):
    got = particle.gamma_gaussian(pm, pv, r, y)
    want = norm.logpdf(y, 0.0, np.sqrt(r)) - norm.logpdf(y, pm, np.sqrt(pv + r))
    assert got == pytest.approx(want, abs=1e-9)


def test_gamma_rejects_bad_variances():
    with pytest.raises(NonpositiveR):
        particle.gamma_gaussian(0.0, 0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        particle.gamma_gaussian(0.0, -0.1, 0.01, 0.5)


def test_exp_gamma_integrates_to_one_under_predictive():
    # integrating exp(gamma) against the predictive law collapses to the
    # reference normal's total mass, which is one
    pm, pv, r = 0.3, 0.02, 0.01
    nodes, wts = gaussian_quad_points(pm, pv + r, 80)
    gam = np.array([particle.gamma_gaussian(pm, pv, r, float(y)) for y in nodes])
    assert float(np.sum(wts * np.exp(gam))) == pytest.approx(1.0, abs=1e-10)
    # the array form is the scalar calls, element for element
    assert np.array_equal(particle.gamma_gaussian(pm, pv, r, nodes), gam)


def test_modes_agree_on_shared_randomness(ou_scenario):
    # same particles, same rng seed: the two update modes must produce
    # identical conditional weights and identical post-jump positions
    rng = np.random.default_rng(11)
    xs = rng.normal(0.8, 0.3, size=40)
    ks_ens = _hand_ensemble(xs, np.full(40, 1.0), mode="normalized", seed=123)
    za_ens = _hand_ensemble(xs, np.full(40, 1.0), mode="unnormalized", seed=123)
    particle.ks_update(ks_ens, ou_scenario, dy=[0.7], y_pre=[1.0])
    particle.zakai_update(za_ens, ou_scenario, dy=[0.7], y_pre=[1.0])
    np.testing.assert_allclose(ks_ens.log_w, za_ens.log_w, atol=1e-12)
    np.testing.assert_array_equal(ks_ens.x, za_ens.x)


def test_update_rejects_wrong_mode(ou_scenario):
    ks_ens = _hand_ensemble([0.5, 0.9], [1.0, 1.0], mode="normalized")
    za_ens = _hand_ensemble([0.5, 0.9], [1.0, 1.0], mode="unnormalized")
    with pytest.raises(IncompatibleMethod):
        particle.zakai_update(ks_ens, ou_scenario, dy=[0.5], y_pre=[1.0])
    with pytest.raises(IncompatibleMethod):
        particle.ks_update(za_ens, ou_scenario, dy=[0.5], y_pre=[1.0])


def _discrete_eta_scenario():
    from schedfilt.presets import PRESETS

    cfg = PRESETS["ou_kalman"]()
    law = model.JumpLawSpec(kind="discrete", points=((0.4, 1.0), (-0.2, -1.0)), probs=(0.5, 0.5))
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, jump_law=law))
    return model.validate(cfg)


def test_atomic_noise_collapses_or_is_rejected():
    scn = _discrete_eta_scenario()
    # noise atoms are at -1 and 1; an increment no particle can explain
    # kills every weight at once
    ens = _hand_ensemble([0.3, 0.5], [1.0, 1.0], mode="normalized")
    with pytest.raises(WeightCollapse):
        particle.ks_update(ens, scn, dy=[0.123], y_pre=[1.0])
    # the unnormalized mode needs a noise density and must refuse atoms
    za = _hand_ensemble([0.3, 0.5], [1.0, 1.0], mode="unnormalized")
    with pytest.raises(IncompatibleMethod):
        particle.zakai_update(za, scn, dy=[0.123], y_pre=[1.0])


def test_systematic_resample_counts():
    w = np.array([0.5, 0.3, 0.2])
    n_out = 10
    reps = 1000
    counts = np.zeros((reps, 3))
    for k in range(reps):
        idx = particle.systematic_resample(np.random.default_rng(k), w, n_out)
        counts[k] = np.bincount(idx, minlength=3)
        # systematic stratification pins every count within one of its target
        assert np.all(np.abs(counts[k] - n_out * w) < 1.0 + 1e-12)
    mean = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - n_out * w) <= 3 * se + 1e-12)


def test_resample_trigger_matches_record(ou_scenario):
    # identical positions keep the Bayes step neutral, so the initial
    # skew is exactly what the resampler sees
    skew = np.array([0.99] + [0.01 / 9] * 9)
    ens = _hand_ensemble([0.4] * 10, skew)
    rec = particle.ks_update(ens, ou_scenario, dy=[0.9], y_pre=[1.0], resample_threshold=0.5)
    assert rec.resampled
    assert rec.ess_pre == pytest.approx(particle.effective_sample_size(skew), rel=1e-10)
    np.testing.assert_allclose(ens.weights, 0.1, atol=1e-14)

    ens2 = _hand_ensemble([0.4] * 10, skew)
    rec2 = particle.ks_update(ens2, ou_scenario, dy=[0.9], y_pre=[1.0], resample_threshold=0.0)
    assert not rec2.resampled
    np.testing.assert_allclose(ens2.weights, skew, atol=1e-12)


def test_ks_filter_tracks_exact_recursion(ou_scenario):
    result = simulate.simulate_path(ou_scenario, path_id=3)
    traj = kalman.run_filter(ou_scenario, result.events, [ou_scenario.horizon])
    pf = particle.run_particle_filter(
        ou_scenario,
        result.events,
        method="ks",
        n_particles=20000,
        phis=(clipped_identity(1e6, name="x"),),
    )
    m_exact = float(traj.means[-1, 0])
    m_pf = float(pf.means[-1, 0])
    se = float(pf.phi_se["x"][-1])
    assert abs(m_pf - m_exact) < max(3.0 * se, 0.01)


def test_zakai_mass_ratio_se_stays_finite():
    # with r = 1e-3 the first increment of path 0 lies far out in the noise
    # law: the mass ratio is about 3.7e190, and its spread taken in linear
    # scale overflowed to an infinite SE
    cfg = PRESETS["ou_kalman"]()
    law = model.JumpLawSpec(kind="gaussian_product", q=((0.04,),), r=((1e-3,),))
    scn = model.validate(dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, jump_law=law)))
    events = simulate.simulate_path(scn, path_id=0).events
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = particle.run_particle_filter(scn, events, method="zakai", n_particles=2000, reporting_times=[])
    assert traj.events[0].mass_ratio > 1e150
    for rec in traj.events:
        assert np.isfinite(rec.mass_ratio_se) and 0.0 < rec.mass_ratio_se < rec.mass_ratio


def test_zakai_filter_matches_ks_estimates(ou_scenario):
    result = simulate.simulate_path(ou_scenario, path_id=3)
    ks = particle.run_particle_filter(ou_scenario, result.events, method="ks", n_particles=20000)
    za = particle.run_particle_filter(ou_scenario, result.events, method="zakai", n_particles=20000)
    # conditional means agree within combined Monte Carlo spread
    diff = abs(float(ks.means[-1, 0]) - float(za.means[-1, 0]))
    assert diff < 0.02
    # normalized runs never accumulate mass; unnormalized runs do
    assert np.all(ks.log_mass == 0.0)
    assert np.isfinite(za.log_mass[-1]) and za.log_mass[-1] != 0.0
    # mass moves only at events
    interior = [lm for lm, s in zip(za.log_mass, za.sides) if s == "interior"]
    post = [lm for lm, s in zip(za.log_mass, za.sides) if s == "post"]
    assert len(set(np.round(post, 12))) >= 1
    changes = np.flatnonzero(np.abs(np.diff(za.log_mass)) > 0)
    for j in changes:
        assert za.sides[j + 1] == "post"
    assert interior  # reporting rows exist between events


def test_estimate_se_agrees_with_bootstrap(rng):
    v = rng.normal(0.0, 1.0, size=4000)
    w = np.full(4000, 1.0 / 4000)
    se_delta = particle.estimate_se(v, w)
    se_boot = particle.bootstrap_se(v, n_boot=400, rng=np.random.default_rng(1))
    assert se_delta == pytest.approx(1.0 / np.sqrt(4000), rel=0.1)
    assert se_boot == pytest.approx(se_delta, rel=0.2)


def test_antithetic_requires_even_count(ou_scenario):
    result = simulate.simulate_path(ou_scenario, path_id=0)
    with pytest.raises(ValueError):
        particle.run_particle_filter(
            ou_scenario, result.events, n_particles=101, antithetic=True
        )


def _reference_propagate(x, rng, scenario, t, t_end, antithetic):
    """The particle Euler loop written out plainly: a fresh (N, m) normal block
    per substep (mirrored halves in antithetic mode) and the (N, m, m)
    diffusion tensor contracted by einsum."""
    n, m = x.shape
    while t < t_end - 1e-12:
        h = min(scenario.dt, t_end - t)
        if antithetic:
            half = rng.standard_normal((n // 2, m))
            z = np.concatenate([half, -half], axis=0)
        else:
            z = rng.standard_normal((n, m))
        x = x + scenario.drift(x) * h + np.sqrt(h) * np.einsum("nij,nj->ni", scenario.diffusion(x), z)
        t += h
    return x


@pytest.mark.parametrize("antithetic", [False, True])
def test_propagate_matches_reference_euler(euler_scenarios, antithetic):
    # 0.1234 is off the dt lattice, so both legs end or start with a
    # partial substep; the second leg also starts from a spread cloud
    legs = (0.1234, 0.25)
    for name, scn in euler_scenarios.items():
        ens = particle.init_ensemble(scn, 64, rng=np.random.default_rng(9))
        if antithetic:
            ens.rng = particle._AntitheticGenerator(ens.rng)
        ref_rng = np.random.default_rng(9)
        x_ref, t = ens.x.copy(), 0.0
        for t_end in legs:
            x_in, x_in_copy = ens.x, ens.x.copy()
            particle.propagate(ens, scn, t_end)
            x_ref = _reference_propagate(x_ref, ref_rng, scn, t, t_end, antithetic)
            t = t_end
            np.testing.assert_array_equal(ens.x, x_ref, err_msg=f"{name} at t={t_end}")
            np.testing.assert_array_equal(x_in, x_in_copy, err_msg=f"{name}: input state was written")
        assert ens.time == legs[-1]
        # the generator is left where the reference left it
        assert ens.rng.random() == ref_rng.random()
