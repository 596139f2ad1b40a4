"""Closed-form filter: hand values, textbook oracle, structural laws."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedfilt import kalman, model, simulate
from schedfilt.errors import IncompatibleMethod
from schedfilt.presets import PRESETS, build_preset


def _belief(t, m, p):
    return kalman.GaussianBelief(time=t, mean=np.array([m]), cov=np.array([[p]]))


@pytest.fixture(scope="module")
def ou_params(request):
    return kalman.linear_params_from_scenario(build_preset("ou_kalman"))


# ---------------------------------------------------------------------------
# interior propagation

def test_propagate_matches_closed_form(ou_params):
    # lam=1, sigma=0.5: P_t -> 0.125 + (P0 - 0.125) e^{-2 lam dt}
    out = kalman.propagate(_belief(0.0, 1.0, 0.2), ou_params, 0.3)
    assert float(out.mean[0]) == pytest.approx(0.7408182206817179, abs=1e-12)
    assert float(out.cov[0, 0]) == pytest.approx(0.166160872707052, abs=1e-12)


def test_propagate_zero_rate_branch():
    p = dataclasses.replace(
        kalman.linear_params_from_scenario(build_preset("ou_kalman")),
        lam=np.zeros((1, 1)),
        drift_const=np.array([0.25]),
    )
    out = kalman.propagate(_belief(0.0, 1.0, 0.2), p, 0.4)
    assert float(out.mean[0]) == pytest.approx(1.0 + 0.25 * 0.4, abs=1e-12)
    assert float(out.cov[0, 0]) == pytest.approx(0.2 + 0.25 * 0.4, abs=1e-12)


def test_matrix_propagation_against_ode_solver():
    # 2-D moment flow vs an independent stiff-tolerance ODE solve
    from scipy.integrate import solve_ivp

    lam = np.array([[1.0, 0.3], [0.0, 0.5]])
    sig = np.array([[0.4, 0.0], [0.1, 0.3]])
    params = kalman.LinearModelParams(
        lam=lam, sigma_x=sig, A=np.eye(2), C=np.zeros((2, 2)),
        Q=0.01 * np.eye(2), R=0.01 * np.eye(2), drift_const=np.array([0.2, -0.1]),
    )
    m0 = np.array([1.0, -1.0])
    p0 = np.array([[0.2, 0.05], [0.05, 0.1]])
    belief = kalman.GaussianBelief(0.0, m0, p0)
    out = kalman.propagate(belief, params, 0.7)

    def rhs(_, state):
        m = state[:2]
        p = state[2:].reshape(2, 2)
        dm = -lam @ m + np.array([0.2, -0.1])
        dp = -lam @ p - p @ lam.T + sig @ sig.T
        return np.concatenate([dm, dp.reshape(-1)])

    sol = solve_ivp(rhs, (0.0, 0.7), np.concatenate([m0, p0.reshape(-1)]),
                    rtol=1e-11, atol=1e-13)
    ref_m = sol.y[:2, -1]
    ref_p = sol.y[2:, -1].reshape(2, 2)
    np.testing.assert_allclose(out.mean, ref_m, atol=1e-8)
    np.testing.assert_allclose(out.cov, ref_p, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    d1=st.floats(0.01, 0.8),
    d2=st.floats(0.01, 0.8),
    m0=st.floats(-2.0, 2.0),
    p0=st.floats(0.01, 0.5),
)
def test_propagation_semigroup(d1, d2, m0, p0):
    params = kalman.linear_params_from_scenario(build_preset("ou_kalman"))
    one = kalman.propagate(_belief(0.0, m0, p0), params, d1 + d2)
    two = kalman.propagate(kalman.propagate(_belief(0.0, m0, p0), params, d1), params, d2)
    assert float(one.mean[0]) == pytest.approx(float(two.mean[0]), abs=1e-12)
    assert float(one.cov[0, 0]) == pytest.approx(float(two.cov[0, 0]), abs=1e-12)


# ---------------------------------------------------------------------------
# event update, hand-checked numbers

def test_event_update_hand_example(ou_params):
    # m-=0.6, P-=0.05, R=0.01, Q=0.04, dy=0.94: v=0.34, S=0.06, K=5/6,
    # post mean 53/60, post var 1/24 + 1/25
    _, up = kalman.jump_update(_belief(0.5, 0.6, 0.05), ou_params, np.array([0.94]), np.zeros(1))
    assert float(up.innovation[0]) == pytest.approx(0.34, abs=1e-15)
    assert float(up.innovation_cov[0, 0]) == pytest.approx(0.06, abs=1e-15)
    assert float(up.gain[0, 0]) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert float(up.mean_post[0]) == pytest.approx(53.0 / 60.0, abs=1e-14)
    assert float(up.cov_post[0, 0]) == pytest.approx(29.0 / 600.0, abs=1e-14)


def test_event_update_other_ordering(ou_params):
    # jump first: gain built from P- + Q = 0.09, S = 0.10, K = 0.9
    _, up = kalman.jump_update(
        _belief(0.5, 0.6, 0.05), ou_params, np.array([0.94]), np.zeros(1),
        ordering="jump_then_observe",
    )
    assert float(up.innovation_cov[0, 0]) == pytest.approx(0.10, abs=1e-15)
    assert float(up.gain[0, 0]) == pytest.approx(0.9, abs=1e-15)
    assert float(up.mean_post[0]) == pytest.approx(0.906, abs=1e-14)
    assert float(up.cov_post[0, 0]) == pytest.approx(0.009, abs=1e-14)


def test_orderings_genuinely_differ(ou_scenario):
    res = simulate.simulate_path(ou_scenario, path_id=0)
    rep = [ou_scenario.horizon]
    a = kalman.run_filter(ou_scenario, res.events, rep, ordering="observe_then_jump")
    b = kalman.run_filter(ou_scenario, res.events, rep, ordering="jump_then_observe")
    assert abs(float(a.means[-1, 0]) - float(b.means[-1, 0])) > 1e-6


def test_huge_noise_keeps_prior(ou_params):
    big = dataclasses.replace(ou_params, R=np.array([[1e12]]))
    _, up = kalman.jump_update(_belief(0.5, 0.6, 0.05), big, np.array([0.94]), np.zeros(1))
    assert float(up.mean_post[0]) == pytest.approx(0.6, abs=1e-9)
    assert float(up.cov_post[0, 0]) == pytest.approx(0.05 + 0.04, abs=1e-9)


def test_zero_noise_trusts_observation(ou_params):
    clean = dataclasses.replace(ou_params, R=np.array([[0.0]]))
    _, up = kalman.jump_update(_belief(0.5, 0.6, 0.05), clean, np.array([0.94]), np.zeros(1))
    # dy = x at R=0: the posterior collapses onto dy, then the jump widens it
    assert float(up.mean_post[0]) == pytest.approx(0.94, abs=1e-12)
    assert float(up.cov_post[0, 0]) == pytest.approx(0.04, abs=1e-12)


# ---------------------------------------------------------------------------
# textbook recursion oracle

def _textbook_filter(params, x0, times, dys):
    """Independent reference: discrete-time Kalman recursion with exact
    interior moment maps, written against standard update formulas."""
    lam = float(params.lam[0, 0])
    sig2 = float(params.sigma_x[0, 0]) ** 2
    a = float(params.A[0, 0])
    c = float(params.C[0, 0])
    q = float(params.Q[0, 0])
    r = float(params.R[0, 0])
    m, p = float(x0[0]), 0.0
    y = 0.0
    t_prev = 0.0
    out = []
    for t, dy in zip(times, dys):
        dlt = t - t_prev
        m = m * np.exp(-lam * dlt)
        pinf = sig2 / (2 * lam)
        p = pinf + (p - pinf) * np.exp(-2 * lam * dlt)
        s = a * p * a + r
        k = p * a / s
        v = dy - (a * m - c * y)
        m = m + k * v
        p = (1 - k * a) * p * (1 - k * a) + k * r * k  # Joseph form
        p = p + q
        y += dy
        t_prev = t
    return m, p


def test_filter_matches_textbook_recursion(ou_scenario):
    params = kalman.linear_params_from_scenario(ou_scenario)
    res = simulate.simulate_path(ou_scenario, path_id=4)
    times = [e.time for e in res.events]
    dys = [float(e.dy[0]) for e in res.events]
    traj = kalman.run_filter(ou_scenario, res.events, [times[-1]])
    m_ref, p_ref = _textbook_filter(params, ou_scenario.x0, times, dys)
    assert float(traj.means[-1, 0]) == pytest.approx(m_ref, abs=1e-12)
    assert float(traj.covs[-1, 0, 0]) == pytest.approx(p_ref, abs=1e-12)


def test_vectorized_filter_matches_scalar_loop(ou_scenario):
    params = kalman.linear_params_from_scenario(ou_scenario)
    n_paths = 50
    ens = simulate.run_ensemble(ou_scenario, n_paths, checkpoint_times=[2.0])
    times = ens.event_times
    beliefs = kalman.filter_events_vectorized(params, ou_scenario.x0, ens.dy[:, :, 0], times)
    for p in range(0, n_paths, 7):
        m_ref, p_ref = _textbook_filter(params, ou_scenario.x0, times, ens.dy[p, :, 0])
        assert float(beliefs.post_mean[p, -1]) == pytest.approx(m_ref, abs=1e-12)
        assert float(beliefs.post_var[-1]) == pytest.approx(p_ref, abs=1e-12)


@pytest.mark.parametrize("preset", ["ou_kalman", "credit_risk"])
@pytest.mark.parametrize("ordering", kalman.ORDERINGS)
def test_vectorized_rows_equal_run_filter(preset, ordering):
    # one recursion: row p of the block filter is run_filter on path p alone
    scn = build_preset(preset)
    params = kalman.linear_params_from_scenario(scn)
    paths = [simulate.simulate_path(scn, path_id=p).events for p in range(6)]
    dys = np.array([[float(e.dy[0]) for e in events] for events in paths])
    beliefs = kalman.filter_events_vectorized(params, scn.x0, dys, [e.time for e in paths[0]], ordering)
    for p, events in enumerate(paths):
        records = kalman.run_filter(scn, events, [], ordering=ordering).events
        pairs = {
            "pre_mean": [r.mean_pre[0] for r in records],
            "pre_var": [r.cov_pre[0, 0] for r in records],
            "post_mean": [r.mean_post[0] for r in records],
            "post_var": [r.cov_post[0, 0] for r in records],
            "pred_mean": [r.pred_mean[0] for r in records],
            "pred_var": [r.pred_cov[0, 0] for r in records],
            "innovation": [r.innovation[0] for r in records],
            "gain_var": [r.innovation_cov[0, 0] for r in records],
        }
        for name, want in pairs.items():
            got = getattr(beliefs, name)
            assert np.array_equal(got[p] if got.ndim == 2 else got, want), (name, p)


@pytest.mark.parametrize("ordering", kalman.ORDERINGS)
def test_jump_update_block_equals_single_paths(ou_params, ordering):
    rng = np.random.default_rng(3)
    means, dys, y_pre = rng.normal(size=(3, 5, 1))
    block, rec = kalman.jump_update(
        kalman.GaussianBelief(0.5, means, np.array([[0.05]])), ou_params, dys, y_pre, ordering
    )
    for p in range(5):
        one, rec_one = kalman.jump_update(_belief(0.5, means[p, 0], 0.05), ou_params, dys[p], y_pre[p], ordering)
        assert np.array_equal(block.mean[p], one.mean)
        assert np.array_equal(block.cov, one.cov)
        for name in ("innovation", "pred_mean", "mean_pre", "mean_post"):
            assert np.array_equal(getattr(rec, name)[p], getattr(rec_one, name)), name
        for name in ("innovation_cov", "gain", "pred_cov", "cov_pre", "cov_post"):
            assert np.array_equal(getattr(rec, name), getattr(rec_one, name)), name


def test_vectorized_filter_without_events(ou_params):
    beliefs = kalman.filter_events_vectorized(ou_params, np.array([1.0]), np.zeros((4, 0)), [])
    assert beliefs.post_mean.shape == (4, 0)
    assert beliefs.post_var.shape == (0,)


# ---------------------------------------------------------------------------
# statistical structure along simulated paths

def test_innovation_whiteness(ou_scenario):
    # standardized innovations are i.i.d. N(0,1) across paths and events
    params = kalman.linear_params_from_scenario(ou_scenario)
    n_paths = 10_000
    ens = simulate.run_ensemble(ou_scenario, n_paths, checkpoint_times=[2.0])
    beliefs = kalman.filter_events_vectorized(params, ou_scenario.x0, ens.dy[:, :, 0], ens.event_times)
    z = beliefs.innovation / np.sqrt(beliefs.gain_var)[None, :]
    for i in range(z.shape[1]):
        assert abs(float(np.mean(z[:, i]))) < 4 / np.sqrt(n_paths)
        assert float(np.var(z[:, i])) == pytest.approx(1.0, abs=5 * np.sqrt(2.0 / n_paths))
    # successive standardized innovations are uncorrelated
    for i in range(z.shape[1] - 1):
        corr = float(np.mean(z[:, i] * z[:, i + 1]))
        assert abs(corr) < 4 / np.sqrt(n_paths)


def test_tower_property_of_posterior_mean(ou_scenario):
    # E[X_T - m_T] = 0 and E[(X_T - m_T)^2] = P_T across the ensemble
    params = kalman.linear_params_from_scenario(ou_scenario)
    n_paths = 10_000
    ens = simulate.run_ensemble(ou_scenario, n_paths, checkpoint_times=[2.0])
    beliefs = kalman.filter_events_vectorized(params, ou_scenario.x0, ens.dy[:, :, 0], ens.event_times)
    # propagate each path's last posterior to the horizon
    lam = float(params.lam[0, 0])
    dlt = 2.0 - ens.event_times[-1]
    m_T = beliefs.post_mean[:, -1] * np.exp(-lam * dlt)
    pinf = float(params.sigma_x[0, 0]) ** 2 / (2 * lam)
    p_T = pinf + (float(beliefs.post_var[-1]) - pinf) * np.exp(-2 * lam * dlt)
    err = ens.x_checkpoints[:, 0, 0] - m_T
    assert abs(float(np.mean(err))) < 4 * np.sqrt(p_T / n_paths)
    assert float(np.mean(err**2)) == pytest.approx(p_T, rel=0.06)


# ---------------------------------------------------------------------------
# compatibility guards

def test_nonlinear_scenario_rejected(medical_scenario):
    with pytest.raises(IncompatibleMethod):
        kalman.linear_params_from_scenario(medical_scenario)


@pytest.mark.parametrize(
    "field, desc",
    [
        ("drift", {"kind": "poly", "coeffs": [0.0, -1.0, 0.5]}),
        ("drift", {"kind": "sum", "children": [{"kind": "identity"}, {"kind": "exp", "child": {"kind": "identity"}}]}),
        ("drift", {"kind": "scale", "factor": -1.0, "child": {"kind": "exp", "child": {"kind": "identity"}}}),
        ("diffusion", {"kind": "affine", "slope": 0.1, "intercept": 0.5}),
        ("diffusion", {"kind": "exp", "child": {"kind": "const", "value": 0.0}}),
        ("jump_coeff", {"kind": "identity"}),
        ("jump_coeff", {"kind": "constant_matrix", "value": [[1.0]]}),
        ("obs_fn", {"kind": "state_expr_minus_y", "expr": {"kind": "exp", "child": {"kind": "identity"}}, "c": 0.0}),
    ],
)
def test_non_affine_coefficients_rejected(field, desc):
    cfg = PRESETS["ou_kalman"]()
    scn = model.validate(dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, **{field: desc})))
    with pytest.raises(IncompatibleMethod):
        kalman.linear_params_from_scenario(scn)


def test_discrete_marks_rejected():
    cfg = PRESETS["ou_kalman"]()
    law = model.JumpLawSpec(kind="discrete", points=((0.1, 0.0),), probs=(1.0,))
    scn = model.validate(
        dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, jump_law=law))
    )
    with pytest.raises(IncompatibleMethod):
        kalman.linear_params_from_scenario(scn)
