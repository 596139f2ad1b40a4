"""Grid filter: kernel moments, Bayes updates, and agreement with the
exact linear-Gaussian recursion.

The linear scenario doubles as an oracle: everything the grid computes
there has a closed form through the Kalman recursion.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from schedfilt import grid, kalman, model, presets, simulate, testfns
from schedfilt.errors import BoundaryLeak, UnsupportedScenario, ZeroLikelihoodMass
from schedfilt.quad import gaussian_quad_points


def _density(x_nodes, p):
    d = grid.GridDensity(np.asarray(x_nodes, float), np.asarray(p, float))
    d.p /= d.mass()
    return d


@pytest.fixture(scope="module")
def diffusion_scenario(ou_scenario):
    # slope zero turns the signal into driftless Brownian motion
    cfg = ou_scenario.config
    mdl = dataclasses.replace(
        cfg.model,
        drift={"kind": "affine", "slope": 0.0, "intercept": 0.0},
        x0=(0.0,),
    )
    return model.validate(dataclasses.replace(cfg, model=mdl))


def test_propagate_zero_dt_is_identity(ou_scenario):
    x = np.linspace(-2.0, 4.0, 601)
    dens = grid.init_density(x, 1.0)
    out = grid.grid_propagate(dens, ou_scenario, 0.0)
    np.testing.assert_array_equal(out.p, dens.p)
    assert out is not dens


def test_heat_kernel_moment_growth(diffusion_scenario):
    x = np.linspace(-3.0, 3.0, 1201)
    dens = grid.init_density(x, 0.0)
    m0, v0 = dens.mean(), dens.var()
    out = grid.grid_propagate(dens, diffusion_scenario, 0.2)
    sigma2 = 0.25  # diffusion coefficient 0.5 squared
    assert out.mean() == pytest.approx(m0, abs=1e-9)
    assert out.var() - v0 == pytest.approx(sigma2 * 0.2, abs=1e-6)
    assert out.mass() == pytest.approx(1.0, abs=1e-9)


def test_ou_relaxation_matches_euler_moment_recursion(ou_scenario):
    # the transition kernel is built from Euler steps, so the spatial
    # error is isolated by comparing against the exact Euler moment map
    x = np.linspace(-2.0, 4.0, 1201)
    dens = grid.init_density(x, 1.0)
    m0, v0 = dens.mean(), dens.var()
    dt, lam, sig2 = ou_scenario.dt, 1.0, 0.25
    a = 1.0 - lam * dt
    steps = int(round(0.5 / dt))
    m_ref = a**steps * m0
    v_ref = a ** (2 * steps) * v0 + sig2 * dt * (1 - a ** (2 * steps)) / (1 - a**2)
    out = grid.grid_propagate(dens, ou_scenario, 0.5)
    assert out.mean() == pytest.approx(m_ref, abs=1e-4)
    assert out.var() == pytest.approx(v_ref, abs=1e-4)


def test_off_lattice_interval_ends_with_partial_substep(ou_scenario):
    # 0.5003 is 500 substeps of dt and one of 0.0003, as the particles and
    # the simulator step it; the grid's moments follow the Euler moment map
    # of those steps, and leaving out the last one moves the mean by 2e-4
    x = np.linspace(-2.0, 4.0, 1201)
    dens = grid.init_density(x, 1.0)
    m_ref, v_ref = dens.mean(), dens.var()
    for h in [ou_scenario.dt] * 500 + [0.5003 - 500 * ou_scenario.dt]:
        m_ref, v_ref = (1.0 - h) * m_ref, (1.0 - h) ** 2 * v_ref + 0.25 * h
    out = grid.grid_propagate(dens, ou_scenario, 0.5003)
    assert out.mean() == pytest.approx(m_ref, abs=1e-9)
    assert out.var() == pytest.approx(v_ref, abs=1e-9)


def test_event_update_matches_kalman(ou_scenario):
    # run both filters through the first scheduled event of a real path
    result = simulate.simulate_path(ou_scenario, path_id=5)
    ev = result.events[0]
    x = np.linspace(-2.0, 4.0, 1201)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), ou_scenario, ev.time)

    params = kalman.linear_params_from_scenario(ou_scenario)
    belief = kalman.GaussianBelief(0.0, np.array([1.0]), np.zeros((1, 1)))
    belief = kalman.propagate(belief, params, ev.time)
    post_belief, _ = kalman.jump_update(belief, params, ev.dy, ev.y_pre)

    post = grid.grid_event_update(dens, ou_scenario, float(ev.dy[0]), float(ev.y_pre[0]))
    assert post.mean() == pytest.approx(float(post_belief.mean[0]), abs=1e-3)
    assert post.var() == pytest.approx(float(post_belief.cov[0, 0]), abs=1e-3)


def test_two_atom_posterior_masses(ou_scenario):
    # two separated bumps: the Bayes step must reweight their total
    # masses by the noise likelihood at each bump location
    x = np.linspace(-4.0, 4.0, 2401)
    a, b, w1 = -1.2, 1.2, 0.3
    p = w1 * np.exp(-0.5 * ((x - a) / 0.05) ** 2) + (1 - w1) * np.exp(-0.5 * ((x - b) / 0.05) ** 2)
    dens = _density(x, p)
    mass_left = float(np.trapezoid(np.where(x < 0, dens.p, 0.0), x))

    dy, r = 0.9, 0.01
    post = grid.grid_event_update(dens, ou_scenario, dy, 1.0)
    lik_a = mass_left * np.exp(-((dy - a) ** 2) / (2 * r))
    lik_b = (1.0 - mass_left) * np.exp(-((dy - b) ** 2) / (2 * r))
    want_left = lik_a / (lik_a + lik_b)
    got_left = float(np.trapezoid(np.where(x < 0, post.p, 0.0), x))
    assert got_left == pytest.approx(want_left, abs=1e-6)


def test_s_phi_linear_model_is_gain_times_innovation(ou_scenario):
    # for phi = x in the linear model the conditional mean change is
    # K (y - m_pre) with K = P / (P + r); marks are independent so the
    # jump adds variance but no mean shift
    result = simulate.simulate_path(ou_scenario, path_id=5)
    ev = result.events[0]
    x = np.linspace(-2.0, 4.0, 1201)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), ou_scenario, ev.time)
    m_pre, p_pre = dens.mean(), dens.var()
    K = p_pre / (p_pre + 0.01)

    phi = lambda v: v
    for y in np.linspace(m_pre - 0.5, m_pre + 0.5, 7):
        post = grid.grid_event_update(dens, ou_scenario, float(y), float(ev.y_pre[0]))
        s = post.expectation(phi) - dens.expectation(phi)
        assert s == pytest.approx(K * (y - m_pre), abs=1e-3)


def test_s_phi_constant_function_vanishes(ou_scenario):
    x = np.linspace(-2.0, 4.0, 801)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), ou_scenario, 0.5)
    one = lambda v: np.ones(v.shape[0])
    for y in (0.3, 0.61, 1.4):
        s = grid.grid_event_update(dens, ou_scenario, y, 1.0).expectation(one) - dens.expectation(one)
        assert s == pytest.approx(0.0, abs=1e-12)


def test_update_conserves_mass(ou_scenario):
    x = np.linspace(-2.0, 4.0, 801)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), ou_scenario, 0.5)
    post = grid.grid_event_update(dens, ou_scenario, 0.62, 1.0)
    assert post.mass() == pytest.approx(1.0, abs=1e-9)


def test_filter_refinement_self_consistency(ou_scenario):
    result = simulate.simulate_path(ou_scenario, path_id=2)
    rep = [ou_scenario.horizon]
    coarse = grid.grid_run_filter(ou_scenario, result.events, rep, n_nodes=400, domain=(-2.0, 4.0))
    fine = grid.grid_run_filter(ou_scenario, result.events, rep, n_nodes=800, domain=(-2.0, 4.0))
    assert abs(float(coarse.means[-1, 0]) - float(fine.means[-1, 0])) < 1e-3
    assert coarse.means.ndim == 2 and coarse.vars.ndim == 2


def test_cold_filter_memory_peak(ou_scenario):
    # guards against dense operators and bands where one row serves: one
    # G x G matrix at the default 2,000 nodes is 32 MB, the (2000, 949) jump
    # band 15 MB, and the (2000, 77) transition band 1.2 MB; the domain is
    # one no other test uses, so every operator is built cold
    events = simulate.simulate_path(ou_scenario, path_id=0).events
    lo, hi = grid.estimate_domain(ou_scenario)
    tracemalloc.start()
    try:
        grid.grid_run_filter(ou_scenario, events, domain=(lo - 0.0123, hi + 0.0123))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ou_scenario.filters.grid_nodes == 2000
    assert peak < 4e6, f"traced peak {peak / 1e6:.1f} MB"


def test_nu_integral_memory_peak(ou_scenario):
    # the band adjoint adds one band column at a time into a (G + W - 1, 2)
    # output, with no band-sized temporary.  The first call builds and
    # keeps the kernel, so only the second is traced.
    x = grid.make_grid(ou_scenario)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), ou_scenario, 0.5)
    phi = testfns.battery_function("tanh", 1)
    grid.grid_nu_integral(dens, ou_scenario, phi, 0.0)
    tracemalloc.start()
    try:
        grid.grid_nu_integral(dens, ou_scenario, phi, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.size == 2000
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


def test_cold_medical_filter_memory_peak(medical_scenario):
    # c(x) = x makes the jump band (2000, 3999), 64 MB: the build must not
    # hold band-sized temporaries beside it (202 MB traced when it did)
    def visit(index, time, dy, y_pre):
        return simulate.ObservationEvent(index, time, np.array([dy]), np.array([y_pre]))

    events = [visit(1, 0.5, -0.2, 0.0), visit(2, 1.5, -0.3, -0.2)]
    lo, hi = grid.estimate_domain(medical_scenario)
    tracemalloc.start()
    try:
        grid.grid_run_filter(medical_scenario, events, domain=(lo - 0.0123, hi + 0.0123))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert medical_scenario.filters.grid_nodes == 2000
    assert peak < 100e6, f"traced peak {peak / 1e6:.1f} MB"


def test_kernel_build_memory_peak(medical_scenario):
    # rows are evaluated a block at a time into the band: the build of the
    # (2000, 3999) c(x) = x jump band holds little beside the band itself
    x = grid.make_grid(medical_scenario)
    sigmas = np.abs(x) * np.sqrt(medical_scenario.jump_law.cond_cov[0, 0])
    tracemalloc.start()
    try:
        band, _ = grid._kernel_rows(x, x, sigmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.shape == (2000, 3999)
    assert peak < 1.5 * band.nbytes, f"traced peak {peak / band.nbytes:.2f} bands"


def test_one_row_kernel_build_memory_peak(ou_scenario):
    # a constant-c jump keeps one row of the (2000, 949) band, not 15 MB
    x = grid.make_grid(ou_scenario)
    sigmas = np.full(x.size, np.sqrt(ou_scenario.jump_law.cond_cov[0, 0]))
    tracemalloc.start()
    try:
        band, _ = grid._kernel_rows(x, x, sigmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.shape == (2000, 949) and band.strides[0] == 0
    assert peak < 1e6, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("rows", [1, 7, 2000])
def test_band_build_does_not_depend_on_block_size(rows, euler_scenarios, monkeypatch):
    monkeypatch.setattr(grid, "_memo_band", lambda spec, x, width, build: build())
    for name in ("ou_kalman", "credit_risk", "njode_style", "medical"):
        scn = euler_scenarios[name]
        x = grid.make_grid(scn)
        whole = [grid._transition_band(scn, x, scn.dt), grid._gaussian_jump_band(scn, x)]
        with monkeypatch.context() as patch:
            patch.setattr(grid, "_block_rows", lambda width: rows)
            blocked = [grid._transition_band(scn, x, scn.dt), grid._gaussian_jump_band(scn, x)]
        for kind, (a, a_scale), (b, b_scale) in zip(("transition", "jump"), blocked, whole):
            np.testing.assert_array_equal(a, b, err_msg=f"{name} {kind}")
            np.testing.assert_array_equal(a_scale, b_scale, err_msg=f"{name} {kind} scale")


def test_bands_kept_are_those_of_the_grid_in_use(ou_scenario):
    events = simulate.simulate_path(ou_scenario, path_id=0).events
    for domain in ((-2.5, 4.5), (-3.0, 5.0)):
        traj = grid.grid_run_filter(ou_scenario, events, n_nodes=300, domain=domain)
    assert grid._BANDS
    for key in grid._BANDS:
        assert key[1:4] == (float(traj.x[0]), float(traj.x[-1]), traj.x.size)


def _dense(kernel):
    """The G x G kernel J that `_apply_band` applies to masses:
    J[j, j + s - h] = band[j, s] * scale[j + s - h]."""
    band, scale = kernel
    G, width = band.shape
    j, s = np.indices(band.shape)
    i = j + s - width // 2
    on = (0 <= i) & (i < G)
    J = np.zeros((G, G))
    J[j[on], i[on]] = band[on] * scale[i[on]]
    return J


def test_source_sums_one_pass_keeps_the_bits_of_two():
    # one (G, 2) pass gives the bits of two (G, 1) passes
    rng = np.random.default_rng(3)
    band, v = rng.random((300, 77)), rng.standard_normal((300, 2))
    got = grid._source_sums(band, v)
    for k in range(2):
        np.testing.assert_array_equal(got[:, k], grid._source_sums(band, v[:, k : k + 1])[:, 0])


def test_band_adjoint_equals_dense_transpose(ou_scenario):
    x = np.linspace(-2.0, 4.0, 120)
    v = np.cos(3.0 * x)
    for kernel in (grid._transition_band(ou_scenario, x, 0.05), grid._gaussian_jump_band(ou_scenario, x)):
        assert kernel[0].shape[1] > 3
        np.testing.assert_allclose(grid._band_adjoint(kernel, v[:, None])[:, 0], _dense(kernel).T @ v, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["ou_kalman", "credit_risk", "njode_style"])
def test_apply_band_support_rule_matches_dense_product(name):
    # rows beyond the band's reach of every node above 2^-53 of the peak
    # mass are written as zeros; the dense product computes them all.  Each
    # product rounds near the peak in its own summation order, so the bound
    # is 2^-50 of the peak a product
    scn = presets.build_preset(name)
    x = grid.make_grid(scn, 2000)
    dens = grid.init_density(x, float(scn.x0[0]))
    w = dens.trapz_weights()
    for kind, kernel in (("transition", grid._transition_band(scn, x, scn.dt)), ("jump", grid._gaussian_jump_band(scn, x))):
        J = _dense(kernel)
        for steps in (1, 50):
            masses = dens.p * w
            for _ in range(steps):
                masses = J @ masses
            want = masses / w
            got = grid._apply_band(dens, kernel, steps)
            np.testing.assert_allclose(got, want, rtol=0, atol=steps * 2.0**-50 * want.max(), err_msg=f"{kind}, {steps} steps")


def test_kernel_rows_spread_unit_mass():
    # smooth rows, pointlike stencils and splats, and rows whose whole
    # support lies off the grid, which carry no mass
    x = np.linspace(0.0, 1.0, 80)
    dx = x[1] - x[0]
    k = np.arange(x.size)
    means = x + 0.3 * np.sin(k)
    means[::11] = 2.5
    sigmas = dx * (0.05 + 3.0 * (k % 7) / 6.0)
    kernel = grid._kernel_rows(x, means, sigmas)
    mass = _dense(kernel).sum(axis=0)  # what each source puts on all targets
    supported = np.abs(mass) > 0.0
    assert 0 < supported.sum() < x.size
    np.testing.assert_allclose(mass[supported], 1.0, rtol=0, atol=1e-15)
    off_grid = (sigmas > grid._SMOOTH_SIGMA_FACTOR * dx) & (means - grid._TAIL_SDS * sigmas > x[-1])
    assert off_grid.any() and not supported[off_grid].any()


@pytest.mark.parametrize("name", ["ou_kalman", "credit_risk"])
def test_one_row_jump_kernel_matches_blockwise_build(name):
    # a constant-c jump's rows are one Gaussian about their own node, kept
    # as one broadcast row and a scale; one sigma one ulp wider takes the
    # blockwise build of the same kernel.  The band product follows the
    # dense product of row and scale within 2^-50 of the peak a step.  The
    # blockwise build evaluates each row at its own node differences, which
    # round otherwise (entries differ by up to 4.7e-15 of the peak here), so
    # against it 4 more 2^-50 of the peak are allowed
    scn = presets.build_preset(name)
    x = grid.make_grid(scn, 2000)
    sigmas = np.full(x.size, np.sqrt(scn.jump_law.cond_cov[0, 0]))
    one_row = grid._kernel_rows(x, x, sigmas)
    sigmas[-1] = np.nextafter(sigmas[-1], np.inf)
    blockwise = grid._kernel_rows(x, x, sigmas)
    assert one_row[0].strides[0] == 0 and blockwise[0].strides[0] != 0
    assert one_row[0].shape == blockwise[0].shape
    J_row, J_block = _dense(one_row), _dense(blockwise)
    dens = grid.init_density(x, float(scn.x0[0]))
    w = dens.trapz_weights()
    for steps in (1, 50):
        m_row, m_block = dens.p * w, dens.p * w
        for _ in range(steps):
            m_row, m_block = J_row @ m_row, J_block @ m_block
        want = m_block / w
        tol = 2.0**-50 * want.max()
        np.testing.assert_allclose(grid._apply_band(dens, one_row, steps), m_row / w, rtol=0, atol=steps * tol, err_msg=f"{steps} steps")
        np.testing.assert_allclose(m_row / w, want, rtol=0, atol=(steps + 4) * tol, err_msg=f"{steps} steps")


def test_one_row_kernel_falls_back_to_blockwise_build():
    # at 40 nodes a 0.2 sd row is wider than the grid, and a 0.3 dx sd row
    # is pointlike: both keep the normalized band and a unit scale
    x = np.linspace(0.0, 1.0, 40)
    dx = x[1] - x[0]
    for sd, one_row in ((0.02, True), (0.2, False), (0.3 * dx, False)):
        band, scale = grid._kernel_rows(x, x, np.full(x.size, sd))
        assert (band.strides[0] == 0) == one_row, sd
        assert (band.shape[1] > x.size) == (sd == 0.2)
        if not one_row:
            np.testing.assert_array_equal(scale, 1.0)
        mass = _dense((band, scale)).sum(axis=0)
        np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-15)


def test_boundary_leak_detected(ou_scenario):
    x = np.linspace(0.9, 1.1, 101)
    dens = grid.init_density(x, 1.0)
    with pytest.raises(BoundaryLeak):
        grid.grid_propagate(dens, ou_scenario, 0.1)


def test_zero_likelihood_mass_detected(ou_scenario):
    x = np.linspace(-2.0, 4.0, 801)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), ou_scenario, 0.5)
    with pytest.raises(ZeroLikelihoodMass):
        grid.grid_event_update(dens, ou_scenario, 50.0, 1.0)


def test_non_finite_or_empty_density_raises_typed_error(ou_scenario):
    # a density with no mass to follow propagates over every row and is
    # refused by the density check, never an IndexError
    x = np.linspace(-2.0, 4.0, 801)
    dens = grid.init_density(x, 1.0)
    dens.p[400] = np.nan
    with pytest.raises(ZeroLikelihoodMass):
        grid.grid_propagate(dens, ou_scenario, 0.5)
    with pytest.raises(ZeroLikelihoodMass):
        grid.grid_event_update(dens, ou_scenario, 1.0, 1.0)
    with pytest.raises(ZeroLikelihoodMass):
        grid.grid_propagate(grid.GridDensity(x, np.zeros(x.size)), ou_scenario, 0.5)


def test_scalar_guard(medical_scenario, ou_scenario):
    # the medical preset is scalar, so fabricate a 2-D config instead
    cfg = ou_scenario.config
    mdl = dataclasses.replace(
        cfg.model,
        m=2,
        n=2,
        x0=(1.0, 0.0),
        drift={"kind": "linear_matrix", "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
        diffusion={"kind": "constant_matrix", "value": [[0.5, 0.0], [0.0, 0.5]]},
        jump_coeff={"kind": "constant_matrix", "value": [[1.0, 0.0], [0.0, 1.0]]},
        jump_law=model.JumpLawSpec(
            kind="gaussian_product",
            q=((0.04, 0.0), (0.0, 0.04)),
            r=((0.01, 0.0), (0.0, 0.01)),
        ),
        obs_fn={
            "kind": "affine_xy",
            "a": [[1.0, 0.0], [0.0, 1.0]],
            "c": [[0.0, 0.0], [0.0, 0.0]],
            "intercept": [0.0, 0.0],
        },
    )
    scn2 = model.validate(dataclasses.replace(cfg, model=mdl))
    with pytest.raises(UnsupportedScenario):
        grid.make_grid(scn2)


def test_estimate_domain_deterministic(ou_scenario):
    d1 = grid.estimate_domain(ou_scenario)
    d2 = grid.estimate_domain(ou_scenario)
    assert d1 == d2
    lo, hi = d1
    assert lo < 0.0 < 1.0 < hi


def _with_law(ou_scenario, jump_law, obs_fn):
    """ou_kalman with a state-dependent jump coefficient c(x) = 1 + 0.2 x."""
    cfg = ou_scenario.config
    mdl = dataclasses.replace(
        cfg.model,
        jump_coeff={"kind": "affine", "slope": 0.2, "intercept": 1.0},
        jump_law=jump_law,
        obs_fn=obs_fn,
    )
    return model.validate(dataclasses.replace(cfg, model=mdl))


def _jump_mean(dens, scn, dy, y_pre, cond_mean):
    """Sum_k q_k (x_k + c_k E[xi | eta_hat_k]) from grid quantities: q_k is
    the likelihood-weighted mass of node k, eta_hat_k = dy - f(x_k, y_pre)."""
    x = dens.x
    eta_hat = dy - scn.obs_fn(x[:, None], np.array([y_pre]))[:, 0]
    q = dens.p * np.exp(scn.jump_law.eta_log_density(eta_hat[:, None])) * dens.trapz_weights()
    q /= q.sum()
    c = scn.jump_coeff(x[:, None])[:, 0, 0]
    return float(np.sum(q * (x + c * cond_mean(eta_hat))))


def test_gaussian_joint_jump_posterior(ou_scenario):
    # xi and eta correlated: E[xi | eta] = (0.0025 / 0.01) eta, so the jump
    # mean differs by node through eta_hat = dy - x
    law = model.JumpLawSpec(kind="gaussian_joint", cov=((0.04, 0.0025), (0.0025, 0.01)))
    scn = _with_law(ou_scenario, law, ou_scenario.config.model.obs_fn)
    x = np.linspace(-2.0, 4.0, 601)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), scn, 0.5)
    dy, y_pre = 0.8, 1.0
    post = grid.grid_event_update(dens, scn, dy, y_pre)
    assert post.mass() == pytest.approx(1.0, abs=1e-12)
    want = _jump_mean(dens, scn, dy, y_pre, lambda eta: 0.25 * eta)
    assert post.mean() == pytest.approx(want, abs=1e-12)


def test_discrete_jump_posterior(ou_scenario):
    # f = 0 makes eta_hat = dy at every node; dy = 0.1 matches the first two
    # atoms, so xi given eta is -0.3 or 0.25 with odds 0.2 : 0.5
    law = model.JumpLawSpec(
        kind="discrete",
        points=((-0.3, 0.1), (0.25, 0.1), (0.5, -0.2)),
        probs=(0.2, 0.5, 0.3),
    )
    obs = {"kind": "affine_xy", "a": 0.0, "c": 0.0, "intercept": 0.0}
    scn = _with_law(ou_scenario, law, obs)
    x = np.linspace(-2.0, 4.0, 601)
    dens = grid.grid_propagate(grid.init_density(x, 1.0), scn, 0.5)
    post = grid.grid_event_update(dens, scn, 0.1, 1.0)
    assert post.mass() == pytest.approx(1.0, abs=1e-12)
    want = _jump_mean(dens, scn, 0.1, 1.0, lambda eta: np.full(eta.shape, (0.2 * -0.3 + 0.5 * 0.25) / 0.7))
    assert post.mean() == pytest.approx(want, abs=1e-12)


def _nu_per_node(dens, scn, phi, y_pre):
    """grid_nu_integral node by node: one full event update per
    Gauss-Hermite node, skipping a node whose predictive density or
    envelope is zero or whose update raises ZeroLikelihoodMass.  Returns
    the integral and the number of nodes skipped."""
    x, p = dens.x, dens.p
    f = scn.obs_fn(x[:, None], np.array([y_pre]))[:, 0]
    mean_y = float(np.trapezoid(p * f, x))
    var_y = float(np.trapezoid(p * (f - mean_y) ** 2, x)) + float(scn.jump_law.See[0, 0])
    nodes, wts = gaussian_quad_points(mean_y, var_y, grid.QUAD_ORDER_EVENT)
    total, skipped = 0.0, 0
    for y, w in zip(nodes, wts):
        f_i = np.trapezoid(p * np.exp(scn.jump_law.eta_log_density((y - f)[:, None])), x)
        env = np.exp(-0.5 * (y - mean_y) ** 2 / var_y) / np.sqrt(2.0 * np.pi * var_y)
        try:
            if f_i <= 0.0 or env <= 0.0:
                raise ZeroLikelihoodMass("no predictive mass")
            post = grid.grid_event_update(dens, scn, float(y), y_pre, check_boundary=False)
        except ZeroLikelihoodMass:
            skipped += 1
            continue
        total += w * (post.expectation(phi) - dens.expectation(phi)) * f_i / env
    return total, skipped


@pytest.mark.parametrize("case", ["ou_kalman", "credit_risk", "zero_xi", "correlated", "tiny_r"])
def test_nu_integral_matches_per_node_updates(case, ou_scenario, credit_scenario):
    # zero_xi and correlated carry c(x) = 1 + 0.2 x; tiny_r (r = 1e-6) makes
    # the likelihood of the outer nodes underflow, so both forms must skip
    # the same nodes
    obs = ou_scenario.config.model.obs_fn
    scn = {
        "ou_kalman": ou_scenario,
        "credit_risk": credit_scenario,
        "zero_xi": _with_law(ou_scenario, model.JumpLawSpec(kind="degenerate_xi_zero", r=((0.01,),)), obs),
        "correlated": _with_law(ou_scenario, model.JumpLawSpec(kind="gaussian_joint", cov=((0.04, 0.0025), (0.0025, 0.01))), obs),
        "tiny_r": ou_scenario.with_overrides(model=dataclasses.replace(
            ou_scenario.config.model, jump_law=model.JumpLawSpec(kind="gaussian_product", q=((0.04,),), r=((1e-6,),))
        )),
    }[case]
    x = grid.make_grid(scn, n_nodes=601)
    dens = grid.grid_propagate(grid.init_density(x, float(scn.x0[0])), scn, 0.5)
    phi = testfns.default_battery(1)[0]
    want, skipped = _nu_per_node(dens, scn, phi, 0.0)
    assert grid.grid_nu_integral(dens, scn, phi, 0.0) == pytest.approx(want, rel=0.0, abs=1e-14)
    if case == "tiny_r":
        assert 0 < skipped < grid.QUAD_ORDER_EVENT
