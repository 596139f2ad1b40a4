"""Path simulation: exactness at events, determinism, schedules, ensembles."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedfilt import grid, model, particle, rngs, simulate
from schedfilt.errors import HorizonTooShort, NumericalBlowup, ValidationError
from schedfilt.presets import PRESETS, build_preset


def _override_model(cfg, **model_changes):
    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, **model_changes))


# ---------------------------------------------------------------------------
# basic path structure

def test_grid_contains_all_event_times(ou_scenario):
    res = simulate.simulate_path(ou_scenario, path_id=0)
    for ev in res.events:
        k = int(np.argmin(np.abs(res.path.t - ev.time)))
        assert res.path.t[k] == pytest.approx(ev.time, abs=1e-12)


def test_observation_constant_between_events(ou_scenario):
    res = simulate.simulate_path(ou_scenario, path_id=3)
    y = res.path.y[:, 0]
    jumps = np.nonzero(np.diff(y) != 0.0)[0]
    event_rows = set(int(k) for k in res.path.event_rows)
    # y moves only into an event row
    assert set(int(j) + 1 for j in jumps) <= event_rows


def test_event_increment_consistency(ou_scenario):
    # dy must equal f(x_pre, y_pre) + eta exactly, and y/x must step by
    # dy/xi at the event row
    res = simulate.simulate_path(ou_scenario, path_id=1)
    for ev in res.events:
        k = int(np.argmin(np.abs(res.path.t - ev.time)))
        f = ou_scenario.obs_fn(ev.x_pre[None, :], ev.y_pre)[0]
        np.testing.assert_allclose(ev.dy, f + ev.eta, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.path.y[k], ev.y_pre + ev.dy, atol=1e-14)
        c = ou_scenario.jump_coeff(ev.x_pre[None, :])[0]
        np.testing.assert_allclose(res.path.x[k], ev.x_pre + c @ ev.xi, atol=1e-14)


def test_same_inputs_bit_identical(ou_scenario):
    a = simulate.simulate_path(ou_scenario, path_id=5)
    b = simulate.simulate_path(ou_scenario, path_id=5)
    np.testing.assert_array_equal(a.path.x, b.path.x)
    np.testing.assert_array_equal(a.path.y, b.path.y)
    assert [e.time for e in a.events] == [e.time for e in b.events]


def test_paths_differ_across_ids_and_seeds(ou_scenario):
    a = simulate.simulate_path(ou_scenario, path_id=0)
    b = simulate.simulate_path(ou_scenario, path_id=1)
    c = simulate.simulate_path(ou_scenario, path_id=0, seed=999)
    assert not np.array_equal(a.path.x, b.path.x)
    assert not np.array_equal(a.path.x, c.path.x)


def test_marks_invariant_under_dt_refinement(ou_scenario):
    # mark draws depend on (seed, path, event index) only, not on the grid
    fine = ou_scenario.with_overrides(dt=ou_scenario.dt / 2)
    a = simulate.simulate_path(ou_scenario, path_id=2)
    b = simulate.simulate_path(fine, path_id=2)
    for ea, eb in zip(a.events, b.events):
        np.testing.assert_array_equal(ea.xi, eb.xi)
        np.testing.assert_array_equal(ea.eta, eb.eta)
    assert not np.array_equal(a.path.x[-1], b.path.x[-1])  # diffusion does change


# ---------------------------------------------------------------------------
# deterministic limits

def test_noiseless_path_solves_the_ode():
    # sigma = 0 and xi = 0 reduce Euler to the ODE x' = -x
    cfg = PRESETS["ou_kalman"]()
    cfg = _override_model(
        cfg,
        diffusion={"kind": "const", "value": 0.0},
        jump_law=model.JumpLawSpec(kind="degenerate_xi_zero", r=((0.01,),)),
    )
    scn = model.validate(cfg)
    res = simulate.simulate_path(scn, path_id=0)
    exact = np.exp(-res.path.t)
    assert np.max(np.abs(res.path.x[:, 0] - exact)) < 5 * scn.dt


def test_ou_moments_at_fixed_time(ou_scenario):
    # before the first event: X_t ~ N(e^-t, sigma^2 (1 - e^-2t) / 2)
    t = 0.4
    n = 20_000
    ens = simulate.run_ensemble(ou_scenario, n, checkpoint_times=[t])
    vals = ens.x_checkpoints[:, 0, 0]
    mean_exact = np.exp(-t)
    var_exact = 0.25 * (1 - np.exp(-2 * t)) / 2
    assert float(np.mean(vals)) == pytest.approx(mean_exact, abs=4 * np.sqrt(var_exact / n))
    assert float(np.var(vals)) == pytest.approx(var_exact, rel=0.05)


# ---------------------------------------------------------------------------
# schedules

def _check_threshold_events(res, sched):
    """The trigger rule against the recorded path: label i fires once, at the
    first visit whose entering level Y_{t-} (the row before) is <= theta_i,
    labels at one visit in ascending order, lower thresholds never earlier."""
    rows = [int(np.argmin(np.abs(res.path.t - g))) for g in sched.obs_grid]
    fired = {}
    for k, ev in zip(res.path.event_rows, res.events):
        assert ev.threshold_label not in fired  # at most once
        fired[ev.threshold_label] = int(k)
    assert set(fired) <= set(range(len(sched.thresholds)))
    for k in set(fired.values()):
        at_visit = [ev.threshold_label for r, ev in zip(res.path.event_rows, res.events) if r == k]
        assert at_visit == sorted(at_visit)
    first = []
    for i, level in enumerate(sched.thresholds):
        crossed = [k for k in rows if res.path.y[k - 1, 0] <= level]
        assert fired.get(i) == (crossed[0] if crossed else None)
        first.append(crossed[0] if crossed else np.inf)
    assert first == sorted(first)  # a lower threshold never fires earlier


def _with_thresholds(scn, thresholds):
    sched = dataclasses.replace(scn.schedule, thresholds=tuple(thresholds))
    return model.validate(dataclasses.replace(scn.config, schedule=sched)), sched


def _entering_levels(res, sched):
    return [res.path.y[int(np.argmin(np.abs(res.path.t - g))) - 1, 0] for g in sched.obs_grid]


def test_threshold_trigger_single(medical_firing_scenario):
    # one level at Y_0 = 0: it fires once, at the first visit
    scn, sched = _with_thresholds(medical_firing_scenario, (0.0,))
    for p in range(6):
        res = simulate.simulate_path(scn, path_id=p)
        assert [(ev.time, ev.threshold_label) for ev in res.events] == [(sched.obs_grid[0], 0)]
        _check_threshold_events(res, sched)


def test_threshold_trigger_ordering(medical_firing_scenario):
    # labels fire in threshold order, at distinct visits or together at one
    split = together = False
    for p in range(40):
        res = simulate.simulate_path(medical_firing_scenario, path_id=p)
        assert [ev.threshold_label for ev in res.events] == list(range(len(res.events)))
        times = [ev.time for ev in res.events]
        assert times == sorted(times)
        split |= len(set(times[:2])) == 2
        together |= len(set(times)) < len(times)
    assert split and together


def test_threshold_never_resets(medical_firing_scenario):
    # a fired label stays fired, whether the level stays at or below its
    # threshold at later visits or recovers above it
    sched = medical_firing_scenario.schedule
    stays = recovers = False
    for p in range(40):
        res = simulate.simulate_path(medical_firing_scenario, path_id=p)
        labels = [ev.threshold_label for ev in res.events]
        assert len(labels) == len(set(labels))
        ys = _entering_levels(res, sched)
        for i in labels:
            j = next(j for j, y in enumerate(ys) if y <= sched.thresholds[i])
            later = [y <= sched.thresholds[i] for y in ys[j + 1:]]
            stays |= any(later)
            recovers |= not all(later)
    assert stays and recovers


def test_untriggered_threshold_is_inf(medical_firing_scenario):
    # a level below Y_0 = 0 is never reached, since Y moves only at events
    scn, sched = _with_thresholds(medical_firing_scenario, (-0.1,))
    for p in range(6):
        res = simulate.simulate_path(scn, path_id=p)
        assert res.events == [] and len(res.path.event_rows) == 0
        assert all(y > -0.1 for y in _entering_levels(res, sched))


@settings(max_examples=30, deadline=None)
@given(
    levels=st.lists(st.floats(-0.4, 0.05), min_size=1, max_size=4, unique=True),
    path_id=st.integers(0, 200),
)
def test_threshold_resolution_properties(medical_firing_scenario, levels, path_id):
    scn, sched = _with_thresholds(medical_firing_scenario, sorted(levels, reverse=True))
    _check_threshold_events(simulate.simulate_path(scn, path_id=path_id), sched)


def test_medical_threshold_path_events(medical_firing_scenario):
    sched = medical_firing_scenario.schedule
    shared = 0
    for p in range(40):
        res = simulate.simulate_path(medical_firing_scenario, path_id=p)
        assert res.events, f"path {p} has no events"
        assert res.events[0].time == sched.obs_grid[0] and res.events[0].threshold_label == 0
        _check_threshold_events(res, sched)
        # a path's j-th event takes the j-th draw of its mark stream
        marks = rngs.stream(medical_firing_scenario.seed, rngs.PATH_MARKS, p)
        for ev in res.events:
            xi, eta = medical_firing_scenario.jump_law.sample_marks(marks, 1)
            np.testing.assert_array_equal(ev.xi, xi[0])
            np.testing.assert_array_equal(ev.eta, eta[0])
        shared += len(res.events) - len(set(res.path.event_rows.tolist()))
    assert shared > 0, "no visit fired several labels"


def test_scheduled_time_beyond_horizon_is_invalid():
    # a time past the horizon is no event of the model: validate refuses it,
    # so no simulation or check sees a schedule other than the one declared
    cfg = PRESETS["ou_kalman"]()
    sched = dataclasses.replace(cfg.schedule, times=(0.5, 1.0, 1.5, 5.0))
    with pytest.raises(HorizonTooShort, match=r"^scheduled time 5.0 lies past the horizon 2.0$"):
        model.validate(dataclasses.replace(cfg, schedule=sched))


# ---------------------------------------------------------------------------
# ensembles

def test_batch_equals_single_paths(euler_scenarios, medical_firing_scenario, monkeypatch):
    # a path's numbers do not depend on the block it runs in; for m >= 2
    # the linear drift and observation maps must contract each row alone.
    # Blocks of 5 paths put block boundaries inside every batch.
    monkeypatch.setattr(simulate, "BLOCK_PATHS", 5)
    scenarios = {**euler_scenarios, "medical_firing": medical_firing_scenario}
    for name, scn in scenarios.items():
        n_paths = 24 if scn.m > 1 else 12
        batch = list(simulate.simulate_batch(scn, range(n_paths), seed=7))
        assert len(batch) == n_paths
        for p, res in enumerate(batch):
            one = simulate.simulate_path(scn, p, seed=7)
            where = f"{name} path {p}"
            for a, b in ((res.path.x, one.path.x), (res.path.y, one.path.y), (res.path.event_rows, one.path.event_rows)):
                np.testing.assert_array_equal(a, b, err_msg=where)
            assert [(e.index, e.time, e.threshold_label) for e in res.events] == [
                (e.index, e.time, e.threshold_label) for e in one.events
            ], where
            for field in ("dy", "y_pre", "x_pre", "xi", "eta"):
                np.testing.assert_array_equal(
                    [getattr(e, field) for e in res.events], [getattr(e, field) for e in one.events], err_msg=where
                )


def test_ensemble_matches_per_path_simulation(euler_scenarios):
    # bit for bit with fixed times, for a scalar and a coupled 2-D state;
    # the second checkpoint list repeats a time and holds one at an event
    for name in ("ou_kalman", "credit_risk", "njode_style", "m2_constant_matrix", "m2_diagonal_linear"):
        scn = euler_scenarios[name]
        for checkpoints in ([0.4, scn.horizon], [0.4, 0.4, 0.5, scn.horizon]):
            ens = simulate.run_ensemble(scn, 8, checkpoint_times=checkpoints)
            for p in range(8):
                res = simulate.simulate_path(scn, path_id=p)
                for ci, t in enumerate(checkpoints):
                    k = int(np.argmin(np.abs(res.path.t - t)))
                    np.testing.assert_array_equal(ens.x_checkpoints[p, ci], res.path.x[k], err_msg=name)
                for i, ev in enumerate(res.events):
                    np.testing.assert_array_equal(ens.dy[p, i], ev.dy, err_msg=name)
                    np.testing.assert_array_equal(ens.x_pre[p, i], ev.x_pre, err_msg=name)


def test_ensemble_integrals_match_trapezoid_free_run(ou_scenario):
    # the running integral of phi(x) dt accumulated by the ensemble must
    # match the trapezoid rule over the stored fine path
    from schedfilt import testfns

    phi = testfns.battery_function("bump", 1)
    ens = simulate.run_ensemble(ou_scenario, 3, checkpoint_times=[0.4], integrands=[phi])
    for p in range(3):
        res = simulate.simulate_path(ou_scenario, path_id=p)
        mask = res.path.t <= 0.4 + 1e-12
        direct = float(np.trapezoid(phi.value(res.path.x[mask]), res.path.t[mask]))
        assert float(ens.integrals[p, 0, 0]) == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_run_ensemble_typed_errors(ou_scenario):
    with pytest.raises(ValidationError, match="checkpoint"):
        simulate.run_ensemble(ou_scenario, 2, checkpoint_times=[0.4005])


# the times a finiteness check after every Euler step names: x0 = 10 blows
# up before the first event (0.5), x0 = 1 between the first and the second,
# x0 = 0.3 after the last (1.5).  pytest turns numpy's RuntimeWarning into an
# error, so each blowup must surface as the typed error alone
@pytest.mark.parametrize("x0, path_t, batch_t", [(10.0, 0.114, 0.113), (1.0, 0.819, 0.796), (0.3, 1.509, 1.509)])
def test_blowup_is_typed_and_names_its_time(x0, path_t, batch_t):
    scn = model.validate(_override_model(PRESETS["ou_kalman"](), drift={"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, x0=(x0,)))
    with pytest.raises(NumericalBlowup, match=rf"^state became non-finite at t = {path_t}$"):
        simulate.simulate_path(scn, path_id=0)
    # the first blowup of the block, on one of paths 1-4
    with pytest.raises(NumericalBlowup, match=rf"^state became non-finite at t = {batch_t}$"):
        list(simulate.simulate_batch(scn, range(5)))
    with pytest.raises(NumericalBlowup) as info:
        simulate.run_ensemble(scn, 1, checkpoint_times=(0.05, 0.25))
    lo, hi = map(float, re.fullmatch(r"state became non-finite in \((\S+), (\S+)\]", str(info.value)).groups())
    assert lo < path_t <= hi
    with pytest.raises(NumericalBlowup, match=r"^particle positions became non-finite near t=2.0$"):
        particle.propagate(particle.init_ensemble(scn, 64), scn, scn.horizon)
    with pytest.raises(NumericalBlowup, match=r"^the pilot cloud of the grid domain became non-finite$"):
        grid.estimate_domain(scn)


def test_observation_blowup_is_typed_and_names_its_time():
    # a finite state whose observation increment exp(20 x) overflows at the
    # last event, x near 39 at t = 1.9
    cfg = _override_model(
        PRESETS["ou_kalman"](),
        drift={"kind": "const", "value": 20.0},
        obs_fn={"kind": "state_expr_minus_y", "expr": {"kind": "exp", "child": {"kind": "affine", "slope": 20.0, "intercept": 0.0}}, "c": 0.0},
    )
    scn = model.validate(dataclasses.replace(cfg, schedule=dataclasses.replace(cfg.schedule, times=(0.5, 1.0, 1.9))))
    for run in (lambda: simulate.simulate_path(scn, path_id=0), lambda: list(simulate.simulate_batch(scn, range(3))),
                lambda: simulate.run_ensemble(scn, 3)):
        with pytest.raises(NumericalBlowup, match=r"^observation increment became non-finite at t = 1.9$"):
            run()


def test_ensemble_deterministic(ou_scenario):
    a = simulate.run_ensemble(ou_scenario, 16, checkpoint_times=[2.0])
    b = simulate.run_ensemble(ou_scenario, 16, checkpoint_times=[2.0])
    np.testing.assert_array_equal(a.x_checkpoints, b.x_checkpoints)
    np.testing.assert_array_equal(a.dy, b.dy)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"n_paths": -3}, "n_paths"),
        ({"n_paths": 5.0}, "n_paths"),
    ],
    ids=["n_paths_negative", "n_paths_float"],
)
def test_run_ensemble_rejects_bad_sizes(ou_scenario, kwargs, match):
    kwargs = {"n_paths": 5, **kwargs}
    with pytest.raises(ValidationError, match=match):
        simulate.run_ensemble(ou_scenario, checkpoint_times=[1.0], **kwargs)


def test_run_ensemble_of_no_paths(ou_scenario):
    ens = simulate.run_ensemble(ou_scenario, 0, checkpoint_times=[1.0])
    assert ens.x_checkpoints.shape == (0, 1, 1)
    assert ens.dy.shape == (0, len(ens.event_times), 1)


# ---------------------------------------------------------------------------
# normals drawn in tiles of steps


def _ensemble_scenarios(euler_scenarios):
    scenarios = {name: euler_scenarios[name] for name in ("ou_kalman", "credit_risk", "njode_style", "m2_constant_matrix")}
    # ensembles need a deterministic schedule
    scenarios["medical"] = model.validate(
        dataclasses.replace(
            euler_scenarios["medical"].config, schedule=model.Schedule(kind="deterministic", times=(0.5, 1.0))
        )
    )
    return scenarios


def test_ensemble_in_tiles_of_7_steps_is_bit_identical(euler_scenarios, monkeypatch):
    # 7 divides none of the grids, so every run has a short last tile; chunks
    # of 4 of 6 paths leave a short last chunk.  Unpatched, so few paths draw
    # their whole horizon in one tile.
    from schedfilt import testfns

    monkeypatch.setattr(simulate, "CHUNK_PATHS", 4)
    for name, scn in _ensemble_scenarios(euler_scenarios).items():
        checkpoints = [0.4, scn.horizon]
        lphi = testfns.diffusion_generator(testfns.battery_function("tanh", scn.m), scn)
        kwargs = dict(checkpoint_times=checkpoints, integrands=[lphi])
        whole = simulate.run_ensemble(scn, 6, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_tile_steps", lambda n_paths, m, n_steps: 7)
            tiled = simulate.run_ensemble(scn, 6, **kwargs)
        for field in dataclasses.fields(whole):
            np.testing.assert_array_equal(
                getattr(tiled, field.name), getattr(whole, field.name), err_msg=f"{name} {field.name}"
            )
        for p in range(6):
            res = simulate.simulate_path(scn, path_id=p)
            for ci, t in enumerate(checkpoints):
                k = int(np.argmin(np.abs(res.path.t - t)))
                np.testing.assert_array_equal(tiled.x_checkpoints[p, ci], res.path.x[k], err_msg=name)
            np.testing.assert_array_equal(tiled.x_pre[p], [ev.x_pre for ev in res.events], err_msg=name)


def test_ensemble_chunk_holds_one_tile_of_normals(ou_scenario):
    # a 4,000-path chunk of 2,000 scalar steps: 64 MB of normals over the
    # horizon, 8 MB in one tile
    import tracemalloc

    tracemalloc.start()
    try:
        simulate.run_ensemble(ou_scenario, 4000, checkpoint_times=[1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"traced peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# bit identity of the Euler steps


def _reference_euler(scenario, t, z, jumps, jump_step):
    """The Euler loop written out plainly over P paths at once: B(x) z by the
    (P, m, m) diffusion tensor and einsum.  z is (P, steps, m); `jumps`
    maps a grid row to the (P, m) marks applied there, through
    `jump_step(C(x_pre), xi)`.  Returns the (P, T, m) paths and the
    (P, K, m) pre-jump states."""
    x = np.broadcast_to(scenario.x0, (z.shape[0], scenario.m)).copy()
    xs, x_pre = [], []
    for k in range(len(t)):
        for xi in jumps.get(k, ()):
            x_pre.append(x.copy())
            x = x + jump_step(scenario.jump_coeff(x), xi)
        xs.append(x)
        if k < len(t) - 1:
            h = t[k + 1] - t[k]
            bz = np.einsum("nij,nj->ni", scenario.diffusion(x), z[:, k])
            x = x + scenario.drift(x) * h + bz * np.sqrt(h)
    return np.stack(xs, axis=1), np.stack(x_pre, axis=1) if x_pre else np.empty((len(x), 0, scenario.m))


def _with_off_lattice_events(scenarios):
    # event times off the dt lattice put partial substeps into the grid
    out = dict(scenarios)
    cfg = dataclasses.replace(
        scenarios["ou_kalman"].config, schedule=model.Schedule(kind="deterministic", times=(0.3333, 1.0))
    )
    out["ou_off_lattice"] = model.validate(cfg)
    return out


def _einsum_jump(c, xi):
    return np.einsum("pij,pj->pi", c, xi)


def test_simulate_path_matches_reference_euler(euler_scenarios, medical_firing_scenario):
    scenarios = _with_off_lattice_events(euler_scenarios)
    scenarios["medical_firing"] = medical_firing_scenario  # several jumps at one row
    for name, scn in scenarios.items():
        for p in range(2):
            res = simulate.simulate_path(scn, path_id=p)
            t = res.path.t
            z = rngs.stream(scn.seed, rngs.PATH_DIFFUSION, p).standard_normal((len(t) - 1, scn.m))
            jumps = {}
            for k, ev in zip(res.path.event_rows, res.events):
                jumps.setdefault(int(k), []).append(ev.xi[None, :])
            xs, x_pre = _reference_euler(scn, t, z[None], jumps, _einsum_jump)
            np.testing.assert_array_equal(res.path.x, xs[0], err_msg=f"{name} path {p}")
            np.testing.assert_array_equal(
                x_pre[0], np.reshape([ev.x_pre for ev in res.events], (-1, scn.m)), err_msg=name
            )


def test_run_ensemble_matches_reference_euler(euler_scenarios, monkeypatch):
    scenarios = _with_off_lattice_events(euler_scenarios)
    # ensembles need a deterministic schedule
    scenarios["medical"] = model.validate(
        dataclasses.replace(
            scenarios["medical"].config, schedule=model.Schedule(kind="deterministic", times=(0.5, 1.0))
        )
    )
    n_paths = 4
    monkeypatch.setattr(simulate, "CHUNK_PATHS", 3)  # a short last chunk
    for name, scn in scenarios.items():
        ens = simulate.run_ensemble(scn, n_paths, checkpoint_times=[scn.horizon])
        t = simulate.build_time_grid(scn.horizon, scn.dt, ens.event_times)
        rows = [int(np.argmin(np.abs(t - s))) for s in ens.event_times]
        z = np.stack(
            [
                rngs.stream(scn.seed, rngs.PATH_DIFFUSION, p).standard_normal((len(t) - 1, scn.m))
                for p in range(n_paths)
            ]
        )
        jumps = {k: [ens.xi[:, i]] for i, k in enumerate(rows)}
        xs, x_pre = _reference_euler(scn, t, z, jumps, _einsum_jump)
        np.testing.assert_array_equal(ens.x_checkpoints[:, 0], xs[:, -1], err_msg=name)
        np.testing.assert_array_equal(ens.x_pre, x_pre, err_msg=name)
