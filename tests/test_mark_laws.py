"""The two mark-law families seen through the filters.

A Gaussian law with independent xi and eta gives the same filters whether
it is written as a product or as a joint covariance; a law with xi = 0
gives no signal jump; and random scalar laws of every kind run through
every filter or fail with a typed error.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from schedfilt import grid, kalman, model, particle, testfns
from schedfilt.errors import SchedFiltError
from schedfilt.presets import PRESETS
from schedfilt.simulate import simulate_path


_STATE_JUMP = {"kind": "affine", "slope": 0.2, "intercept": 1.0}  # c(x) = 1 + 0.2 x
_NO_STATE_OBS = {"kind": "affine_xy", "a": 0.0, "c": 0.0, "intercept": 0.0}  # f = 0


def _ou_with(jump_law, model_fields=(), **config):
    """ou_kalman with another mark law, other model fields and config fields."""
    cfg = PRESETS["ou_kalman"]()
    mdl = dataclasses.replace(cfg.model, jump_law=jump_law, **dict(model_fields))
    return model.validate(dataclasses.replace(cfg, model=mdl, **config))


def test_uncorrelated_joint_law_equals_product_law():
    specs = (
        model.JumpLawSpec(kind="gaussian_product", q=((0.04,),), r=((0.01,),)),
        model.JumpLawSpec(kind="gaussian_joint", cov=((0.04, 0.0), (0.0, 0.01))),
    )
    product, joint = (_ou_with(spec) for spec in specs)
    e = np.linspace(-0.3, 0.3, 7)[:, None]
    np.testing.assert_array_equal(product.jump_law.eta_log_density(e), joint.jump_law.eta_log_density(e))
    for name in ("gain", "cond_cov", "Sxx", "See"):
        np.testing.assert_array_equal(getattr(product.jump_law, name), getattr(joint.jump_law, name))

    events = simulate_path(product, 0).events
    a, b = (kalman.run_filter(s, events, s.reporting_times) for s in (product, joint))
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.covs, b.covs)
    a, b = (particle.run_particle_filter(s, events, method="ks", n_particles=500) for s in (product, joint))
    np.testing.assert_array_equal(a.means, b.means)

    # the grid on a jump coefficient that depends on the state
    product, joint = (_ou_with(spec, {"jump_coeff": _STATE_JUMP}) for spec in specs)
    events = simulate_path(product, 0).events
    a, b = (grid.grid_run_filter(s, events, n_nodes=400, collect_densities=True) for s in (product, joint))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(np.array(a.densities), np.array(b.densities))


def test_zero_xi_law_has_no_jump():
    scn = _ou_with(model.JumpLawSpec(kind="degenerate_xi_zero", r=((0.01,),)), {"jump_coeff": _STATE_JUMP})
    assert scn.jump_law.xi_is_zero
    x = np.linspace(-2.0, 3.0, 11)[:, None]
    for phi in testfns.default_battery(1):
        np.testing.assert_array_equal(testfns.jump_generator(phi, scn)(x), np.zeros(11))
    dens = grid.grid_propagate(grid.init_density(np.linspace(-2.0, 4.0, 301), 1.0), scn, 0.5)
    post = grid.grid_event_update(dens, scn, 0.8, 1.0)
    lik = np.exp(scn.jump_law.eta_log_density(0.8 - dens.x[:, None]))
    np.testing.assert_allclose(post.p, dens.p * lik / np.trapezoid(dens.p * lik, dens.x), rtol=1e-12)


_VAR = st.floats(1e-3, 0.2)


@st.composite
def scalar_mark_laws(draw):
    kind = draw(st.sampled_from(["gaussian_product", "gaussian_joint", "discrete", "degenerate_xi_zero"]))
    if kind == "gaussian_product":
        return model.JumpLawSpec(kind=kind, q=((draw(_VAR),),), r=((draw(_VAR),),))
    if kind == "degenerate_xi_zero":
        return model.JumpLawSpec(kind=kind, r=((draw(_VAR),),))
    if kind == "gaussian_joint":
        sx, se, rho = np.sqrt(draw(_VAR)), np.sqrt(draw(_VAR)), draw(st.floats(-0.99, 0.99))
        c = float(rho * sx * se)
        return model.JumpLawSpec(kind=kind, cov=((float(sx * sx), c), (c, float(se * se))))
    n_atoms = draw(st.integers(1, 3))
    coord = st.floats(-0.5, 0.5)
    points = tuple((draw(coord), draw(coord)) for _ in range(n_atoms))
    w = np.array([draw(st.integers(1, 5)) for _ in range(n_atoms)], dtype=float)
    return model.JumpLawSpec(kind=kind, points=points, probs=tuple(float(p) for p in w / w.sum()))


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    law=scalar_mark_laws(),
    observe_state=st.booleans(),
    times=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3, unique=True),
)
def test_every_filter_finishes_or_fails_typed(law, observe_state, times):
    # with f = 0 the residual is dY itself, so a discrete eta is matched exactly
    times = sorted(times)
    if np.any(np.diff(times) < 1e-3):
        times = times[:1]
    schedule = model.Schedule(kind="deterministic", times=tuple(times))
    scn = _ou_with(law, {} if observe_state else {"obs_fn": _NO_STATE_OBS}, horizon=1.0, schedule=schedule)
    events = simulate_path(scn, 0).events
    runs = {
        "kalman": lambda: kalman.run_filter(scn, events, scn.reporting_times),
        "ks": lambda: particle.run_particle_filter(scn, events, method="ks", n_particles=200),
        "zakai": lambda: particle.run_particle_filter(scn, events, method="zakai", n_particles=200),
        "grid": lambda: grid.grid_run_filter(scn, events, n_nodes=200),
    }
    for name, run in runs.items():
        try:
            traj = run()
        except SchedFiltError:
            continue
        moments = (traj.means, traj.covs) if name == "kalman" else (traj.means, traj.vars)
        assert all(np.all(np.isfinite(v)) for v in moments), name
