"""Scenario validation, mark laws, serialization."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedfilt import grid, model, particle, quad, rngs, testfns
from schedfilt.errors import (
    HorizonTooShort,
    NegativeDt,
    NonIncreasingTimes,
    NonPSDCovariance,
    SchedFiltError,
    UnknownFunctionDescriptor,
    ValidationError,
    ZeroConditionalMass,
)
from schedfilt.presets import CONFIG_DIR, PRESETS, build_preset


def _base_config(**over):
    cfg = PRESETS["ou_kalman"]()
    return dataclasses.replace(cfg, **over)


# ---------------------------------------------------------------------------
# validation

def test_presets_all_validate():
    for name in PRESETS:
        scn = build_preset(name)
        assert scn.m >= 1 and scn.n >= 1
        assert scn.config.preset == name


def test_rejects_negative_dt():
    with pytest.raises(NegativeDt):
        model.validate(_base_config(dt=-0.001))


def test_rejects_nonincreasing_schedule():
    bad = dataclasses.replace(_base_config().schedule, times=(0.5, 0.5, 1.0))
    with pytest.raises(NonIncreasingTimes):
        model.validate(_base_config(schedule=bad))


# one bad argument per check that used to raise a bare ValueError
_BAD_ARGUMENTS = {
    "grid_propagate_negative_dt": lambda s: grid.grid_propagate(grid.init_density(np.linspace(-2.0, 4.0, 101), 1.0), s, -0.1),
    "particle_propagate_backwards": lambda s: particle.propagate(particle.init_ensemble(s, 10, seed=0), s, -0.5),
    "gamma_gaussian_negative_variance": lambda s: particle.gamma_gaussian(0.0, -1.0, 0.01, 0.0),
    "quadrature_order_zero": lambda s: quad.gh_nodes_weights(0),
    "quadrature_negative_variance": lambda s: quad.gaussian_quad_points(0.0, -1.0, 8),
    "negative_seed": lambda s: rngs.stream(-1),
    "negative_stream_label": lambda s: rngs.stream(0, rngs.PATH_DIFFUSION, -1),
    "bump_scale": lambda s: testfns.gauss_bump(0.0, 0.0),
    "clipped_identity_cap": lambda s: testfns.clipped_identity(cap=0.0),
    "clipped_square_cap": lambda s: testfns.clipped_square(cap=0.0),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_raise_typed_errors(case, ou_scenario):
    with pytest.raises(SchedFiltError) as info:
        _BAD_ARGUMENTS[case](ou_scenario)
    assert isinstance(info.value, ValueError)


def _set(data: dict, path: str, value) -> dict:
    """`data` with the entry at the dotted `path` replaced by `value`."""
    *parents, key = path.split(".")
    node = data
    for p in parents:
        node = node[p]
    node[key] = value
    return data


# malformed scenario entries, each with the typed error it raises in place of
# a bare KeyError, TypeError or ValueError
_MALFORMED_ENTRIES = {
    "sum_children_not_a_list": ("model.drift", {"kind": "sum", "children": 5}, UnknownFunctionDescriptor),
    "const_without_value": ("model.diffusion", {"kind": "const"}, UnknownFunctionDescriptor),
    "affine_slope_not_a_number": ("model.drift", {"kind": "affine", "slope": "a", "intercept": 0.0}, UnknownFunctionDescriptor),
    "m_not_an_integer": ("model.m", "a", ValidationError),
    "m_fractional": ("model.m", 1.7, ValidationError),
    "seed_fractional": ("seed", 12.9, ValidationError),
    "n_particles_fractional": ("filters.n_particles", 500.5, ValidationError),
    "horizon_not_a_number": ("horizon", "abc", ValidationError),
    "misspelt_filter_setting": ("filters.n_particle", 5, ValidationError),
    # settings that are module constants, not scenario fields: a file that sets one is refused
    **{f"retired_{key}": (f"filters.{key}", value, ValidationError) for key, value in (
        ("resample_threshold", 0.5),
        ("grid_halfwidth_sds", 8.0),
        ("reporting_dt", 0.05),
        ("quad_order_jump", 20),
        ("quad_order_event", 64),
    )},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ENTRIES))
def test_malformed_scenario_raises_validation_error(case):
    path, value, error = _MALFORMED_ENTRIES[case]
    data = _set(model.scenario_to_dict(_base_config()), path, value)
    with pytest.raises(error) as info:
        model.validate(model.scenario_from_dict(data))
    if error is UnknownFunctionDescriptor:  # the message names the coefficient
        assert path.split(".")[1] in str(info.value)


@pytest.mark.parametrize("schedule", [
    model.Schedule(kind="deterministic", times=(2.5, 3.0)),  # every time past the horizon
    model.Schedule(kind="deterministic", times=(0.5, 1.0, 2.5)),  # only the last
    model.Schedule(kind="threshold", thresholds=(0.5,), obs_grid=(0.5, 1.0, 2.5)),
], ids=["all_times", "last_time", "threshold_grid"])
def test_rejects_horizon_before_first_event(schedule):
    with pytest.raises(HorizonTooShort, match=r"lies past the horizon 2.0$"):
        model.validate(_base_config(schedule=schedule))


def test_rejects_non_psd_mark_covariance():
    cfg = _base_config()
    bad_law = dataclasses.replace(cfg.model.jump_law, kind="gaussian_joint", q=None, r=None,
                                  cov=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(NonPSDCovariance):
        model.validate(_base_config(model=dataclasses.replace(cfg.model, jump_law=bad_law)))


def test_with_overrides_revalidates():
    scn = build_preset("ou_kalman")
    scn2 = scn.with_overrides(seed=99, n_particles=123)
    assert scn2.seed == 99
    assert scn2.filters.n_particles == 123
    assert scn.seed == 1234  # original untouched


# ---------------------------------------------------------------------------
# mark laws

def test_gaussian_product_moments(rng):
    law = build_preset("ou_kalman").jump_law
    xi, eta = law.sample_marks(rng, 200_000)
    assert abs(float(np.mean(xi)) ) < 3 * 0.2 / np.sqrt(200_000) * 1.5
    assert float(np.var(xi)) == pytest.approx(0.04, rel=0.02)
    assert float(np.var(eta)) == pytest.approx(0.01, rel=0.02)
    assert abs(float(np.mean(xi[:, 0] * eta[:, 0]))) < 3 * np.sqrt(0.04 * 0.01 / 200_000)


def test_joint_conditional_closed_form():
    # cov [[1, .5], [.5, 1]], eta0 = 1: xi | eta ~ N(0.5, 0.75)
    spec = model.JumpLawSpec(kind="gaussian_joint", cov=((1.0, 0.5), (0.5, 1.0)))
    law = model.mark_law(spec, m=1, n=1)
    assert float(law.gain[0, 0] * 1.0) == pytest.approx(0.5, abs=1e-12)
    assert float(law.cond_cov[0, 0]) == pytest.approx(0.75, abs=1e-12)


def test_joint_conditional_matches_rejection_oracle(rng):
    # brute-force check: keep joint samples with eta within a narrow band
    # around eta0 and compare the surviving xi law to the analytic one
    spec = model.JumpLawSpec(kind="gaussian_joint", cov=((1.0, 0.5), (0.5, 1.0)))
    law = model.mark_law(spec, m=1, n=1)
    xi, eta = law.sample_marks(rng, 2_000_000)
    band = np.abs(eta[:, 0] - 1.0) < 0.01
    kept = xi[band, 0]
    assert kept.size > 5000
    se_mean = np.sqrt(0.75 / kept.size)
    assert float(np.mean(kept)) == pytest.approx(0.5, abs=4 * se_mean + 5e-3)
    assert float(np.var(kept)) == pytest.approx(0.75, rel=0.08)


def test_joint_sample_given_eta_distribution(rng):
    spec = model.JumpLawSpec(kind="gaussian_joint", cov=((1.0, 0.5), (0.5, 1.0)))
    law = model.mark_law(spec, m=1, n=1)
    eta_hat = np.full((100_000, 1), 1.0)
    draws = law.sample_xi_given_eta(rng, eta_hat)[:, 0]
    assert float(np.mean(draws)) == pytest.approx(0.5, abs=4 * np.sqrt(0.75 / draws.size))
    assert float(np.var(draws)) == pytest.approx(0.75, rel=0.05)


def test_marginal_xi_ks_distance(rng):
    # marginalizing the conditional draw over eta must recover the xi marginal
    spec = model.JumpLawSpec(kind="gaussian_joint", cov=((0.6, 0.3), (0.3, 0.8)))
    law = model.mark_law(spec, m=1, n=1)
    _, eta = law.sample_marks(rng, 40_000)
    via_cond = law.sample_xi_given_eta(rng, eta)[:, 0]
    direct, _ = law.sample_marks(rng, 40_000)
    a, b = np.sort(via_cond), np.sort(direct[:, 0])
    grid = np.linspace(-3, 3, 601)
    ks = np.max(np.abs(
        np.searchsorted(a, grid) / a.size - np.searchsorted(b, grid) / b.size
    ))
    assert ks < 0.02


def test_discrete_conditioning_matches_enumeration():
    pts = ((1.0, 0.5), (-1.0, 0.5), (0.0, -0.5))
    probs = (0.2, 0.3, 0.5)
    spec = model.JumpLawSpec(kind="discrete", points=pts, probs=probs)
    law = model.mark_law(spec, m=1, n=1)
    cond = law.conditional_probs(np.array([[0.5]]))
    # atoms 0 and 1 match eta = 0.5; renormalized to (0.4, 0.6)
    np.testing.assert_allclose(cond, [[0.4, 0.6, 0.0]])
    with pytest.raises(ZeroConditionalMass):
        law.conditional_probs(np.array([[2.0]]))


def test_discrete_eta_is_log_mass_not_density():
    spec = model.JumpLawSpec(kind="discrete", points=((0.0, 0.1),), probs=(1.0,))
    law = model.mark_law(spec, m=1, n=1)
    assert not law.eta_has_density
    vals = law.eta_log_density(np.array([[0.1], [0.7]]))
    assert vals[0] == pytest.approx(0.0, abs=1e-12)  # log mass of the only atom
    assert vals[1] == -np.inf


def test_degenerate_law_xi_is_zero(rng):
    spec = model.JumpLawSpec(kind="degenerate_xi_zero", r=((0.01,),))
    law = model.mark_law(spec, m=1, n=1)
    assert law.xi_is_zero
    xi, eta = law.sample_marks(rng, 1000)
    assert np.all(xi == 0.0)
    assert float(np.var(eta)) == pytest.approx(0.01, rel=0.2)


def test_eta_log_density_is_normal_logpdf():
    law = build_preset("ou_kalman").jump_law
    e = np.array([[0.0], [0.1], [-0.3]])
    expected = -0.5 * e[:, 0] ** 2 / 0.01 - 0.5 * np.log(2 * np.pi * 0.01)
    np.testing.assert_allclose(law.eta_log_density(e), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_all_presets_bit_exact():
    for name in PRESETS:
        cfg = PRESETS[name]()
        text = model.scenario_to_json(cfg)
        back = model.scenario_from_json(text)
        assert back == cfg
        assert model.scenario_to_json(back) == text


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_shipped_config_equals_preset(name):
    # the shipped file is the preset's one definition; it must be canonical,
    # the text scenario_to_json writes, so that the preset name and the file
    # path hash alike in the manifest
    text = (Path(CONFIG_DIR) / f"{name}.json").read_text(encoding="utf-8")
    assert model.scenario_to_json(model.scenario_from_json(text)) + "\n" == text


def test_json_full_precision():
    cfg = _base_config(dt=0.1 + 1e-16, horizon=2.0000000000000004)
    back = model.scenario_from_json(model.scenario_to_json(cfg))
    assert back.dt == cfg.dt
    assert back.horizon == cfg.horizon


def test_json_is_plain_data():
    text = model.scenario_to_json(_base_config())
    data = json.loads(text)
    assert set(data) == {"model", "schedule", "horizon", "dt", "seed", "filters", "preset"}


_LAWS = {
    "gaussian_product": lambda v: model.JumpLawSpec(kind="gaussian_product", q=((v[0],),), r=((v[1],),)),
    "gaussian_joint": lambda v: model.JumpLawSpec(kind="gaussian_joint", cov=((v[0], 0.0), (0.0, v[1]))),
    "discrete": lambda v: model.JumpLawSpec(kind="discrete", points=((v[0], v[1]), (-v[0], 0.0)), probs=(0.5, 0.5), match_tol=v[2]),
    "degenerate_xi_zero": lambda v: model.JumpLawSpec(kind="degenerate_xi_zero", r=((v[1],),)),
}
_SCHEDULES = {
    "deterministic": lambda ts: model.Schedule(kind="deterministic", times=ts),
    "threshold": lambda ts: model.Schedule(kind="threshold", thresholds=(1.0, -1.0), obs_grid=ts),
}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dt=st.floats(1e-4, 0.01, allow_nan=False),
    law_kind=st.sampled_from(sorted(_LAWS)),
    law_values=st.tuples(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0), st.floats(1e-12, 1e-3)),
    schedule_kind=st.sampled_from(sorted(_SCHEDULES)),
    times=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5, unique=True).map(lambda ts: tuple(sorted(ts))),
    filters=st.builds(
        model.FilterSettings,
        n_particles=st.integers(2, 10**6),
        grid_nodes=st.integers(16, 10**4),
    ),
)
def test_round_trip_random_linear_configs(seed, dt, law_kind, law_values, schedule_kind, times, filters):
    cfg = _base_config(seed=seed, dt=dt, filters=filters, schedule=_SCHEDULES[schedule_kind](times))
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, jump_law=_LAWS[law_kind](law_values)))
    model.validate(cfg)
    text = model.scenario_to_json(cfg)
    back = model.scenario_from_json(text)
    assert back == cfg
    assert model.scenario_to_json(back) == text
