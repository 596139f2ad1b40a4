"""Test-function battery: derivatives and generator actions."""

import numpy as np
import pytest

from schedfilt import testfns
from schedfilt.presets import build_preset


def _fd_grad(phi, x, h=1e-6):
    out = np.zeros_like(x)
    for j in range(x.shape[1]):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        out[:, j] = (phi.value(xp) - phi.value(xm)) / (2 * h)
    return out


def _fd_hess_diag(phi, x, h=1e-4):
    out = np.zeros_like(x)
    for j in range(x.shape[1]):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        out[:, j] = (phi.value(xp) - 2 * phi.value(x) + phi.value(xm)) / h**2
    return out


@pytest.mark.parametrize("phi", testfns.default_battery(1), ids=lambda p: p.name)
def test_gradients_match_finite_differences(phi):
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    np.testing.assert_allclose(phi.derivs(x)[0], _fd_grad(phi, x), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("phi", testfns.default_battery(1), ids=lambda p: p.name)
def test_hessians_match_finite_differences(phi):
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    np.testing.assert_allclose(
        phi.derivs(x)[1][:, 0, 0], _fd_hess_diag(phi, x)[:, 0], rtol=1e-4, atol=1e-6
    )


@pytest.mark.parametrize("phi", testfns.default_battery(1), ids=lambda p: p.name)
def test_battery_is_bounded(phi):
    x = np.array([[-1e6], [-10.0], [0.0], [10.0], [1e6]])
    assert np.all(np.abs(phi.value(x)) <= phi.bound * (1 + 1e-12))


def test_battery_function_lookup():
    phi = testfns.battery_function("bump", 1)
    assert phi.name == "bump"
    with pytest.raises(KeyError):
        testfns.battery_function("nope", 1)


def test_diffusion_generator_quadratic_identity(ou_scenario):
    # for a(x) = -x, b = 0.5: L phi = -x phi' + 0.125 phi''
    phi = testfns.clipped_square(cap=1e4)  # x^2 to ~1e-8 relative on [-3, 3]
    lphi = testfns.diffusion_generator(phi, ou_scenario)
    x = np.linspace(-2.0, 2.0, 7)[:, None]
    np.testing.assert_allclose(
        np.asarray(lphi(x)).reshape(-1), (-x[:, 0]) * 2 * x[:, 0] + 0.25, rtol=1e-5, atol=1e-5
    )


def test_jump_generator_quadrature_vs_monte_carlo(ou_scenario, rng):
    # A phi(x) = E_xi[phi(x + c(x) xi)] - phi(x), xi ~ N(0, 0.04)
    phi = testfns.battery_function("bump", 1)
    aphi = testfns.jump_generator(phi, ou_scenario)
    x = np.array([[0.0], [0.5], [1.0]])
    n = 400_000
    xi = rng.normal(0.0, 0.2, size=n)
    for row in range(x.shape[0]):
        shifted = x[row, 0] + xi
        mc = float(np.mean(phi.value(shifted[:, None]))) - float(phi.value(x[row : row + 1])[0])
        se = float(np.std(phi.value(shifted[:, None]))) / np.sqrt(n)
        got = float(np.asarray(aphi(x[row : row + 1])).reshape(-1)[0])
        assert got == pytest.approx(mc, abs=4 * se)


def test_jump_generator_zero_when_xi_degenerate():
    scn = build_preset("njode_style")
    assert scn.jump_law.xi_is_zero
    phi = testfns.battery_function("bump", 1)
    aphi = testfns.jump_generator(phi, scn)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    np.testing.assert_allclose(np.asarray(aphi(x)).reshape(-1), 0.0, atol=1e-15)


def test_jump_generator_discrete_law_enumerates():
    # discrete mark law: the generator must reduce to the finite sum
    import dataclasses

    from schedfilt import model
    from schedfilt.presets import PRESETS

    pts, prs = ((0.4, 0.1), (-0.2, -0.1)), (0.3, 0.7)
    cfg = PRESETS["ou_kalman"]()
    law = model.JumpLawSpec(kind="discrete", points=pts, probs=prs)
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, jump_law=law))
    scn = model.validate(cfg)

    phi = testfns.battery_function("bump", 1)
    aphi = testfns.jump_generator(phi, scn)
    x = np.array([[0.3]])
    c = scn.jump_coeff(x)[0, 0, 0]
    total = 0.0
    for pt, pr in zip(pts, prs):
        total += pr * float(phi.value(np.array([[0.3 + c * pt[0]]]))[0])
    expected = total - float(phi.value(x)[0])
    assert float(np.asarray(aphi(x)).reshape(-1)[0]) == pytest.approx(expected, abs=1e-12)
