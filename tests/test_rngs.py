"""Random streams: the bulk per-path streams equal the one-at-a-time ones,
a path's marks drawn in one call equal its marks drawn one by one, and the
package imports without `numpy.random`."""

import subprocess
import sys

import numpy as np
import pytest

from schedfilt import model, rngs
from schedfilt.errors import ValidationError

IDS = [0, 1, 63, 4095, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32])
@pytest.mark.parametrize("label", [rngs.PATH_DIFFUSION, rngs.PATH_MARKS])
def test_streams_equal_stream(seed, label):
    # 2**32 takes two entropy words, which sends the whole call through stream
    for ids in (IDS, IDS[:4], range(200)):
        bulk = [g.bit_generator.state for g in rngs.streams(seed, label, ids)]
        single = [rngs.stream(seed, label, i).bit_generator.state for i in ids]
        assert bulk == single


def test_streams_draw_what_stream_draws():
    for g, i in zip(rngs.streams(7, rngs.PATH_DIFFUSION, range(5)), range(5)):
        np.testing.assert_array_equal(g.standard_normal(50), rngs.stream(7, rngs.PATH_DIFFUSION, i).standard_normal(50))


def test_streams_of_no_ids_are_empty():
    assert list(rngs.streams(3, rngs.PATH_MARKS, [])) == []


@pytest.mark.parametrize("args", [(-1, 0, [0]), (0, -1, [0]), (0, 0, [0, -1])])
def test_streams_refuse_negative_values(args):
    # raised on the call, before any generator is asked for
    with pytest.raises(ValidationError):
        rngs.streams(*args)


def _law(spec: model.JumpLawSpec, m: int = 1, n: int = 1):
    return model.mark_law(spec, m, n)


DIAGONAL_LAWS = {
    "product": _law(model.JumpLawSpec(kind="gaussian_product", q=((0.04,),), r=((0.01,),))),
    "degenerate": _law(model.JumpLawSpec(kind="degenerate_xi_zero", r=((0.04,),))),
    "discrete": _law(model.JumpLawSpec(kind="discrete", points=((0.2, 0.1), (-0.1, 0.0)), probs=(0.3, 0.7))),
    "product_m2_diagonal": _law(
        model.JumpLawSpec(kind="gaussian_product", q=((0.04, 0.0), (0.0, 0.03)), r=((0.01,),)), m=2
    ),
}


def _one_call_and_one_by_one(law, K: int):
    xi, eta = law.sample_marks(rngs.stream(5, rngs.PATH_MARKS, 3), K)
    rng = rngs.stream(5, rngs.PATH_MARKS, 3)
    singles = [law.sample_marks(rng, 1) for _ in range(K)]
    return (xi, eta), tuple(np.concatenate(parts) for parts in zip(*singles))


@pytest.mark.parametrize("name", sorted(DIAGONAL_LAWS))
def test_marks_in_one_call_equal_one_by_one_for_diagonal_factors(name):
    (xi, eta), (xi_1, eta_1) = _one_call_and_one_by_one(DIAGONAL_LAWS[name], 40)
    np.testing.assert_array_equal(xi, xi_1)
    np.testing.assert_array_equal(eta, eta_1)


def test_marks_in_one_call_match_one_by_one_for_a_correlated_law():
    law = _law(model.JumpLawSpec(kind="gaussian_joint", cov=((0.04, 0.01), (0.01, 0.01))))
    (xi, eta), (xi_1, eta_1) = _one_call_and_one_by_one(law, 40)
    np.testing.assert_allclose(xi, xi_1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(eta, eta_1, rtol=0, atol=1e-15)


def test_package_import_leaves_numpy_random_unloaded(cli_env):
    # numpy loads numpy.random on first use; importing it with the package
    # would add its cost to the start-up of every command
    code = (
        "import importlib, pkgutil, sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import schedfilt\n"
        "for mod in pkgutil.iter_modules(schedfilt.__path__):\n"
        "    importlib.import_module('schedfilt.' + mod.name)\n"
        "assert len([m for m in sys.modules if m.startswith('schedfilt.')]) > 10\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env("0"))
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert after == "False"
