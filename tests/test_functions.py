"""Descriptor compilation against direct evaluation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schedfilt import functions
from schedfilt.errors import UnknownFunctionDescriptor

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def test_scalar_kinds_match_numpy():
    x = np.linspace(-2.0, 2.0, 11)
    cases = [
        ({"kind": "const", "value": 3.5}, np.full_like(x, 3.5)),
        ({"kind": "identity"}, x),
        ({"kind": "affine", "slope": -1.5, "intercept": 0.25}, -1.5 * x + 0.25),
        ({"kind": "poly", "coeffs": [1.0, 0.0, 2.0]}, 1.0 + 2.0 * x**2),
        ({"kind": "exp", "child": {"kind": "affine", "slope": 0.5, "intercept": 0.0}}, np.exp(0.5 * x)),
        ({"kind": "scale", "factor": 2.0, "child": {"kind": "identity"}}, 2.0 * x),
        (
            {"kind": "sum", "children": [{"kind": "identity"}, {"kind": "const", "value": 1.0}]},
            x + 1.0,
        ),
        (
            {"kind": "prod", "children": [{"kind": "identity"}, {"kind": "identity"}]},
            x * x,
        ),
    ]
    for desc, expected in cases:
        np.testing.assert_allclose(functions.compile_scalar_expr(desc)(x), expected, rtol=0, atol=0)


def test_log_floor_clips():
    desc = {"kind": "log", "child": {"kind": "identity"}, "floor": 0.1}
    x = np.array([-1.0, 0.05, 1.0])
    np.testing.assert_allclose(
        functions.compile_scalar_expr(desc)(x), np.log(np.maximum(x, 0.1))
    )


def test_unknown_kind_raises():
    with pytest.raises(UnknownFunctionDescriptor):
        functions.compile_scalar_expr({"kind": "sinh"})(np.zeros(3))


def test_compile_drift_matrix_forms():
    mat = [[0.0, 1.0], [-1.0, -0.5]]
    f = functions.compile_drift({"kind": "linear_matrix", "matrix": mat}, 2)
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    np.testing.assert_allclose(f(x), x @ np.asarray(mat).T)

    g = functions.compile_drift(
        {"kind": "affine_matrix", "matrix": mat, "offset": [1.0, -1.0]}, 2
    )
    np.testing.assert_allclose(g(x), x @ np.asarray(mat).T + np.array([1.0, -1.0]))


def test_compile_matrix_fn_shapes():
    h = functions.compile_matrix_fn({"kind": "const", "value": 0.5}, 1)
    out = h(np.zeros((7, 1)))
    assert out.shape == (7, 1, 1)
    np.testing.assert_allclose(out, 0.5)

    dl = functions.compile_matrix_fn({"kind": "diagonal_linear", "scale": [1.0, 2.0]}, 2)
    x = np.array([[1.0, 3.0]])
    out = dl(x)
    assert out.shape == (1, 2, 2)
    np.testing.assert_allclose(out[0], np.diag([1.0, 6.0]))


def test_obs_fn_affine_xy():
    f = functions.compile_obs_fn({"kind": "affine_xy", "a": 2.0, "c": 0.5, "intercept": 0.25}, 1, 1)
    x = np.array([[1.0], [2.0]])
    y = np.array([0.4])
    np.testing.assert_allclose(f(x, y), 2.0 * x - 0.5 * 0.4 + 0.25)


def test_obs_fn_state_expr():
    f = functions.compile_obs_fn(
        {"kind": "state_expr_minus_y", "expr": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, "c": 1.0},
        1,
        1,
    )
    x = np.array([[2.0], [-3.0]])
    np.testing.assert_allclose(f(x, np.array([1.0])), x**2 - 1.0)


def test_affine_coefficients_round_trip():
    slope, intercept = functions.affine_coefficients({"kind": "affine", "slope": -2.0, "intercept": 0.5})
    assert (slope, intercept) == (-2.0, 0.5)
    slope, intercept = functions.affine_coefficients({"kind": "const", "value": 1.25})
    assert (slope, intercept) == (0.0, 1.25)
    with pytest.raises(UnknownFunctionDescriptor):
        functions.affine_coefficients({"kind": "poly", "coeffs": [0.0, 1.0, 1.0]})


@given(a=finite, b=finite, x=st.lists(finite, min_size=1, max_size=8))
def test_affine_descriptor_evaluates_affinely(a, b, x):
    desc = {"kind": "affine", "slope": a, "intercept": b}
    arr = np.asarray(x)
    np.testing.assert_allclose(functions.compile_scalar_expr(desc)(arr), a * arr + b, rtol=1e-12, atol=1e-12)


@given(
    coeffs=st.lists(finite, min_size=1, max_size=5),
    x=finite,
)
def test_poly_matches_horner(coeffs, x):
    desc = {"kind": "poly", "coeffs": coeffs}
    direct = sum(c * x**k for k, c in enumerate(coeffs))
    got = float(functions.compile_scalar_expr(desc)(np.array([x]))[0])
    assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)


def _walk(desc, x):
    """The evaluator compile_scalar_expr replaced, kept as the oracle: it
    walks the descriptor tree, reading each kind and value, on every call."""
    kind = desc.get("kind")
    if kind == "const":
        return np.full_like(x, float(desc["value"]), dtype=float)
    if kind == "identity":
        return np.asarray(x, dtype=float)
    if kind == "affine":
        return float(desc["slope"]) * x + float(desc["intercept"])
    if kind == "poly":
        return np.polyval(np.asarray(desc["coeffs"], dtype=float)[::-1], x)
    if kind == "exp":
        return np.exp(_walk(desc["child"], x))
    if kind == "log":
        floor = float(desc.get("floor", 1e-300))
        return np.log(np.maximum(_walk(desc["child"], x), floor))
    if kind == "scale":
        return float(desc["factor"]) * _walk(desc["child"], x)
    if kind == "sum":
        out = np.zeros_like(np.asarray(x, dtype=float))
        for child in desc["children"]:
            out = out + _walk(child, x)
        return out
    if kind == "prod":
        out = np.ones_like(np.asarray(x, dtype=float))
        for child in desc["children"]:
            out = out * _walk(child, x)
        return out
    raise UnknownFunctionDescriptor(f"unknown scalar expression kind: {kind!r}")


_AFFINE = {"kind": "affine", "slope": -1.5, "intercept": 0.25}
_POLY = {"kind": "poly", "coeffs": [0.1, -2.0, 0.0, 3.0]}
_COMPILED_CASES = [
    {"kind": "const", "value": -0.0},
    {"kind": "const", "value": 3.5},
    {"kind": "identity"},
    _AFFINE,
    _POLY,
    {"kind": "poly", "coeffs": [2.0]},
    {"kind": "exp", "child": _AFFINE},
    {"kind": "log", "child": {"kind": "identity"}},
    {"kind": "log", "child": _POLY, "floor": 1e-12},
    {"kind": "scale", "factor": -2.5, "child": _POLY},
    {"kind": "sum", "children": []},
    {"kind": "sum", "children": [{"kind": "identity"}, {"kind": "const", "value": 1.0}, _POLY]},
    {"kind": "prod", "children": []},
    {"kind": "prod", "children": [_AFFINE, {"kind": "identity"}, {"kind": "exp", "child": {"kind": "identity"}}]},
    {
        "kind": "exp",
        "child": {
            "kind": "scale",
            "factor": 0.5,
            "child": {
                "kind": "sum",
                "children": [
                    {"kind": "log", "child": {"kind": "prod", "children": [_AFFINE, _AFFINE]}, "floor": 1e-300},
                    {"kind": "prod", "children": [{"kind": "scale", "factor": 3.0, "child": _POLY}, _AFFINE]},
                    {"kind": "exp", "child": {"kind": "log", "child": {"kind": "identity"}}},
                ],
            },
        },
    },
]


@pytest.mark.parametrize("desc", _COMPILED_CASES, ids=lambda d: d["kind"])
def test_compiled_expression_equals_the_tree_walk(desc):
    x = np.array([-1e300, -7.5e299, -3.0, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 7.5e299, 1e300])
    compiled = functions.compile_scalar_expr(desc)
    # the values near 1e300 overflow and some logs clip: inf and nan must
    # come out where the walk puts them
    with np.errstate(all="ignore"):
        for arg in (x, x[:, None], x[3:4]):
            got, want = compiled(arg), _walk(desc, arg)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "desc",
    [{"kind": "sinh"}, {"kind": "exp", "child": {"kind": "cosh"}}, {"kind": "sum", "children": [_AFFINE, {}]}],
)
def test_compiling_an_unknown_kind_raises(desc):
    with pytest.raises(UnknownFunctionDescriptor):
        functions.compile_scalar_expr(desc)
