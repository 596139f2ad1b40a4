"""Serializable descriptors for model coefficient functions.

Scenario files must round-trip exactly, so drift, diffusion, jump-loading,
and observation maps are restricted to a closed catalogue of descriptors
(JSON dictionaries) rather than arbitrary callables.  Scalar descriptors
form a small expression tree; matrix descriptors cover the linear algebra
needed by multivariate models.

Scalar expression kinds::

    {"kind": "const", "value": c}
    {"kind": "identity"}
    {"kind": "affine", "slope": a, "intercept": b}         a*x + b
    {"kind": "poly", "coeffs": [c0, c1, ...]}              sum ck x^k
    {"kind": "exp", "child": E}
    {"kind": "log", "child": E, "floor": f}                log(max(E, f))
    {"kind": "scale", "factor": c, "child": E}
    {"kind": "sum", "children": [E, ...]}
    {"kind": "prod", "children": [E, ...]}

Observation-map kinds (f(x, y), y held piecewise constant between events)::

    {"kind": "affine_xy", "a": A, "c": C, "intercept": b}  A x - C y + b
    {"kind": "state_expr_minus_y", "expr": E, "c": C}      E(x) - C y

Vector/matrix kinds for dimension m > 1::

    {"kind": "linear_matrix", "matrix": [[...]]}
    {"kind": "affine_matrix", "matrix": [[...]], "offset": [...]}
    {"kind": "constant_vector", "value": [...]}
    {"kind": "constant_matrix", "value": [[...]]}
    {"kind": "diagonal_linear", "scale": [...]}            diag(scale * x)
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import UnknownFunctionDescriptor

__all__ = [
    "eval_scalar_expr",
    "compile_drift",
    "compile_matrix_fn",
    "compile_diffusion_apply",
    "compile_obs_fn",
    "affine_coefficients",
    "obs_affine_coefficients",
]

Descriptor = dict[str, Any]

_SCALAR_KINDS = {"const", "identity", "affine", "poly", "exp", "log", "scale", "sum", "prod"}


def eval_scalar_expr(desc: Descriptor, x: np.ndarray) -> np.ndarray:
    kind = desc.get("kind")
    if kind == "const":
        return np.full_like(x, float(desc["value"]), dtype=float)
    if kind == "identity":
        return np.asarray(x, dtype=float)
    if kind == "affine":
        return float(desc["slope"]) * x + float(desc["intercept"])
    if kind == "poly":
        coeffs = np.asarray(desc["coeffs"], dtype=float)
        # polyval wants highest degree first
        return np.polyval(coeffs[::-1], x)
    if kind == "exp":
        return np.exp(eval_scalar_expr(desc["child"], x))
    if kind == "log":
        floor = float(desc.get("floor", 1e-300))
        return np.log(np.maximum(eval_scalar_expr(desc["child"], x), floor))
    if kind == "scale":
        return float(desc["factor"]) * eval_scalar_expr(desc["child"], x)
    if kind == "sum":
        out = np.zeros_like(np.asarray(x, dtype=float))
        for child in desc["children"]:
            out = out + eval_scalar_expr(child, x)
        return out
    if kind == "prod":
        out = np.ones_like(np.asarray(x, dtype=float))
        for child in desc["children"]:
            out = out * eval_scalar_expr(child, x)
        return out
    raise UnknownFunctionDescriptor(f"unknown scalar expression kind: {kind!r}")


def compile_drift(desc: Descriptor, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a drift descriptor to a map (N, m) -> (N, m)."""
    kind = desc.get("kind")
    if m == 1 and kind in _SCALAR_KINDS:
        return lambda x: eval_scalar_expr(desc, np.asarray(x, dtype=float))
    if kind == "linear_matrix":
        mat = _as_matrix(desc["matrix"], m, m)
        return lambda x: np.einsum("ij,nj->ni", mat, x)
    if kind == "affine_matrix":
        mat = _as_matrix(desc["matrix"], m, m)
        off = _as_vector(desc["offset"], m)
        return lambda x: np.einsum("ij,nj->ni", mat, x) + off
    if kind == "constant_vector":
        vec = _as_vector(desc["value"], m)
        return lambda x: np.broadcast_to(vec, x.shape).copy()
    raise UnknownFunctionDescriptor(f"unknown drift descriptor kind for m={m}: {kind!r}")


def compile_matrix_fn(desc: Descriptor, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a diffusion / jump-loading descriptor to (N, m) -> (N, m, m)."""
    kind = desc.get("kind")
    if m == 1 and kind in _SCALAR_KINDS:
        def scalar_fn(x: np.ndarray) -> np.ndarray:
            vals = eval_scalar_expr(desc, np.asarray(x, dtype=float)[..., 0])
            return vals[..., None, None]

        return scalar_fn
    if kind == "constant_matrix":
        mat = _as_matrix(desc["value"], m, m)
        return lambda x: np.broadcast_to(mat, x.shape[:-1] + (m, m)).copy()
    if kind == "diagonal_linear":
        scale = _as_vector(desc["scale"], m)

        def diag_fn(x: np.ndarray) -> np.ndarray:
            out = np.zeros(x.shape[:-1] + (m, m))
            idx = np.arange(m)
            out[..., idx, idx] = scale * x
            return out

        return diag_fn
    raise UnknownFunctionDescriptor(f"unknown matrix descriptor kind for m={m}: {kind!r}")


def compile_diffusion_apply(desc: Descriptor, m: int, matrix_fn: Callable) -> Callable[..., np.ndarray]:
    """Compile a diffusion descriptor, whose compile_matrix_fn is `matrix_fn`,
    to (x (N, m), z (N, m), out=None) -> B(x) z.

    The product is the one `einsum("nij,nj->ni", B(x), z)` gives, bit for
    bit: a scalar descriptor (m = 1) is one multiplication with no (N, 1, 1)
    tensor, and matrix descriptors build the tensor and contract it.  The
    result goes into `out` when given (it must not overlap z), else into a
    new array.
    """
    kind = desc.get("kind")
    if m == 1 and kind == "const":
        b = float(desc["value"])
        return lambda x, z, out=None: np.multiply(b, z, out=out)
    if m == 1 and kind in _SCALAR_KINDS:
        return lambda x, z, out=None: np.multiply(eval_scalar_expr(desc, np.asarray(x, dtype=float)), z, out=out)
    return lambda x, z, out=None: np.einsum("nij,nj->ni", matrix_fn(x), z, out=out)


def compile_obs_fn(desc: Descriptor, m: int, n: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an observation-map descriptor to (X (N, m), y (n,)) -> (N, n)."""
    kind = desc.get("kind")
    if kind == "affine_xy":
        a = _as_matrix(desc["a"], n, m)
        c = _as_matrix(desc["c"], n, n)
        b = _as_vector(desc.get("intercept", 0.0), n)

        def obs_affine(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            # y may be one level (n,) shared by all rows or one level per row (N, n)
            y2 = np.atleast_2d(np.asarray(y, dtype=float))
            return np.einsum("ij,nj->ni", a, x) - np.einsum("ij,nj->ni", c, y2) + b

        return obs_affine
    if kind == "state_expr_minus_y":
        if m != 1 or n != 1:
            raise UnknownFunctionDescriptor("state_expr_minus_y requires m = n = 1")
        expr = desc["expr"]
        cy = float(desc.get("c", 0.0))

        def obs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            vals = eval_scalar_expr(expr, np.asarray(x, dtype=float)[..., 0])
            y2 = np.atleast_2d(np.asarray(y, dtype=float))
            return vals[..., None] - cy * y2

        return obs
    raise UnknownFunctionDescriptor(f"unknown observation descriptor kind: {kind!r}")


def affine_coefficients(desc: Descriptor) -> tuple[float, float]:
    """(slope, intercept) of an affine scalar descriptor.

    Raises UnknownFunctionDescriptor for any descriptor that is not affine.
    """
    kind = desc.get("kind")
    if kind == "const":
        return 0.0, float(desc["value"])
    if kind == "identity":
        return 1.0, 0.0
    if kind == "affine":
        return float(desc["slope"]), float(desc["intercept"])
    if kind == "poly" and len(desc["coeffs"]) <= 2:
        coeffs = list(desc["coeffs"]) + [0.0, 0.0]
        return float(coeffs[1]), float(coeffs[0])
    if kind == "scale":
        s, i = affine_coefficients(desc["child"])
        return float(desc["factor"]) * s, float(desc["factor"]) * i
    if kind == "sum":
        slope = intercept = 0.0
        for child in desc["children"]:
            s, i = affine_coefficients(child)
            slope += s
            intercept += i
        return slope, intercept
    raise UnknownFunctionDescriptor(f"descriptor is not affine: {desc.get('kind')!r}")


def obs_affine_coefficients(desc: Descriptor) -> tuple[float, float, float]:
    """(a, c, intercept) with f(x, y) = a x - c y + intercept.

    Scalar observation maps only; raises UnknownFunctionDescriptor for any
    other map.  Used to detect linear-Gaussian scenarios.
    """
    kind = desc.get("kind")
    if kind == "affine_xy":
        a = np.atleast_2d(np.asarray(desc["a"], dtype=float))
        c = np.atleast_2d(np.asarray(desc["c"], dtype=float))
        if a.shape == (1, 1) and c.shape == (1, 1):
            return float(a[0, 0]), float(c[0, 0]), float(np.asarray(desc.get("intercept", 0.0)).reshape(-1)[0])
    if kind == "state_expr_minus_y":
        slope, intercept = affine_coefficients(desc["expr"])
        return slope, float(desc.get("c", 0.0)), intercept
    raise UnknownFunctionDescriptor(f"observation map is not scalar affine: {kind!r}")


def _as_matrix(value: Any, rows: int, cols: int) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    if mat.shape != (rows, cols):
        raise UnknownFunctionDescriptor(f"expected a {rows}x{cols} matrix, got shape {mat.shape}")
    return mat


def _as_vector(value: Any, size: int) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(value, dtype=float)).reshape(-1)
    if vec.size == 1 and size > 1:
        vec = np.full(size, vec[0])
    if vec.shape != (size,):
        raise UnknownFunctionDescriptor(f"expected a length-{size} vector, got shape {vec.shape}")
    return vec
