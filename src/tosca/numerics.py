"""Array numerics shared by every other module: the activations, their
derivatives, and the row softmax.

Parameters and features live in float32; everything here computes in
float64.  Every forward and backward pass uses numpy matmul.  ``vecmat``
fixes the exact accumulation order (ascending index); no pass in the package
calls it.  It is kept for the benchmark tracer's ``numerics.vecmat`` seam and
for the per-sample reference forwards and backward in the tests, which the
batched passes are held to.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

ACTIVATIONS = ("relu", "gelu", "sigmoid")

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows, so both branches are safe to evaluate
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def activation(kind: str, x) -> np.ndarray:
    """Elementwise nonlinearity; gelu uses the exact erf form x*Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "gelu":
        return x * 0.5 * (1.0 + erf(x / _SQRT2))
    if kind == "sigmoid":
        return _stable_sigmoid(x)
    raise ValueError(f"unknown activation {kind!r}")


def activation_grad(kind: str, x) -> np.ndarray:
    """Derivative of ``activation`` (relu subgradient at 0 is 0)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.where(x > 0, 1.0, 0.0)
    if kind == "gelu":
        cdf = 0.5 * (1.0 + erf(x / _SQRT2))
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return cdf + x * pdf
    if kind == "sigmoid":
        s = _stable_sigmoid(x)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {kind!r}")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of every row: subtract the row max, exp, divide by the row
    sum.  Finite logits are the caller's to check."""
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    return P


def vecmat(v, m) -> np.ndarray:
    """Row-vector times matrix, out[j] = sum_i v[i] m[i,j], i ascending."""
    m = np.asarray(m, dtype=np.float64)
    vv = np.asarray(v, dtype=np.float64).tolist()
    rows, cols = m.shape
    if len(vv) != rows:
        raise ValueError("dimension mismatch")
    rows_list = m.tolist()
    out = [0.0] * cols
    for i in range(rows):
        vi = vv[i]
        row = rows_list[i]
        for j in range(cols):
            out[j] += vi * row[j]
    return np.array(out, dtype=np.float64)
