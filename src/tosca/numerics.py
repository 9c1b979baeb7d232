"""Scalar/vector numeric primitives shared by every other module.

Parameters and features live in float32; every reduction here accumulates in
float64.  Every forward and backward pass, single-row or batched, uses numpy
matmul.  ``vecmat`` fixes the exact accumulation order (ascending index); no
pass in the package calls it.  It is kept for the benchmark tracer's
``numerics.vecmat`` seam and for the per-sample reference backward in the
tests, which the batched pass is held to.
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


def activation(kind: str, x):
    """Elementwise nonlinearity; gelu uses the exact erf form x*Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        out = np.maximum(x, 0.0)
    elif kind == "gelu":
        out = x * 0.5 * (1.0 + erf(x / _SQRT2))
    elif kind == "sigmoid":
        out = _stable_sigmoid(x)
    else:
        raise ValueError(f"unknown activation {kind!r}")
    return float(out) if out.ndim == 0 else out


def activation_grad(kind: str, x):
    """Derivative of ``activation`` (relu subgradient at 0 is 0)."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        out = np.where(x > 0, 1.0, 0.0)
    elif kind == "gelu":
        cdf = 0.5 * (1.0 + erf(x / _SQRT2))
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        out = cdf + x * pdf
    elif kind == "sigmoid":
        s = _stable_sigmoid(x)
        out = s * (1.0 - s)
    else:
        raise ValueError(f"unknown activation {kind!r}")
    return float(out) if out.ndim == 0 else out


def softmax(v) -> np.ndarray:
    """Numerically stable softmax of a logits vector (max subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite logits")
    e = np.exp(v - v.max())
    return e / e.sum()


def shannon_entropy(p) -> float:
    """Entropy in nats, -sum p ln p with 0 ln 0 == 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty distribution")
    if np.any(p < 0.0) or np.any(p > 1.0) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("not a probability vector")
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


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
