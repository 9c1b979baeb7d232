"""Array numerics shared by every other module: the activations, their
derivatives, and the row softmax.

Parameters and features live in float32.  A kernel computes in the dtype
``float_array`` gives its input: float32 for training's and serving's
rows, float64 for ``luca.gradient_check``'s.  The constants are Python floats,
which do not promote a float32 array as an ``np.float64`` would (NEP 50).
Every forward and backward pass uses numpy matmul.  ``vecmat`` fixes the
exact accumulation order (ascending index); no pass in the package calls
it.  It is kept for the benchmark tracer's ``numerics.vecmat`` seam and
for the per-sample reference forwards and backward in the tests, which the
batched passes are held to.

``activation(kind, x, return_cache=True)`` also returns the one value the
derivative shares with the forward: Phi(x) for gelu, sigma(x) for the
sigmoid (the output itself), and None for relu.  ``activation_grad`` takes
it back as ``cache`` and then evaluates no ``erf`` or sigmoid: gelu's
derivative is ``cdf + x * pdf`` and the sigmoid's ``T * (1 - T)``.  Without a
cache it computes the same value with the same operations, so both routes
give the same bits.

Each function builds its temporaries in place, in the operation order of
its formula, so the bits are those of the formula written out.  The first
step writes into ``np.empty_like`` of the input, which keeps a 0-d input an
array that the in-place steps can update.  No function but
``flush_subnormals`` writes to its inputs or to a cache.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

ACTIVATIONS = ("relu", "gelu", "sigmoid")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def float_array(x) -> np.ndarray:
    """``x`` as a float32 array if it is float32, else as float64; an array
    already in that dtype is not copied."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; one division serves both signs of x
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    # Phi(x), the standard normal CDF
    cdf = np.divide(x, _SQRT2, out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def activation(kind: str, x, return_cache: bool = False):
    """Elementwise nonlinearity; gelu uses the exact erf form x*Phi(x).

    With ``return_cache`` it returns ``(out, cache)``, where ``cache`` is
    what ``activation_grad`` reuses: Phi(x) for gelu, ``out`` itself for the
    sigmoid, None for relu.  The result has ``float_array(x)``'s dtype.
    """
    x = float_array(x)
    if kind == "relu":
        out, cache = np.maximum(x, 0.0), None
    elif kind == "gelu":
        cache = _gelu_cdf(x)
        out = x * cache
    elif kind == "sigmoid":
        out = cache = _stable_sigmoid(x)
    else:
        raise ValueError(f"unknown activation {kind!r}")
    return (out, cache) if return_cache else out


def activation_grad(kind: str, x, cache=None) -> np.ndarray:
    """Derivative of ``activation`` at x (relu subgradient at 0 is 0).

    ``cache`` is the value ``activation(kind, x, return_cache=True)``
    returned for the same x; without it, the shared value is recomputed.
    The result has ``float_array(x)``'s dtype.
    """
    x = float_array(x)
    if kind == "relu":
        return (x > 0).astype(x.dtype)
    if kind == "gelu":
        cdf = _gelu_cdf(x) if cache is None else cache
        grad = np.multiply(-0.5, x, out=np.empty_like(x))
        grad *= x
        np.exp(grad, out=grad)
        grad *= _INV_SQRT_2PI  # the pdf
        grad *= x
        grad += cdf
        return grad
    if kind == "sigmoid":
        s = _stable_sigmoid(x) if cache is None else cache
        grad = np.subtract(1.0, s, out=np.empty_like(s))
        grad *= s
        return grad
    raise ValueError(f"unknown activation {kind!r}")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of every row in float64, whatever the logits' dtype: the
    logits go up to float64, then each row takes off its max, exps and
    divides by its sum.  Finite logits are the caller's to check."""
    logits = np.asarray(logits, dtype=np.float64)
    P = logits - logits.max(axis=1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=1, keepdims=True)
    return P


def flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Zero every entry of ``a`` below ``finfo(a.dtype).tiny`` in magnitude,
    in place, and return ``a``: an x86 multiply takes a microcode assist on
    a subnormal operand, so a matmul that reads many runs many times slower."""
    a[np.abs(a) < np.finfo(a.dtype).tiny] = 0.0
    return a


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
