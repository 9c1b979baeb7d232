"""Array numerics shared by every other module: the activations, their
derivatives, and the softmax.

Parameters and features live in float32.  A kernel computes in the dtype
``float_array`` gives its input: float32 for training's and serving's
rows, float64 for ``luca.gradient_check``'s.  Each activation is one kernel
for both dtypes, built from numpy ufuncs alone; only ``erf`` chooses its
method by dtype.  The activations' constants are 0-d arrays: an in-place
op with one costs about 1.0 us on a 1 x 48 array, against 1.6-1.9 us
with a Python float.  Those that float32 holds exactly are float32, which
does not promote a float64 input; gelu's 1/sqrt(2) and 1/sqrt(2 pi) come
in the input's dtype, so a float64 gelu keeps its precision.
Every forward and backward pass uses numpy matmul.  ``vecmat`` fixes the
exact accumulation order (ascending index); no pass in the package calls
it.  It is kept for the benchmark tracer's ``numerics.vecmat`` seam and
for the per-sample reference forwards and backward in the tests, which the
batched passes are held to.

A float32 ``erf`` is the odd rational form x * P(x^2) / Q(x^2) on x
clamped to [-c, c], P of degree 6 and Q monic of degree 5: the form Eigen
and XLA use for float32 erf, with coefficients that ``tools/erf_fit.py``
derives here by a reweighted least-squares fit to ``math.erf`` (relative
error 2.3e-9; ``tests/test_erf_fit.py`` holds the committed constants to
the script).  It computes in float64, from ``+``, ``*``, ``/``, ``minimum``
and ``maximum`` alone, so its bits do not depend on the CPU's vector
extensions, and rounds once to float32: within 0.54 ulp of ``math.erf`` on
[-6, 6], and Phi = 0.5 * erf(x / sqrt 2) + 0.5 within 6.0e-8 of its
float64 value.  The rational rises to 1 - 2**-26 at c = 4.02, so float32
erf is exactly +-1 from c on and float32 Phi exactly 0 below -5.54 and 1
above 5.34: the tails are flat, and no gelu output is subnormal.  A
float64 ``erf``, which only ``gradient_check``'s small arrays take, is
``math.erf`` entry by entry: the fit's 2.3e-9 would leave gelu's
derivative ``cdf + x * pdf`` 1e-7 from the derivative of its forward.  The
sigmoid is 0.5 * tanh(x / 2) + 0.5, within 6.0e-8 of the float64 logistic,
exactly 0 below -20 and 1 above 17.32, and never subnormal either.  Only
``exp`` and ``tanh`` tie a float32 activation's bits to numpy's dispatch
level.

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

ACTIVATIONS = ("relu", "gelu", "sigmoid")


def _f32(v: float) -> np.ndarray:
    return np.asarray(v, dtype=np.float32)


_ZERO, _HALF, _ONE, _NEG_HALF = _f32(0.0), _f32(0.5), _f32(1.0), _f32(-0.5)


def _by_dtype(v: float) -> dict:
    # a constant that float32 does not hold exactly, in each kernel dtype
    return {np.dtype(t): np.asarray(v, dtype=t) for t in (np.float32, np.float64)}


_INV_SQRT2 = _by_dtype(1.0 / math.sqrt(2.0))
_INV_SQRT_2PI = _by_dtype(1.0 / math.sqrt(2.0 * math.pi))

# float32 erf's clamp and coefficients (highest degree first; Q is monic),
# from ``python3 tools/erf_fit.py``; float64, the dtype erf computes in
_ERF_CLAMP = np.asarray(4.0226259455222975)
_ERF_FLOOR = -_ERF_CLAMP
_ERF_P = tuple(map(np.asarray, (
    -0.0002139919872146934, 0.07467585446033284, 5.985708500857292,
    60.30053435267116, 849.6957370341902, 2892.8369929692813,
    17624.507416811724)))
_ERF_Q = tuple(map(np.asarray, (
    20.534467689389587, 242.04776341884346, 1781.132374728206,
    7770.149135674612, 15619.312983993186)))
_MATH_ERF = np.frompyfunc(math.erf, 1, 1)  # float64 erf


def float_array(x) -> np.ndarray:
    """``x`` as a float32 array if it is float32, else as float64; an array
    already in that dtype is not copied."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def erf(x, out=None) -> np.ndarray:
    """The error function, written into ``out``, which may be ``x`` itself,
    or else into a new array of ``float_array(x)``'s dtype: ``math.erf``
    entry by entry for float64, and for float32 the rational fit, computed
    in float64 and rounded once."""
    x = float_array(x)
    if x.dtype == np.float64:
        y = np.asarray(_MATH_ERF(x), dtype=np.float64)
        if out is None:
            return y
        out[...] = y
        return out
    y = x.astype(np.float64)
    np.minimum(y, _ERF_CLAMP, out=y)
    np.maximum(y, _ERF_FLOOR, out=y)
    t = np.multiply(y, y, out=np.empty_like(y))
    pq = np.multiply(t, _ERF_P[0], out=np.empty_like(y))
    for a in _ERF_P[1:-1]:
        pq += a
        pq *= t
    pq += _ERF_P[-1]
    y *= pq
    np.add(t, _ERF_Q[0], out=pq)
    for b in _ERF_Q[1:]:
        pq *= t
        pq += b
    return np.divide(y, pq, out=np.empty_like(x) if out is None else out)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 tanh(x / 2) + 0.5: tanh saturates at -1, so no output is subnormal
    s = np.multiply(x, _HALF, out=np.empty_like(x))
    np.tanh(s, out=s)
    s *= _HALF
    s += _HALF
    return s


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    # Phi(x), the standard normal CDF
    cdf = np.multiply(x, _INV_SQRT2[x.dtype], out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf *= _HALF
    cdf += _HALF
    return cdf


def activation(kind: str, x, return_cache: bool = False):
    """Elementwise nonlinearity; gelu uses the exact erf form x*Phi(x).

    With ``return_cache`` it returns ``(out, cache)``, where ``cache`` is
    what ``activation_grad`` reuses: Phi(x) for gelu, ``out`` itself for the
    sigmoid, None for relu.  The result has ``float_array(x)``'s dtype.
    """
    x = float_array(x)
    if kind == "relu":
        out, cache = np.maximum(x, _ZERO), None
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
        grad = np.multiply(_NEG_HALF, x, out=np.empty_like(x))
        grad *= x
        np.exp(grad, out=grad)
        grad *= _INV_SQRT_2PI[x.dtype]  # the pdf
        grad *= x
        grad += cdf
        return grad
    if kind == "sigmoid":
        s = _stable_sigmoid(x) if cache is None else cache
        grad = np.subtract(_ONE, s, out=np.empty_like(s))
        grad *= s
        return grad
    raise ValueError(f"unknown activation {kind!r}")


def softmax_rows(logits: np.ndarray, out=None) -> np.ndarray:
    """Softmax along the last axis in float64, whatever the logits' dtype:
    the logits go up to float64, then each row takes off its max, exps and
    divides by its sum.  ``out``, a float64 array of the logits' shape,
    may be the logits themselves.  Finite logits are the caller's to
    check."""
    logits = np.asarray(logits, dtype=np.float64)
    P = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
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
