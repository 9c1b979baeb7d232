"""Reference implementations for the tests.

* Per-sample forward and backward passes: exact-order, one-sample-at-a-time
  copies of the module's two halves and their gradients, built on
  ``numerics.vecmat`` and the ``matvec`` below rather than numpy matmul.
  The package's batched passes, ``luca.luca_forward_batch`` and
  ``luca.luca_backward_batch``, are held to them.
* ``softmax`` and ``shannon_entropy`` of one logits or probability vector,
  which ``engine.route`` computes for every row at once.
* ``fnv1a``: the byte-at-a-time 64-bit FNV-1a loop that ``engine.fnv1a``
  computes with numpy passes.
"""

import math

import numpy as np

from tosca.luca import LucaGradients, LucaModule
from tosca.numerics import activation, activation_grad, vecmat

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _U64
    return h


def matvec(m, v) -> np.ndarray:
    """Matrix times column vector, out[i] = sum_j m[i,j] v[j], j ascending."""
    m = np.asarray(m, dtype=np.float64)
    vv = np.asarray(v, dtype=np.float64).tolist()
    rows, cols = m.shape
    if len(vv) != cols:
        raise ValueError("dimension mismatch")
    rows_list = m.tolist()
    out = [0.0] * rows
    for i in range(rows):
        row = rows_list[i]
        acc = 0.0
        for j in range(cols):
            acc += row[j] * vv[j]
        out[i] = acc
    return np.array(out, dtype=np.float64)


def softmax(v) -> np.ndarray:
    """exp(v_k - max v) / sum_j exp(v_j - max v), the sum taken exactly."""
    v = [float(x) for x in v]
    top = max(v)
    e = [math.exp(x - top) for x in v]
    total = math.fsum(e)
    return np.array([x / total for x in e], dtype=np.float64)


def shannon_entropy(p) -> float:
    """-sum p ln p in nats, with 0 ln 0 == 0."""
    return -math.fsum(x * math.log(x) for x in map(float, p) if x > 0.0) + 0.0


def adapter_forward(z, m: LucaModule) -> np.ndarray:
    """act_a(z W_down) W_up + z for one sample."""
    z = np.asarray(z, dtype=np.float64)
    s = activation(m.config.adapter_act, vecmat(z, m.w_down))
    return vecmat(s, m.w_up) + z


def calibrator_forward(z, m: LucaModule) -> np.ndarray:
    """z * gate, gate = act_g(z V_down) V_up (+ 1 when gate_residual)."""
    z = np.asarray(z, dtype=np.float64)
    gate = vecmat(activation(m.config.gate_act, vecmat(z, m.v_down)), m.v_up)
    if m.config.gate_residual:
        gate = gate + 1.0
    return z * gate


def _adapter_backward(z, m, upstream):
    # returns (dW_down, dW_up, dz) for out = act(z Wd) Wu + z
    h = vecmat(z, m.w_down)
    s = activation(m.config.adapter_act, h)
    d_wup = np.outer(s, upstream)
    ds = matvec(m.w_up, upstream)
    dh = ds * activation_grad(m.config.adapter_act, h)
    d_wdown = np.outer(z, dh)
    dz = upstream + matvec(m.w_down, dh)
    return d_wdown, d_wup, dz


def _calibrator_backward(z, m, upstream):
    # returns (dV_down, dV_up, dz) for out = z * gate
    q = vecmat(z, m.v_down)
    t = activation(m.config.gate_act, q)
    gate = vecmat(t, m.v_up)
    if m.config.gate_residual:
        gate = gate + 1.0
    dz_direct = upstream * gate
    dgate = upstream * z
    d_vup = np.outer(t, dgate)
    dt = matvec(m.v_up, dgate)
    dq = dt * activation_grad(m.config.gate_act, q)
    d_vdown = np.outer(z, dq)
    dz = dz_direct + matvec(m.v_down, dq)
    return d_vdown, d_vup, dz


def luca_backward(z, m: LucaModule, upstream) -> LucaGradients:
    """Gradients of dot(upstream, luca_forward(z)) w.r.t. the four matrices and z."""
    z = np.asarray(z, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if z.shape != (m.d,) or upstream.shape != (m.d,):
        raise ValueError("dimension mismatch")
    if m.config.reversed:
        c = calibrator_forward(z, m)
        d_wdown, d_wup, dc = _adapter_backward(c, m, upstream)
        d_vdown, d_vup, dz = _calibrator_backward(z, m, dc)
    else:
        a = adapter_forward(z, m)
        d_vdown, d_vup, da = _calibrator_backward(a, m, upstream)
        d_wdown, d_wup, dz = _adapter_backward(z, m, da)
    return LucaGradients(w_down=d_wdown, w_up=d_wup, v_down=d_vdown, v_up=d_vup,
                         d_input=dz)
