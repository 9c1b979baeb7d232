"""Reference implementations for the tests.

* Per-sample forward and backward passes: exact-order, one-sample-at-a-time
  copies of the module's two halves and their gradients, built on
  ``numerics.vecmat`` and the ``matvec`` below rather than numpy matmul.
  The package's batched passes, ``luca.luca_forward_batch`` and
  ``luca.luca_backward_batch``, are held to them.
* ``softmax`` and ``shannon_entropy`` of one logits or probability vector,
  which ``engine.route`` computes for every row at once.
* ``route_float64``: entropy routing with rows, weights, logits, softmax and
  entropy all in float64.  ``engine.route`` runs the forward in float32 and
  must pick the same sessions and classes.
* ``fnv1a``: the byte-at-a-time 64-bit FNV-1a loop that ``engine.fnv1a``
  computes with numpy passes.
* ``polymul``: GF(2) polynomial multiplication modulo a polynomial, one bit
  at a time, which ``rng`` computes with byte tables for its jump-ahead.
* ``module_of``: a module built from its four matrices, which the package
  holds as one vector.
* ``train_epochs_reference``: the training loop in float32, with only the
  (B, K) softmax in float64.  Each step runs a batched forward and a
  backward that evaluates every activation derivative afresh on the
  module's own matrices, makes one ``sgd_l1_step`` call per matrix and
  writes each result back.  ``optim.train_epochs`` steps one flat vector
  and reuses the forward's activation values, and must give the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from tosca.luca import LucaConfig, LucaModule, l1_norm
from tosca.numerics import activation, activation_grad, softmax_rows, vecmat
from tosca.optim import cosine_lr, sgd_l1_step

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1


def module_of(w_down, w_up, v_down, v_up, config=None) -> LucaModule:
    """A module whose ``params`` is a copy of the four matrices, raveled
    in the order given; d and r are W_down's shape."""
    d, r = np.shape(w_down)
    params = np.concatenate([np.ravel(a) for a in (w_down, w_up, v_down, v_up)])
    return LucaModule(d, r, params, config or LucaConfig())


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _U64
    return h


def polymul(a: int, b: int, modulus: int) -> int:
    """a * b mod ``modulus`` over GF(2), by shift and xor: bit i of an int is
    the coefficient of x**i, and a, b are below the modulus's degree."""
    degree = modulus.bit_length() - 1
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a >> degree:
            a ^= modulus
    return product


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


def route_float64(Z, bank, normalize_entropy: bool = True):
    """(class ids, 1-based sessions) that least-entropy routing picks for
    the rows of Z, computed in float64 throughout.  A session scores
    entropy / ln K when ``normalize_entropy`` is set and the class counts
    differ; ties go to the lowest session and, within it, the lowest id."""
    Z = np.asarray(Z, dtype=np.float64)
    counts = [len(e.class_ids) for e in bank.entries]
    normalize = normalize_entropy and len(set(counts)) > 1
    scores, picks = [], []
    for e in bank.entries:
        cfg = e.module.config
        wd, wu, vd, vu = (a.astype(np.float64) for a in e.module.matrices())

        def adapter(X):
            return activation(cfg.adapter_act, X @ wd) @ wu + X

        def calibrator(X):
            gate = activation(cfg.gate_act, X @ vd) @ vu
            return X * (gate + 1.0 if cfg.gate_residual else gate)

        feats = (adapter(calibrator(Z)) if cfg.reversed
                 else calibrator(adapter(Z)))
        P = softmax_rows(feats @ e.head.w.astype(np.float64))
        h = -(P * np.log(np.where(P > 0.0, P, 1.0))).sum(axis=1)
        scores.append(h / math.log(len(e.class_ids)) if normalize else h)
        picks.append(np.asarray(e.class_ids)[np.argmax(P, axis=1)])
    chosen = np.argmin(np.stack(scores), axis=0)
    return np.stack(picks)[chosen, np.arange(Z.shape[0])], chosen + 1


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


@dataclass
class SampleGradients:
    """``luca_backward``'s result: the four weight gradients and, unlike the
    package's backward, the gradient with respect to the input row."""
    w_down: np.ndarray
    w_up: np.ndarray
    v_down: np.ndarray
    v_up: np.ndarray
    d_input: np.ndarray


def luca_backward(z, m: LucaModule, upstream) -> SampleGradients:
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
    return SampleGradients(w_down=d_wdown, w_up=d_wup, v_down=d_vdown,
                           v_up=d_vup, d_input=dz)


def _loss_grads_reference(m: LucaModule, head_w, Z, y_cols):
    # mean-CE batch loss and gradients in float32, with the softmax and the
    # cross-entropy of the logits in float64
    wd, wu, vd, vu = m.matrices()
    cfg = m.config

    def adapter(X):
        H = X @ wd
        S = activation(cfg.adapter_act, H)
        return S @ wu + X, (X, H, S)

    def calibrator(X):
        Q = X @ vd
        T = activation(cfg.gate_act, Q)
        G = T @ vu
        if cfg.gate_residual:
            G = G + 1.0
        return X * G, (X, Q, T, G)

    if cfg.reversed:
        C, c_cache = calibrator(Z)
        feats, a_cache = adapter(C)
    else:
        A, a_cache = adapter(Z)
        feats, c_cache = calibrator(A)
    B = Z.shape[0]
    P = softmax_rows((feats @ head_w).astype(np.float64))
    ce = float(-np.log(P[np.arange(B), y_cols] + 1e-300).sum())
    onehot = np.zeros_like(P)
    onehot[np.arange(B), y_cols] = 1.0
    dlogits = ((P - onehot) / B).astype(np.float32)
    d_head = feats.T @ dlogits
    U = dlogits @ head_w.T

    def adapter_grads(dOut):
        X, H, S = a_cache
        dH = (dOut @ wu.T) * activation_grad(cfg.adapter_act, H)
        return X.T @ dH, S.T @ dOut, dOut + dH @ wd.T

    def calibrator_grads(dOut):
        X, Q, T, G = c_cache
        dG = dOut * X
        dQ = (dG @ vu.T) * activation_grad(cfg.gate_act, Q)
        return X.T @ dQ, T.T @ dG, dOut * G + dQ @ vd.T

    if cfg.reversed:
        d_wdown, d_wup, dC = adapter_grads(U)
        d_vdown, d_vup, _ = calibrator_grads(dC)
    else:
        d_vdown, d_vup, dA = calibrator_grads(U)
        d_wdown, d_wup, _ = adapter_grads(dA)
    grads = {"w_down": d_wdown, "w_up": d_wup, "v_down": d_vdown,
             "v_up": d_vup}
    return ce, d_head, grads


def train_epochs_reference(module: LucaModule, head, data, cfg, rng):
    """``optim.train_epochs`` one matrix at a time, in float32 but for the
    logits' softmax; trains ``module`` and ``head`` in place and returns the
    loss trace."""
    Z = np.asarray(data.features, dtype=np.float32)
    col = {c: j for j, c in enumerate(head.class_ids)}
    y_cols = np.asarray([col[int(c)] for c in data.labels], dtype=np.int64)
    n = Z.shape[0]
    batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = batches * cfg.epochs
    mats = ["w_down", "w_up", "v_down", "v_up"]
    vel = {name: np.zeros_like(getattr(module, name))
           for name in mats} if cfg.momentum > 0.0 else None
    vel_head = np.zeros_like(head.w) if cfg.momentum > 0.0 else None
    step = 0
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_ce = 0.0
        for b in range(batches):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr = cosine_lr(step, total_steps, cfg)
            ce, d_head, grads = _loss_grads_reference(module, head.w, Z[idx],
                                                      y_cols[idx])
            epoch_ce += ce
            for name in mats:
                g = grads[name]
                if vel is not None:
                    vel[name] = cfg.momentum * vel[name] + g
                    g = vel[name]
                cur = getattr(module, name)
                cur[...] = sgd_l1_step(cur, g, lr, cfg.lambda_l1, cfg.l1_mode)
            g = d_head
            if vel_head is not None:
                vel_head[...] = cfg.momentum * vel_head + g
                g = vel_head
            head.w[...] = head.w - lr * g
            step += 1
        trace.append(epoch_ce / n + cfg.lambda_l1 * l1_norm(module))
    return trace
