"""The per-session trainable module: a residual bottleneck adapter composed
with a multiplicative feature calibrator, plus its manual backward pass.

Shapes (z is a row vector of length d, r << d):

    adapter     A(z) = act_a(z W_down) W_up + z          W_down: d x r, W_up: r x d
    calibrator  C(z) = z * (act_g(z V_down) V_up [+ 1])  V_down: d x r, V_up: r x d
    module      L(z) = C(A(z))   (or A(C(z)) when reversed)

The gate's ``+ 1`` residual is optional (``gate_residual``); the default is
the plain multiplicative form.  There are no bias terms anywhere.

A module's weights are one vector, ``LucaModule.params``, laid out by
``matrix_views``; its four matrices are views of it.

``luca_forward_batch`` and ``luca_backward_batch`` are the passes;
``luca_forward`` scores one sample as a one-row batch.  A training forward
(``return_cache=True``) keeps, beside each half's pre-activation, what its
activation derivative shares with the forward: gelu's Phi, the sigmoid's
output.  The backward hands that to ``activation_grad``, so a training step
evaluates each ``erf`` and sigmoid once.  The forward computes in its rows'
dtype (``numerics.float_array``), the backward in its upstream's: float32
in training, float64 in ``gradient_check``.  The backward writes the four
weight gradients into the ``matrix_views`` of one flat vector, ``out``,
and nothing else: the module sits on frozen features, so no gradient flows
below it and its input gradient is never computed.  Each backward array
that a matmul reads and that float32 can underflow is flushed of
subnormals (``numerics.flush_subnormals``) first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# vecmat: unused here, but the benchmark tracer's numerics.vecmat seam wraps it
from .numerics import (ACTIVATIONS, activation, activation_grad, float_array,
                       flush_subnormals, vecmat)
from .rng import Xoshiro256StarStar

INIT_STD = 0.02


@dataclass
class LucaConfig:
    adapter_act: str = "gelu"
    gate_act: str = "sigmoid"
    gate_residual: bool = False
    reversed: bool = False

    def __post_init__(self):
        for kind in (self.adapter_act, self.gate_act):
            if kind not in ACTIVATIONS:
                raise ValueError(f"unknown activation {kind!r}")
        for name in ("gate_residual", "reversed"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got "
                                 f"{getattr(self, name)!r}")


@dataclass
class LucaModule:
    """``params`` holds the 4*d*r weights, laid out by ``matrix_views``; the
    read-only ``w_down``, ``w_up``, ``v_down`` and ``v_up`` are views of it."""
    d: int
    r: int
    params: np.ndarray
    config: LucaConfig = field(default_factory=LucaConfig)

    w_down = property(lambda self: self.matrices()[0])
    w_up = property(lambda self: self.matrices()[1])
    v_down = property(lambda self: self.matrices()[2])
    v_up = property(lambda self: self.matrices()[3])

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")
        shape = (4 * self.d * self.r,)
        if self.params.shape != shape:
            raise ValueError(f"params has shape {self.params.shape}, "
                             f"expected {shape}")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("params contains non-finite entries")

    @property
    def param_count(self) -> int:
        return self.params.size

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return matrix_views(self.params, self.d, self.r)

    def flat_params(self) -> np.ndarray:
        """A float64 copy of ``params``."""
        return self.params.astype(np.float64)


def matrix_views(flat: np.ndarray, d: int, r: int):
    """(W_down, W_up, V_down, V_up), each row-major, as views of one vector
    of 4*d*r entries: the layout of ``LucaModule.params``, of training's
    gradient vector and of a bank entry.  Writing a view writes the vector."""
    n = d * r
    return (flat[:n].reshape(d, r), flat[n:2 * n].reshape(r, d),
            flat[2 * n:3 * n].reshape(d, r), flat[3 * n:].reshape(r, d))


def init_luca(d: int, r: int, config: LucaConfig | None = None, rng_seed: int = 0,
              dtype=np.float32) -> LucaModule:
    """Seeded init: W_down, V_down, V_up ~ N(0, 0.02), W_up = 0.

    Draw order is W_down, V_down, V_up, each row-major, from one
    xoshiro256** stream, so equal seeds give bit-identical modules.  The
    zero W_up makes the adapter start as the exact identity.
    """
    if d < 1 or r < 1:
        raise ValueError("dimensions must be positive")
    config = config or LucaConfig()
    draws = Xoshiro256StarStar(rng_seed).normals(3 * d * r, std=INIT_STD)
    n = d * r
    params = np.concatenate([draws[:n], np.zeros(n), draws[n:]], dtype=dtype)
    return LucaModule(d=d, r=r, params=params, config=config)


def luca_forward(z, m: LucaModule) -> np.ndarray:
    """Full module: calibrator(adapter(z)), or adapter(calibrator(z)) if reversed.

    One row through ``luca_forward_batch``, so a sample gives the same bits
    whether it is scored alone or as a one-row batch.
    """
    z = float_array(z)
    if z.shape != (m.d,):
        raise ValueError("dimension mismatch")
    return luca_forward_batch(z[None, :], m)[0]


# ---------------------------------------------------------------------------
# Batched path (numpy matmul), which ``luca_forward`` also runs.  Rows of Z
# are samples; gradients are summed over the batch, so pre-scaled upstreams
# give batch means directly.  Each half of the module has one forward and one
# gradient formula; the composition order only decides which half runs first.
# Each builds its temporaries in place, in the operation order of the formula
# in its comment, and none writes to its inputs or to a cache.

def _adapter_rows(X, wd, wu, cfg: LucaConfig, keep: bool):
    # (out, cache) for out = act_a(X W_down) W_up + X; with ``keep`` the
    # cache is (X, H, S, Sc), Sc being activation's cache for H, else None
    H = X @ wd
    S, Sc = activation(cfg.adapter_act, H, return_cache=True)
    out = S @ wu
    out += X
    return out, ((X, H, S, Sc) if keep else None)


def _calibrator_rows(X, vd, vu, cfg: LucaConfig, keep: bool):
    # (out, cache) for out = X * G, G = act_g(X V_down) V_up (+ 1); with
    # ``keep`` the cache is (X, Q, T, G, Tc), Tc being activation's cache for Q
    Q = X @ vd
    T, Tc = activation(cfg.gate_act, Q, return_cache=True)
    G = T @ vu
    if cfg.gate_residual:
        G += 1.0
    if not keep:
        G *= X  # the gate is not kept, so the output takes its place
        return G, None
    return X * G, (X, Q, T, G, Tc)


def _adapter_grads(cache, wd, wu, cfg: LucaConfig, dOut, d_wd, d_wu,
                   need_input: bool):
    # writes dW_down = X^T dH and dW_up = S^T dOut into d_wd and d_wu, given
    # _adapter_rows' cache and upstream dOut, with
    # dH = flush((dOut W_up^T) * act_a'(H)); returns dX = dOut + dH W_down^T
    # if need_input, else None
    X, H, S, Sc = cache
    dH = dOut @ wu.T
    dH *= activation_grad(cfg.adapter_act, H, Sc)
    flush_subnormals(dH)
    np.matmul(X.T, dH, out=d_wd)
    np.matmul(S.T, dOut, out=d_wu)
    if not need_input:
        return None
    dX = dH @ wd.T
    dX += dOut
    return dX


def _calibrator_grads(cache, vd, vu, cfg: LucaConfig, dOut, d_vd, d_vu,
                      need_input: bool):
    # writes dV_down = X^T dQ and dV_up = T^T dG into d_vd and d_vu, given
    # _calibrator_rows' cache and upstream dOut, with dG = flush(dOut * X)
    # and dQ = flush((dG V_up^T) * act_g'(Q)); returns
    # dX = flush(dOut * G + dQ V_down^T) if need_input, else None.  flush is
    # numerics.flush_subnormals.
    X, Q, T, G, Tc = cache
    dG = flush_subnormals(dOut * X)
    dQ = dG @ vu.T
    dQ *= activation_grad(cfg.gate_act, Q, Tc)
    flush_subnormals(dQ)
    np.matmul(X.T, dQ, out=d_vd)
    np.matmul(T.T, dG, out=d_vu)
    if not need_input:
        return None
    dX = dOut * G
    dX += dQ @ vd.T
    return flush_subnormals(dX)


def _matrices_as(m: LucaModule, dtype):
    # (W_down, W_up, V_down, V_up) in dtype; params already in it is not
    # copied
    return matrix_views(np.asarray(m.params, dtype=dtype), m.d, m.r)


def luca_forward_batch(Z: np.ndarray, m: LucaModule, return_cache: bool = False):
    """Module output for every row of Z.

    With ``return_cache`` it also returns the pair that
    ``luca_backward_batch`` takes: the adapter's ``(X, H, S, Sc)`` and the
    calibrator's ``(X, Q, T, G, Tc)``, i.e. each half's input rows,
    pre-activation, activation, (calibrator only) gate, and the activation
    cache that ``activation_grad`` reuses (gelu's Phi(H), the sigmoid's
    output, None for relu), whichever half runs first.  It computes in
    ``float_array(Z)``'s dtype, so float32 rows and weights copy neither.
    """
    Z = float_array(Z)
    wd, wu, vd, vu = _matrices_as(m, Z.dtype)
    cfg = m.config
    if cfg.reversed:
        C, calibrator_cache = _calibrator_rows(Z, vd, vu, cfg, return_cache)
        out, adapter_cache = _adapter_rows(C, wd, wu, cfg, return_cache)
    else:
        A, adapter_cache = _adapter_rows(Z, wd, wu, cfg, return_cache)
        out, calibrator_cache = _calibrator_rows(A, vd, vu, cfg, return_cache)
    if return_cache:
        return out, (adapter_cache, calibrator_cache)
    return out


def luca_backward_batch(m: LucaModule, cache, U: np.ndarray,
                        out: np.ndarray) -> None:
    """Write the batch-summed weight gradients of
    sum(U * luca_forward_batch(Z)), given the forward's cache, into ``out``:
    a vector of 4*d*r entries laid out as ``m.params``, each matrix in its
    ``matrix_views`` slice.  It computes in ``float_array(U)``'s dtype,
    which should be the cache's and ``out``'s.  Only the half that runs
    first computes its input gradient, which is the other half's upstream;
    the module's own input gradient is not computed.
    """
    U = float_array(U)
    wd, wu, vd, vu = _matrices_as(m, U.dtype)
    cfg = m.config
    adapter_cache, calibrator_cache = cache
    o_wd, o_wu, o_vd, o_vu = matrix_views(out, m.d, m.r)
    if cfg.reversed:  # the adapter's matmuls read U, so flush a copy of it
        dC = _adapter_grads(adapter_cache, wd, wu, cfg,
                            flush_subnormals(U.copy()), o_wd, o_wu, True)
        _calibrator_grads(calibrator_cache, vd, vu, cfg, dC, o_vd, o_vu, False)
    else:
        dA = _calibrator_grads(calibrator_cache, vd, vu, cfg, U, o_vd, o_vu,
                               True)
        _adapter_grads(adapter_cache, wd, wu, cfg, dA, o_wd, o_wu, False)


# ---------------------------------------------------------------------------
# Parameter accounting and sparsity measures.

def param_count(d: int, r: int) -> int:
    """Trainable entries of one module: 4 * d * r."""
    if d < 1 or r < 1:
        raise ValueError("dimensions must be positive")
    return 4 * d * r


def layerwise_adapter_count(n_layers: int, d: int, r: int) -> int:
    """Cost of the per-layer alternative this design avoids: n_layers * 2 * d * r."""
    if n_layers < 1 or d < 1 or r < 1:
        raise ValueError("dimensions must be positive")
    return n_layers * 2 * d * r


def l1_norm(m: LucaModule) -> float:
    """Sum of |entry| over the four matrices (heads excluded), float64."""
    return float(sum(np.abs(mat.astype(np.float64)).sum() for mat in m.matrices()))


def sparsity_ratio(m: LucaModule, threshold: float) -> float:
    """Fraction of entries with |entry| <= threshold (threshold 0 counts exact zeros)."""
    small = int((np.abs(m.flat_params()) <= threshold).sum())
    return small / m.param_count


# ---------------------------------------------------------------------------
# Finite-difference check of the batched backward pass that training runs.

_CHECK_ROWS = 3  # more than one, so the sums over the batch are checked too


def gradient_check(trials: int = 20, d_max: int = 16, r_max: int = 4,
                   h: float = 1e-5, seed: int = 7041) -> float:
    """Max relative error of ``luca_backward_batch`` vs central differences
    of sum(U * luca_forward_batch(Z)) on three-row batches.  Each trial runs
    one backward, as training does, and perturbs every entry of the flat
    weight vector that its gradients are written into.

    Cycles through all 9 (adapter_act, gate_act) pairs and both gate/order
    flags across ``trials`` random float64 modules.  Each half's input
    gradient is checked through the other half's weight gradients, whose
    upstream it is in the order where that half runs first in the backward.
    Inputs are resampled when a relu pre-activation sits within 1e-6 of its
    kink.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    gen = Xoshiro256StarStar(seed)
    combos = [(a, g) for a in ACTIVATIONS for g in ACTIVATIONS]
    worst = 0.0
    for trial in range(trials):
        a_act, g_act = combos[trial % len(combos)]
        cfg = LucaConfig(adapter_act=a_act, gate_act=g_act,
                         gate_residual=bool(trial % 2), reversed=bool((trial // 2) % 2))
        d = 2 + gen.below(d_max - 1)
        r = 1 + gen.below(r_max)
        m = LucaModule(d, r, gen.normals(4 * d * r, std=0.5), config=cfg)
        Z, cache = _sample_away_from_kinks(gen, m)
        U = gen.normals(_CHECK_ROWS * d).reshape(_CHECK_ROWS, d)
        worst = max(worst, _module_fd_error(Z, cache, m, U, h))
    return worst


def _sample_away_from_kinks(gen, m, margin: float = 1e-6, attempts: int = 200):
    # (Z, forward cache) with every relu pre-activation, H or Q, off its kink
    for _ in range(attempts):
        Z = gen.normals(_CHECK_ROWS * m.d).reshape(_CHECK_ROWS, m.d)
        _, cache = luca_forward_batch(Z, m, return_cache=True)
        (_, H, _, _), (_, Q, _, _, _) = cache
        bad = False
        if m.config.adapter_act == "relu" and np.abs(H).min() < margin:
            bad = True
        if m.config.gate_act == "relu" and np.abs(Q).min() < margin:
            bad = True
        if not bad:
            return Z, cache
    raise RuntimeError("could not sample inputs away from relu kinks")


def _module_fd_error(Z, cache, m: LucaModule, U, h: float) -> float:
    # the gradients, written into one vector laid out as ``m.params``,
    # against central differences over its entries
    flat = m.params
    grad = np.empty_like(flat)
    luca_backward_batch(m, cache, U, grad)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(np.sum(U * luca_forward_batch(Z, m)))
        flat[i] = orig - h
        f_minus = float(np.sum(U * luca_forward_batch(Z, m)))
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(grad[i])
        denom = max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, abs(a - numeric) / denom)
    return worst
