"""SGD with cosine-annealed learning rate and L1 shrinkage on module weights.

Parameters live in float32 (``train_epochs`` refuses any other dtype) but
every update runs in float64.
``train_epochs`` builds one float64 working copy of each of the module's four
matrices and of the head when it starts, and the forward, backward and step
read those.  After each step it writes the float32 weights from the float64
result and refreshes the copy from them, so the next step sees exactly
f64(f32(new)): the same values, and the same bits, as an upcast of the
float32 weights at every step, without the per-step copies.  The L1 term
touches only the module's four matrices, never the head.  Two L1 modes:

  subgradient   theta <- theta - lr * (g + lam * sign(theta)), sign(0) = 0
  proximal      theta <- soft_threshold(theta - lr * g, lr * lam)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import FeatureDataset
from .heads import SessionHead
from .luca import LucaModule, l1_norm, luca_backward_batch, luca_forward_batch
from .numerics import softmax_rows
from .rng import Xoshiro256StarStar

L1_MODES = ("subgradient", "proximal")


@dataclass
class OptimConfig:
    lr_max: float = 0.025
    lr_min: float = 0.0
    epochs: int = 20
    batch_size: int = 48
    lambda_l1: float = 5e-4
    l1_mode: str = "subgradient"
    momentum: float = 0.0

    def __post_init__(self):
        if self.lr_max < self.lr_min:
            raise ValueError("lr_max must be >= lr_min")
        if self.lr_min < 0.0:
            raise ValueError("learning rates must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.lambda_l1 < 0.0:
            raise ValueError("lambda must be nonnegative")
        if self.l1_mode not in L1_MODES:
            raise ValueError(f"unknown l1 mode {self.l1_mode!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def cosine_lr(step: int, total_steps: int, cfg: OptimConfig) -> float:
    """lr_min + 0.5 (lr_max - lr_min) (1 + cos(pi step / total_steps))."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError("step out of range")
    span = cfg.lr_max - cfg.lr_min
    return cfg.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * step / total_steps))


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """sign(v) * max(|v| - t, 0), elementwise."""
    if t < 0.0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def sgd_l1_step(theta: np.ndarray, grad: np.ndarray, lr: float, lam: float,
                mode: str = "subgradient") -> np.ndarray:
    """One L1-regularized step in float64; caller handles dtype round trips."""
    if mode not in L1_MODES:
        raise ValueError(f"unknown l1 mode {mode!r}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if theta.shape != grad.shape:
        raise ValueError("dimension mismatch")
    if mode == "subgradient":
        return theta - lr * (grad + lam * np.sign(theta))
    return soft_threshold(theta - lr * grad, lr * lam)


def _batch_loss_grads(module, head_w, Z, y_cols):
    """Mean cross-entropy over the batch plus the gradients that produce it,
    for float64 module matrices and head weights ``head_w``."""
    B = Z.shape[0]
    feats, cache = luca_forward_batch(Z, module, return_cache=True)
    P = softmax_rows(feats @ head_w)
    ce = float(-np.log(P[np.arange(B), y_cols] + 1e-300).sum())
    dlogits = P  # P minus the one-hot labels, built in place
    dlogits[np.arange(B), y_cols] -= 1.0
    dlogits /= B
    d_head = feats.T @ dlogits
    d_feats = dlogits @ head_w.T
    grads = luca_backward_batch(module, cache, d_feats)
    return ce, d_head, grads


def train_epochs(module: LucaModule, head: SessionHead, data: FeatureDataset,
                 cfg: OptimConfig, rng: Xoshiro256StarStar
                 ) -> tuple[LucaModule, SessionHead, list[float]]:
    """Train module + head in place on one session's rows.

    Each epoch reshuffles with the caller's generator, walks ceil(n/batch)
    minibatches (last partial batch included), and anneals the LR per
    optimizer step across the whole run.  The logged loss is mean
    cross-entropy over the epoch's samples plus lambda * l1_norm(module)
    measured at epoch end; a non-finite loss stops training in that epoch
    with ``FloatingPointError``.  With epochs=0 nothing moves and the trace
    is empty.  Returns the (mutated) module and head plus the trace.
    The four matrices and the head must be float32: any other dtype would
    skip the per-step float32 rounding, so it raises ``ValueError``.
    """
    mats = ["w_down", "w_up", "v_down", "v_up"]
    weights = {name: getattr(module, name) for name in mats}
    weights["head.w"] = head.w
    for name, arr in weights.items():
        if arr.dtype != np.float32:
            raise ValueError(f"{name} is {arr.dtype}; training needs "
                             "float32 weights")
    Z = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels)
    n = Z.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    if Z.ndim != 2 or Z.shape[1] != module.d or y.shape != (n,):
        raise ValueError("dimension mismatch")
    col = {c: j for j, c in enumerate(head.class_ids)}
    try:
        y_cols = np.asarray([col[int(c)] for c in y], dtype=np.int64)
    except KeyError:
        raise ValueError("label outside class set") from None
    batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = batches * cfg.epochs

    # float64 working copies, refreshed from the float32 weights every step
    work = replace(module, **{name: getattr(module, name).astype(np.float64)
                              for name in mats})
    head_w = head.w.astype(np.float64)
    vel = {name: np.zeros_like(getattr(module, name), dtype=np.float64)
           for name in mats} if cfg.momentum > 0.0 else None
    vel_head = (np.zeros_like(head.w, dtype=np.float64)
                if cfg.momentum > 0.0 else None)

    step = 0
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_ce = 0.0
        for b in range(batches):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr = cosine_lr(step, total_steps, cfg)
            ce, d_head, grads = _batch_loss_grads(work, head_w, Z[idx],
                                                  y_cols[idx])
            epoch_ce += ce
            for name in mats:
                g = getattr(grads, name)
                if vel is not None:
                    vel[name] = cfg.momentum * vel[name] + g
                    g = vel[name]
                cur, w = getattr(module, name), getattr(work, name)
                cur[...] = sgd_l1_step(w, g, lr, cfg.lambda_l1, cfg.l1_mode)
                w[...] = cur
            g = d_head
            if vel_head is not None:
                vel_head[...] = cfg.momentum * vel_head + g
                g = vel_head
            head.w[...] = head_w - lr * g
            head_w[...] = head.w
            step += 1
        loss = epoch_ce / n + cfg.lambda_l1 * l1_norm(module)
        if not math.isfinite(loss):
            raise FloatingPointError(f"training diverged in epoch {epoch}")
        trace.append(loss)
    for name in mats:
        if not np.all(np.isfinite(getattr(module, name))):
            raise FloatingPointError("training diverged")
    if not np.all(np.isfinite(head.w)):
        raise FloatingPointError("training diverged")
    return module, head, trace
