"""SGD with cosine-annealed learning rate and L1 shrinkage on module weights.

Training computes in float32, the dtype of the weights and features; only
the small (B, K) logits go up to float64, for the softmax and the
cross-entropy.  ``train_epochs`` steps the module's four matrices as one
flat float32 vector, laid out as ``LucaModule.flat_params``: the forward
reads it through ``luca.matrix_views``, the backward writes each weight
gradient into its view of one flat gradient vector, and one
``sgd_l1_step`` call updates all four.  The head is stepped in place.  The
module's own arrays receive the vector at each epoch end, before the loss
and the divergence check read them.  The logit gradients are flushed of
subnormals (``numerics.flush_subnormals``).  The L1 term touches only the
four matrices, never the head.  Two L1 modes:

  subgradient   theta <- theta - lr * (g + lam * sign(theta)), sign(0) = 0
  proximal      theta <- soft_threshold(theta - lr * g, lr * lam)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import FeatureDataset
from .heads import SessionHead
from .luca import (LucaModule, l1_norm, luca_backward_batch,
                   luca_forward_batch, matrix_views)
from .numerics import float_array, flush_subnormals, softmax_rows
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
        for name in ("lr_max", "lr_min", "lambda_l1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
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
    """sign(v) * max(|v| - t, 0), elementwise, in ``float_array(v)``'s dtype."""
    if t < 0.0:
        raise ValueError("threshold must be nonnegative")
    v = float_array(v)
    out = np.abs(v, out=np.empty_like(v))
    out -= t
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out


def sgd_l1_step(theta: np.ndarray, grad: np.ndarray, lr: float, lam: float,
                mode: str = "subgradient") -> np.ndarray:
    """One L1-regularized step in ``float_array(theta)``'s dtype.

    Returns a new array and leaves ``theta`` and ``grad`` as they are; the
    one temporary is built in place, in the operation order of the formula.
    """
    if mode not in L1_MODES:
        raise ValueError(f"unknown l1 mode {mode!r}")
    theta = float_array(theta)
    grad = np.asarray(grad, dtype=theta.dtype)
    if theta.shape != grad.shape:
        raise ValueError("dimension mismatch")
    if mode == "subgradient":
        # theta - lr * (grad + lam * sign(theta))
        step = np.sign(theta, out=np.empty_like(theta))
        step *= lam
        step += grad
        step *= lr
        return np.subtract(theta, step, out=step)
    # soft_threshold(theta - lr * grad, lr * lam)
    moved = np.multiply(lr, grad, out=np.empty_like(grad))
    np.subtract(theta, moved, out=moved)
    return soft_threshold(moved, lr * lam)


def _batch_loss_grads(module, head_w, Z, y_cols, grad, d_head):
    """Summed cross-entropy over the batch, in the rows' dtype but for the
    float64 softmax of the (B, K) logits.  The gradients of its batch mean
    are written into ``grad``, the module's as one flat vector, and
    ``d_head``; the logit gradients are flushed of subnormals."""
    B = Z.shape[0]
    rows = np.arange(B)
    feats, cache = luca_forward_batch(Z, module, return_cache=True)
    P = softmax_rows(feats @ head_w)
    ce = float(-np.log(P[rows, y_cols] + 1e-300).sum())
    P[rows, y_cols] -= 1.0  # P minus the one-hot labels, built in place
    P /= B
    dlogits = flush_subnormals(P.astype(feats.dtype))
    np.matmul(feats.T, dlogits, out=d_head)
    luca_backward_batch(module, cache, dlogits @ head_w.T, out=grad)
    return ce


@np.errstate(over="ignore", invalid="ignore")
def train_epochs(module: LucaModule, head: SessionHead, data: FeatureDataset,
                 cfg: OptimConfig, rng: Xoshiro256StarStar
                 ) -> tuple[LucaModule, SessionHead, list[float]]:
    """Train module + head in place on one session's rows.

    Each epoch reshuffles with the caller's generator, walks ceil(n/batch)
    minibatches (last partial batch included), and anneals the LR per
    optimizer step across the whole run.  The logged loss is mean
    cross-entropy over the epoch's samples plus lambda * l1_norm(module)
    measured at epoch end; a non-finite loss stops training in that epoch
    with ``FloatingPointError``, and numpy's overflow and invalid-value
    warnings on the way there are silenced.  With epochs=0 nothing moves
    and the trace is empty.  Returns the (mutated) module and head plus the
    trace.
    The four matrices and the head must be float32: training computes in
    float32, so any other dtype raises ``ValueError``.
    """
    mats = ["w_down", "w_up", "v_down", "v_up"]
    for name, arr in zip(mats + ["head.w"], module.matrices() + (head.w,)):
        if arr.dtype != np.float32:
            raise ValueError(f"{name} is {arr.dtype}; training needs "
                             "float32 weights")
    Z, n = data.features, data.n  # float32 rows
    if n == 0:
        raise ValueError("empty dataset")
    if data.d != module.d:
        raise ValueError("dimension mismatch")
    col = {c: j for j, c in enumerate(head.class_ids)}
    try:
        y_cols = np.asarray([col[int(c)] for c in data.labels], dtype=np.int64)
    except KeyError:
        raise ValueError("label outside class set") from None
    batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = batches * cfg.epochs

    # the four matrices as one vector, which the forward reads through views
    d, r = module.d, module.r
    flat = np.concatenate([m.ravel() for m in module.matrices()])
    work = replace(module, **dict(zip(mats, matrix_views(flat, d, r))))
    grad = np.empty_like(flat)
    d_head = np.empty_like(head.w)
    momentum = cfg.momentum > 0.0
    vel = np.zeros_like(flat) if momentum else None
    vel_head = np.zeros_like(head.w) if momentum else None

    step = 0
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_ce = 0.0
        for b in range(batches):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr = cosine_lr(step, total_steps, cfg)
            epoch_ce += _batch_loss_grads(work, head.w, Z[idx], y_cols[idx],
                                          grad, d_head)
            g, g_head = grad, d_head
            if momentum:
                vel *= cfg.momentum
                vel += grad
                vel_head *= cfg.momentum
                vel_head += d_head
                g, g_head = vel, vel_head
            flat[...] = sgd_l1_step(flat, g, lr, cfg.lambda_l1, cfg.l1_mode)
            head.w -= lr * g_head
            step += 1
        for cur, view in zip(module.matrices(), matrix_views(flat, d, r)):
            cur[...] = view
        loss = epoch_ce / n + cfg.lambda_l1 * l1_norm(module)
        if not math.isfinite(loss):
            raise FloatingPointError(f"training diverged in epoch {epoch}")
        trace.append(loss)
    if not all(np.isfinite(a).all() for a in (flat, head.w)):
        raise FloatingPointError("training diverged")
    return module, head, trace
