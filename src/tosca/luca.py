"""The per-session trainable module: a residual bottleneck adapter composed
with a multiplicative feature calibrator, plus its manual backward pass.

Shapes (z is a row vector of length d, r << d):

    adapter     A(z) = act_a(z W_down) W_up + z          W_down: d x r, W_up: r x d
    calibrator  C(z) = z * (act_g(z V_down) V_up [+ 1])  V_down: d x r, V_up: r x d
    module      L(z) = C(A(z))   (or A(C(z)) when reversed)

The gate's ``+ 1`` residual is optional (``gate_residual``); the default is
the plain multiplicative form.  There are no bias terms anywhere.

``luca_forward_batch`` and ``luca_backward_batch`` are the passes;
``luca_forward`` scores one sample as a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# vecmat: unused here, but the benchmark tracer's numerics.vecmat seam wraps it
from .numerics import ACTIVATIONS, activation, activation_grad, vecmat
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


@dataclass
class LucaModule:
    d: int
    r: int
    w_down: np.ndarray  # d x r
    w_up: np.ndarray  # r x d
    v_down: np.ndarray  # d x r
    v_up: np.ndarray  # r x d
    config: LucaConfig = field(default_factory=LucaConfig)

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")
        expect = {
            "w_down": (self.d, self.r),
            "w_up": (self.r, self.d),
            "v_down": (self.d, self.r),
            "v_up": (self.r, self.d),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def param_count(self) -> int:
        return self.w_down.size + self.w_up.size + self.v_down.size + self.v_up.size

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.w_down, self.w_up, self.v_down, self.v_up

    def flat_params(self) -> np.ndarray:
        """All trainable entries as one float64 vector (W_down, W_up, V_down, V_up)."""
        return np.concatenate([m.astype(np.float64).ravel() for m in self.matrices()])


@dataclass
class LucaGradients:
    w_down: np.ndarray
    w_up: np.ndarray
    v_down: np.ndarray
    v_up: np.ndarray
    d_input: np.ndarray


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
    w_down = draws[:d * r].reshape(d, r).astype(dtype)
    v_down = draws[d * r:2 * d * r].reshape(d, r).astype(dtype)
    v_up = draws[2 * d * r:].reshape(r, d).astype(dtype)
    w_up = np.zeros((r, d), dtype=dtype)
    return LucaModule(d=d, r=r, w_down=w_down, w_up=w_up, v_down=v_down, v_up=v_up,
                      config=config)


def luca_forward(z, m: LucaModule) -> np.ndarray:
    """Full module: calibrator(adapter(z)), or adapter(calibrator(z)) if reversed.

    One row through ``luca_forward_batch``, so a sample gives the same
    result whether it is scored alone or as a one-row batch.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (m.d,):
        raise ValueError("dimension mismatch")
    return luca_forward_batch(z[None, :], m)[0]


# ---------------------------------------------------------------------------
# Batched path (numpy matmul), which ``luca_forward`` also runs.  Rows of Z
# are samples; gradients are summed over the batch, so pre-scaled upstreams
# give batch means directly.  Each half of the module has one forward and one
# gradient formula; the composition order only decides which half runs first.

def _adapter_rows(X, wd, wu, cfg: LucaConfig):
    # (out, (X, H, S)) for out = act_a(X W_down) W_up + X
    H = X @ wd
    S = activation(cfg.adapter_act, H)
    return S @ wu + X, (X, H, S)


def _calibrator_rows(X, vd, vu, cfg: LucaConfig):
    # (out, (X, Q, T, G)) for out = X * G, G = act_g(X V_down) V_up (+ 1)
    Q = X @ vd
    T = activation(cfg.gate_act, Q)
    G = T @ vu
    if cfg.gate_residual:
        G = G + 1.0
    return X * G, (X, Q, T, G)


def _adapter_grads(cache, wd, wu, cfg: LucaConfig, dOut):
    # (dW_down, dW_up, dX) given _adapter_rows' cache and upstream dOut
    X, H, S = cache
    dH = (dOut @ wu.T) * activation_grad(cfg.adapter_act, H)
    return X.T @ dH, S.T @ dOut, dOut + dH @ wd.T


def _calibrator_grads(cache, vd, vu, cfg: LucaConfig, dOut):
    # (dV_down, dV_up, dX) given _calibrator_rows' cache and upstream dOut
    X, Q, T, G = cache
    dG = dOut * X
    dQ = (dG @ vu.T) * activation_grad(cfg.gate_act, Q)
    return X.T @ dQ, T.T @ dG, dOut * G + dQ @ vd.T


def luca_forward_batch(Z: np.ndarray, m: LucaModule, return_cache: bool = False):
    """Module output for every row of Z.

    With ``return_cache`` it also returns the pair that
    ``luca_backward_batch`` takes: the adapter's ``(X, H, S)`` and the
    calibrator's ``(X, Q, T, G)``, i.e. each half's input rows,
    pre-activation, activation and (calibrator only) gate, whichever half
    runs first.
    """
    Z = np.asarray(Z, dtype=np.float64)
    wd = m.w_down.astype(np.float64)
    wu = m.w_up.astype(np.float64)
    vd = m.v_down.astype(np.float64)
    vu = m.v_up.astype(np.float64)
    cfg = m.config
    if cfg.reversed:
        C, calibrator_cache = _calibrator_rows(Z, vd, vu, cfg)
        out, adapter_cache = _adapter_rows(C, wd, wu, cfg)
    else:
        A, adapter_cache = _adapter_rows(Z, wd, wu, cfg)
        out, calibrator_cache = _calibrator_rows(A, vd, vu, cfg)
    if return_cache:
        return out, (adapter_cache, calibrator_cache)
    return out


def luca_backward_batch(m: LucaModule, cache, U: np.ndarray) -> LucaGradients:
    """Batch-summed gradients of sum(U * luca_forward_batch(Z)) given the
    forward's cache; ``d_input`` keeps one row per sample."""
    wd = m.w_down.astype(np.float64)
    wu = m.w_up.astype(np.float64)
    vd = m.v_down.astype(np.float64)
    vu = m.v_up.astype(np.float64)
    cfg = m.config
    U = np.asarray(U, dtype=np.float64)
    adapter_cache, calibrator_cache = cache
    if cfg.reversed:
        d_wdown, d_wup, dC = _adapter_grads(adapter_cache, wd, wu, cfg, U)
        d_vdown, d_vup, dZ = _calibrator_grads(calibrator_cache, vd, vu, cfg, dC)
    else:
        d_vdown, d_vup, dA = _calibrator_grads(calibrator_cache, vd, vu, cfg, U)
        d_wdown, d_wup, dZ = _adapter_grads(adapter_cache, wd, wu, cfg, dA)
    return LucaGradients(w_down=d_wdown, w_up=d_wup, v_down=d_vdown, v_up=d_vup,
                         d_input=dZ)


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
    total = m.param_count
    small = sum(int((np.abs(mat.astype(np.float64)) <= threshold).sum())
                for mat in m.matrices())
    return small / total


# ---------------------------------------------------------------------------
# Finite-difference check of the batched backward pass that training runs.

_CHECK_ROWS = 3  # more than one, so the sums over the batch are checked too


def gradient_check(trials: int = 20, d_max: int = 16, r_max: int = 4,
                   h: float = 1e-5, seed: int = 7041) -> float:
    """Max relative error of ``luca_backward_batch`` vs central differences
    of sum(U * luca_forward_batch(Z)) on three-row batches.

    Cycles through all 9 (adapter_act, gate_act) pairs and both gate/order
    flags across ``trials`` random float64 modules.  Inputs are resampled when
    a relu pre-activation sits within 1e-6 of its kink.
    """
    gen = Xoshiro256StarStar(seed)
    combos = [(a, g) for a in ACTIVATIONS for g in ACTIVATIONS]
    worst = 0.0
    for trial in range(trials):
        a_act, g_act = combos[trial % len(combos)]
        cfg = LucaConfig(adapter_act=a_act, gate_act=g_act,
                         gate_residual=bool(trial % 2), reversed=bool((trial // 2) % 2))
        d = 2 + gen.below(d_max - 1)
        r = 1 + gen.below(r_max)
        mats = {
            "w_down": gen.normals(d * r, std=0.5).reshape(d, r),
            "w_up": gen.normals(r * d, std=0.5).reshape(r, d),
            "v_down": gen.normals(d * r, std=0.5).reshape(d, r),
            "v_up": gen.normals(r * d, std=0.5).reshape(r, d),
        }
        m = LucaModule(d=d, r=r, config=cfg, **mats)
        Z, cache = _sample_away_from_kinks(gen, m)
        U = gen.normals(_CHECK_ROWS * d).reshape(_CHECK_ROWS, d)
        worst = max(worst, _module_fd_error(Z, cache, m, U, h))
    return worst


def _sample_away_from_kinks(gen, m, margin: float = 1e-6, attempts: int = 200):
    # (Z, forward cache) with every relu pre-activation, H or Q, off its kink
    for _ in range(attempts):
        Z = gen.normals(_CHECK_ROWS * m.d).reshape(_CHECK_ROWS, m.d)
        _, cache = luca_forward_batch(Z, m, return_cache=True)
        (_, H, _), (_, Q, _, _) = cache
        bad = False
        if m.config.adapter_act == "relu" and np.abs(H).min() < margin:
            bad = True
        if m.config.gate_act == "relu" and np.abs(Q).min() < margin:
            bad = True
        if not bad:
            return Z, cache
    raise RuntimeError("could not sample inputs away from relu kinks")


def _module_fd_error(Z, cache, m: LucaModule, U, h: float) -> float:
    analytic = luca_backward_batch(m, cache, U)

    def probe() -> float:
        return float(np.sum(U * luca_forward_batch(Z, m)))

    checked = [(getattr(m, name), getattr(analytic, name))
               for name in ("w_down", "w_up", "v_down", "v_up")]
    worst = 0.0
    for arr, grad in checked + [(Z, analytic.d_input)]:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = probe()
            arr[idx] = orig - h
            f_minus = probe()
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(grad[idx])
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
    return worst
