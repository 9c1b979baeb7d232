"""The per-session trainable module: a residual bottleneck adapter composed
with a multiplicative feature calibrator, plus its manual backward pass.

Shapes (z is a row vector of length d, r << d):

    adapter     A(z) = act_a(z W_down) W_up + z          W_down: d x r, W_up: r x d
    calibrator  C(z) = z * (act_g(z V_down) V_up [+ 1])  V_down: d x r, V_up: r x d
    module      L(z) = C(A(z))   (or A(C(z)) when reversed)

The gate's ``+ 1`` residual is optional (``gate_residual``); the default is
the plain multiplicative form.  There are no bias terms anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import ACTIVATIONS, activation, activation_grad, matvec, vecmat
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
    gen = Xoshiro256StarStar(rng_seed)
    w_down = gen.normals(d * r, std=INIT_STD).reshape(d, r).astype(dtype)
    v_down = gen.normals(d * r, std=INIT_STD).reshape(d, r).astype(dtype)
    v_up = gen.normals(r * d, std=INIT_STD).reshape(r, d).astype(dtype)
    w_up = np.zeros((r, d), dtype=dtype)
    return LucaModule(d=d, r=r, w_down=w_down, w_up=w_up, v_down=v_down, v_up=v_up,
                      config=config)


def _check_input(z, m: LucaModule) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (m.d,):
        raise ValueError("dimension mismatch")
    return z


def adapter_forward(z, m: LucaModule) -> np.ndarray:
    """act_a(z W_down) W_up + z; one row through the batched formula."""
    z = _check_input(z, m)
    out, _, _ = _adapter_rows(z[None, :], m.w_down.astype(np.float64),
                              m.w_up.astype(np.float64), m.config)
    return out[0]


def calibrator_forward(z, m: LucaModule) -> np.ndarray:
    """z * gate, gate = act_g(z V_down) V_up (+ 1 when gate_residual); one
    row through the batched formula."""
    z = _check_input(z, m)
    out, _, _, _ = _calibrator_rows(z[None, :], m.v_down.astype(np.float64),
                                    m.v_up.astype(np.float64), m.config)
    return out[0]


def luca_forward(z, m: LucaModule) -> np.ndarray:
    """Full module: calibrator(adapter(z)), or adapter(calibrator(z)) if reversed.

    One row through ``luca_forward_batch``, so a sample gives the same
    result whether it is scored alone or as a one-row batch.
    """
    z = _check_input(z, m)
    return luca_forward_batch(z[None, :], m)[0]


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
    z = _check_input(z, m)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (m.d,):
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


# ---------------------------------------------------------------------------
# Batched path (numpy matmul), which the one-row forwards above also run.
# Rows of Z are samples; gradients are summed over the batch, so pre-scaled
# upstreams give batch means directly.

def _adapter_rows(Z, wd, wu, cfg: LucaConfig):
    # (out, H, S) for out = act_a(Z W_down) W_up + Z
    H = Z @ wd
    S = activation(cfg.adapter_act, H)
    return S @ wu + Z, H, S


def _calibrator_rows(Z, vd, vu, cfg: LucaConfig):
    # (out, Q, T, G) for out = Z * G, G = act_g(Z V_down) V_up (+ 1)
    Q = Z @ vd
    T = activation(cfg.gate_act, Q)
    G = T @ vu
    if cfg.gate_residual:
        G = G + 1.0
    return Z * G, Q, T, G


def luca_forward_batch(Z: np.ndarray, m: LucaModule, return_cache: bool = False):
    Z = np.asarray(Z, dtype=np.float64)
    wd = m.w_down.astype(np.float64)
    wu = m.w_up.astype(np.float64)
    vd = m.v_down.astype(np.float64)
    vu = m.v_up.astype(np.float64)
    cfg = m.config
    if cfg.reversed:
        C, Q, T, G = _calibrator_rows(Z, vd, vu, cfg)
        out, H, S = _adapter_rows(C, wd, wu, cfg)
        cache = (Z, Q, T, G, C, H, S)
    else:
        A, H, S = _adapter_rows(Z, wd, wu, cfg)
        out, Q, T, G = _calibrator_rows(A, vd, vu, cfg)
        cache = (Z, H, S, A, Q, T, G)
    if return_cache:
        return out, cache
    return out


def luca_backward_batch(m: LucaModule, cache, U: np.ndarray):
    """Batch-summed gradients given a forward cache and upstream rows U."""
    wd = m.w_down.astype(np.float64)
    wu = m.w_up.astype(np.float64)
    vd = m.v_down.astype(np.float64)
    vu = m.v_up.astype(np.float64)
    cfg = m.config
    U = np.asarray(U, dtype=np.float64)
    if cfg.reversed:
        Z, Q, T, G, C, H, S = cache
        d_wup = S.T @ U
        dS = U @ wu.T
        dH = dS * activation_grad(cfg.adapter_act, H)
        d_wdown = C.T @ dH
        dC = U + dH @ wd.T
        dZ_direct = dC * G
        dG = dC * Z
        d_vup = T.T @ dG
        dT = dG @ vu.T
        dQ = dT * activation_grad(cfg.gate_act, Q)
        d_vdown = Z.T @ dQ
        dZ = dZ_direct + dQ @ vd.T
    else:
        Z, H, S, A, Q, T, G = cache
        dA_direct = U * G
        dG = U * A
        d_vup = T.T @ dG
        dT = dG @ vu.T
        dQ = dT * activation_grad(cfg.gate_act, Q)
        d_vdown = A.T @ dQ
        dA = dA_direct + dQ @ vd.T
        d_wup = S.T @ dA
        dS = dA @ wu.T
        dH = dS * activation_grad(cfg.adapter_act, H)
        d_wdown = Z.T @ dH
        dZ = dA + dH @ wd.T
    grads = LucaGradients(w_down=d_wdown, w_up=d_wup, v_down=d_vdown, v_up=d_vup,
                          d_input=dZ)
    return grads


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
# Finite-difference check of the manual backward pass.

def gradient_check(trials: int = 20, d_max: int = 16, r_max: int = 4,
                   h: float = 1e-5, seed: int = 7041) -> float:
    """Max relative error of ``luca_backward`` vs central differences.

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
        z = _sample_away_from_kinks(gen, m)
        upstream = gen.normals(d)
        worst = max(worst, _module_fd_error(z, m, upstream, h))
    return worst


def _sample_away_from_kinks(gen, m, margin: float = 1e-6, attempts: int = 200):
    for _ in range(attempts):
        z = gen.normals(m.d)
        if m.config.reversed:
            q = z @ m.v_down.astype(np.float64)
            c = calibrator_forward(z, m)
            hh = c @ m.w_down.astype(np.float64)
        else:
            hh = z @ m.w_down.astype(np.float64)
            a = adapter_forward(z, m)
            q = a @ m.v_down.astype(np.float64)
        bad = False
        if m.config.adapter_act == "relu" and np.abs(hh).min() < margin:
            bad = True
        if m.config.gate_act == "relu" and np.abs(q).min() < margin:
            bad = True
        if not bad:
            return z
    raise RuntimeError("could not sample inputs away from relu kinks")


def _module_fd_error(z, m: LucaModule, upstream, h: float) -> float:
    analytic = luca_backward(z, m, upstream)

    def probe() -> float:
        return float(np.dot(upstream, luca_forward(z, m)))

    worst = 0.0
    for name in ("w_down", "w_up", "v_down", "v_up"):
        mat = getattr(m, name)
        grad = getattr(analytic, name)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + h
            f_plus = probe()
            mat[idx] = orig - h
            f_minus = probe()
            mat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(grad[idx])
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
    for i in range(m.d):
        orig = z[i]
        z[i] = orig + h
        f_plus = probe()
        z[i] = orig - h
        f_minus = probe()
        z[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic.d_input[i])
        denom = max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, abs(a - numeric) / denom)
    return worst
