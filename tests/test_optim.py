"""Optimizer tests: cosine schedule, L1 step rules, and the training loop."""

import math

import numpy as np
import pytest

import tosca.luca
import tosca.numerics
import tosca.optim as optim
from oracle import softmax, train_epochs_reference
from tosca.data import FeatureDataset, synth_gaussian
from tosca.heads import head_forward, make_head
from tosca.luca import LucaConfig, init_luca, luca_forward, sparsity_ratio
from tosca.numerics import ACTIVATIONS
from tosca.optim import (OptimConfig, cosine_lr, sgd_l1_step, soft_threshold,
                         train_epochs)
from tosca.rng import Xoshiro256StarStar


def test_cosine_schedule_endpoints_exact():
    cfg = OptimConfig(lr_max=0.025, lr_min=0.001)
    assert abs(cosine_lr(0, 100, cfg) - 0.025) <= 1e-12
    assert abs(cosine_lr(100, 100, cfg) - 0.001) <= 1e-12
    assert abs(cosine_lr(50, 100, cfg) - 0.013) <= 1e-12  # midpoint = mean


def test_cosine_schedule_is_monotone_decreasing():
    cfg = OptimConfig(lr_max=0.1, lr_min=0.0)
    vals = [cosine_lr(s, 40, cfg) for s in range(41)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cosine_schedule_rejects_bad_steps():
    cfg = OptimConfig()
    with pytest.raises(ValueError, match="total_steps must be positive"):
        cosine_lr(0, 0, cfg)
    with pytest.raises(ValueError, match="step out of range"):
        cosine_lr(11, 10, cfg)
    with pytest.raises(ValueError, match="step out of range"):
        cosine_lr(-1, 10, cfg)


def test_soft_threshold():
    v = np.array([0.3, -0.3, 0.05, -0.05, 0.0])
    out = soft_threshold(v, 0.1)
    assert np.allclose(out, [0.2, -0.2, 0.0, 0.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)


def test_subgradient_step_values():
    # theta - lr * (g + lam * sign(theta)); sign(0) = 0
    out = sgd_l1_step(np.array([0.1]), np.array([0.0]), lr=0.1, lam=0.5)
    assert float(out[0]) == pytest.approx(0.05, abs=1e-15)
    out = sgd_l1_step(np.array([0.1]), np.array([0.0]), lr=0.1, lam=0.05)
    assert float(out[0]) == pytest.approx(0.095, abs=1e-15)
    out = sgd_l1_step(np.array([0.0]), np.array([0.0]), lr=0.1, lam=0.5)
    assert float(out[0]) == 0.0
    out = sgd_l1_step(np.array([-0.1]), np.array([0.0]), lr=0.1, lam=0.5)
    assert float(out[0]) == pytest.approx(-0.05, abs=1e-15)
    plain = sgd_l1_step(np.array([1.0, -2.0]), np.array([0.5, 0.5]), 0.1, 0.0)
    assert np.allclose(plain, [0.95, -2.05], atol=1e-15)


def test_proximal_step_reaches_exact_zero():
    out = sgd_l1_step(np.array([0.004]), np.array([0.0]), lr=0.1, lam=0.5,
                      mode="proximal")
    assert float(out[0]) == 0.0


def test_proximal_step_never_flips_sign():
    gen = Xoshiro256StarStar(55)
    for _ in range(500):
        theta = gen.normals(8)
        grad = gen.normals(8)
        lr = gen.uniform() * 0.5
        lam = gen.uniform() * 2.0
        out = sgd_l1_step(theta, grad, lr, lam, mode="proximal")
        moved = theta - lr * grad
        assert np.all((out == 0.0) | (np.sign(out) == np.sign(moved)))


def test_step_validation():
    with pytest.raises(ValueError, match="unknown l1 mode"):
        sgd_l1_step(np.zeros(2), np.zeros(2), 0.1, 0.1, mode="lasso")
    with pytest.raises(ValueError, match="dimension mismatch"):
        sgd_l1_step(np.zeros(2), np.zeros(3), 0.1, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(lr_max=0.001, lr_min=0.01)
    with pytest.raises(ValueError):
        OptimConfig(epochs=-1)
    with pytest.raises(ValueError):
        OptimConfig(batch_size=0)
    with pytest.raises(ValueError):
        OptimConfig(lambda_l1=-1e-4)
    with pytest.raises(ValueError):
        OptimConfig(l1_mode="l2")
    with pytest.raises(ValueError):
        OptimConfig(momentum=1.0)
    OptimConfig(epochs=0)  # zero epochs is a valid no-op request


def _toy_problem(data_seed=11, init_seed=6):
    train, _ = synth_gaussian(d=8, num_classes=2, n_train=100, n_test=10,
                              separation=6.0, sigma=1.0, seed=data_seed)
    module = init_luca(8, 4, rng_seed=init_seed)
    head = make_head(8, (0, 1))
    return train, module, head


def test_zero_epochs_changes_nothing():
    train, module, head = _toy_problem()
    before = [m.copy() for m in module.matrices()] + [head.w.copy()]
    out_m, out_h, trace = train_epochs(module, head, train,
                                       OptimConfig(epochs=0),
                                       Xoshiro256StarStar(1))
    assert trace == []
    after = list(out_m.matrices()) + [out_h.w]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_training_errors():
    train, module, head = _toy_problem()
    empty = FeatureDataset(name="e", features=np.zeros((0, 8)),
                           labels=np.zeros(0, dtype=np.uint32))
    with pytest.raises(ValueError, match="empty dataset"):
        train_epochs(module, head, empty, OptimConfig(), Xoshiro256StarStar(1))
    narrow_head = make_head(8, (0,))
    with pytest.raises(ValueError, match="label outside class set"):
        train_epochs(module, narrow_head, train, OptimConfig(epochs=1),
                     Xoshiro256StarStar(1))
    wide = FeatureDataset(name="w", features=np.zeros((4, 9)),
                          labels=np.zeros(4, dtype=np.uint32))
    with pytest.raises(ValueError, match="dimension mismatch"):
        train_epochs(module, head, wide, OptimConfig(), Xoshiro256StarStar(1))


@pytest.mark.parametrize("name", ["w_down", "w_up", "v_down", "v_up", "head.w"])
def test_training_refuses_weights_that_are_not_float32(name, monkeypatch):
    # a float64 weight would train without the per-step float32 rounding
    train, module, head = _toy_problem()
    if name == "head.w":
        head = make_head(8, (0, 1), dtype=np.float64)
    else:
        setattr(module, name, getattr(module, name).astype(np.float64))
    before = [m.copy() for m in module.matrices()] + [head.w.copy()]

    def no_step(*args, **kwargs):
        raise AssertionError("an optimizer step ran")

    monkeypatch.setattr(optim, "_batch_loss_grads", no_step)
    with pytest.raises(ValueError, match=f"^{name} is float64"):
        train_epochs(module, head, train, OptimConfig(epochs=1),
                     Xoshiro256StarStar(1))
    for b, a in zip(before, list(module.matrices()) + [head.w]):
        assert b.tobytes() == a.tobytes()


def test_training_refuses_a_float64_module():
    train, _, head = _toy_problem()
    module = init_luca(8, 4, rng_seed=6, dtype=np.float64)
    with pytest.raises(ValueError, match="^w_down is float64"):
        train_epochs(module, head, train, OptimConfig(epochs=1),
                     Xoshiro256StarStar(1))


def test_step_count_is_ceil_batches_times_epochs(monkeypatch):
    train, module, head = _toy_problem()
    data = FeatureDataset(name="t", features=train.features[:10],
                          labels=train.labels[:10])
    calls = []
    real = optim.cosine_lr

    def spy(step, total_steps, cfg):
        calls.append((step, total_steps))
        return real(step, total_steps, cfg)

    monkeypatch.setattr(optim, "cosine_lr", spy)
    cfg = OptimConfig(epochs=4, batch_size=4, lambda_l1=0.0)
    train_epochs(module, head, data, cfg, Xoshiro256StarStar(1))
    # ceil(10 / 4) = 3 batches per epoch, 4 epochs
    assert len(calls) == 12
    assert [s for s, _ in calls] == list(range(12))
    assert all(t == 12 for _, t in calls)


def test_first_epoch_loss_matches_hand_computed_ce():
    # one full-batch epoch at lambda 0: the logged loss is the mean
    # cross-entropy of the parameters before the (single) step
    train, module, head = _toy_problem()
    expected = 0.0
    for i in range(train.n):
        feats = luca_forward(train.features[i].astype(np.float64), module)
        p = softmax(head_forward(feats, head))
        expected -= math.log(p[int(train.labels[i])])
    expected /= train.n
    cfg = OptimConfig(epochs=1, batch_size=train.n, lambda_l1=0.0)
    _, _, trace = train_epochs(module, head, train, cfg, Xoshiro256StarStar(3))
    assert trace[0] == pytest.approx(expected, rel=1e-9)


def test_loss_trace_is_nonincreasing_at_small_lr():
    train, module, head = _toy_problem()
    cfg = OptimConfig(lr_max=0.01, lambda_l1=0.0, epochs=5)
    _, _, trace = train_epochs(module, head, train, cfg, Xoshiro256StarStar(10))
    assert len(trace) == 5
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-3


def test_training_is_deterministic():
    results = []
    for _ in range(2):
        train, module, head = _toy_problem()
        cfg = OptimConfig(epochs=3, batch_size=32)
        m, h, trace = train_epochs(module, head, train, cfg,
                                   Xoshiro256StarStar(42))
        results.append((m.flat_params(), h.w.copy(), trace))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    assert results[0][2] == results[1][2]


def test_converges_on_separated_two_class_problem():
    train, _ = synth_gaussian(d=8, num_classes=2, n_train=100, n_test=50,
                              separation=138.0, sigma=23.0, seed=11)
    module = init_luca(8, 48, rng_seed=5)
    head = make_head(8, (0, 1))
    cfg = OptimConfig(lambda_l1=0.0)
    _, _, trace = train_epochs(module, head, train, cfg, Xoshiro256StarStar(9))
    assert trace[-1] < 0.1


def test_l1_increases_sparsity():
    ratios = {}
    for lam in (0.0, 0.05):
        train, module, head = _toy_problem()
        cfg = OptimConfig(epochs=10, lambda_l1=lam)
        m, _, _ = train_epochs(module, head, train, cfg, Xoshiro256StarStar(7))
        ratios[lam] = sparsity_ratio(m, 1e-3)
    assert ratios[0.05] > ratios[0.0]


def test_head_is_not_l1_regularized():
    # after exactly one full-batch step from a shared start, the head update
    # depends only on the data gradient, so lambda must not move it
    heads = {}
    for lam in (0.0, 10.0):
        train, module, head = _toy_problem()
        cfg = OptimConfig(epochs=1, batch_size=train.n, lambda_l1=lam)
        _, h, _ = train_epochs(module, head, train, cfg, Xoshiro256StarStar(2))
        heads[lam] = h.w.copy()
    assert np.array_equal(heads[0.0], heads[10.0])


def test_zero_lr_freezes_everything():
    train, module, head = _toy_problem()
    before = module.flat_params()
    cfg = OptimConfig(lr_max=0.0, lr_min=0.0, epochs=2, lambda_l1=0.0)
    m, h, _ = train_epochs(module, head, train, cfg, Xoshiro256StarStar(1))
    assert np.array_equal(m.flat_params(), before)
    assert np.array_equal(h.w, np.zeros_like(h.w))


def test_momentum_path_trains():
    train, module, head = _toy_problem()
    cfg = OptimConfig(epochs=5, momentum=0.9, lr_max=0.005)
    m, h, trace = train_epochs(module, head, train, cfg, Xoshiro256StarStar(4))
    assert np.all(np.isfinite(m.flat_params()))
    assert trace[-1] < trace[0]


def test_divergence_is_reported():
    train, module, head = _toy_problem()
    train = FeatureDataset(name="big", features=train.features * 1e18,
                           labels=train.labels)
    cfg = OptimConfig(lr_max=1e6, epochs=3, lambda_l1=0.0)
    with pytest.raises(FloatingPointError, match="training diverged"):
        with np.errstate(all="ignore"):
            train_epochs(module, head, train, cfg, Xoshiro256StarStar(1))


class _CountingRng(Xoshiro256StarStar):
    """Counts epoch shuffles, one per epoch started."""

    def __init__(self, seed):
        super().__init__(seed)
        self.shuffles = 0

    def permutation(self, n):
        self.shuffles += 1
        return super().permutation(n)


def test_divergence_stops_in_the_epoch_it_happens():
    train, module, head = _toy_problem()
    train = FeatureDataset(name="big", features=train.features * 1e18,
                           labels=train.labels)
    cfg = OptimConfig(lr_max=1e6, epochs=5, lambda_l1=0.0)
    rng = _CountingRng(1)
    with pytest.raises(FloatingPointError,
                       match=r"^training diverged in epoch 1$"):
        with np.errstate(all="ignore"):
            train_epochs(module, head, train, cfg, rng)
    assert rng.shuffles == 1


_PAIRS = [(a, g) for a in ACTIVATIONS for g in ACTIVATIONS]
_STEP_RULES = {
    "subgradient": dict(),
    "momentum": dict(momentum=0.5),
    "proximal": dict(l1_mode="proximal"),
}


def _pair_problem(pair_index):
    # d=8, r=4, three classes of 35 rows: batches of 48, 48 and a partial 9
    adapter_act, gate_act = _PAIRS[pair_index]
    cfg = LucaConfig(adapter_act=adapter_act, gate_act=gate_act,
                     gate_residual=bool(pair_index % 2),
                     reversed=bool((pair_index // 2) % 2))
    train, _ = synth_gaussian(d=8, num_classes=3, n_train=35, n_test=1,
                              separation=6.0, sigma=1.0, seed=11)
    module = init_luca(8, 4, config=cfg, rng_seed=6)
    return train, module, make_head(8, (0, 1, 2))


@pytest.mark.parametrize("rule", sorted(_STEP_RULES))
@pytest.mark.parametrize("pair_index", range(len(_PAIRS)))
def test_training_matches_the_per_step_round_trip_bit_for_bit(pair_index, rule):
    # float64 working copies and cached activation derivatives against the
    # reference loop that upcasts, recomputes and downcasts at every step
    cfg = OptimConfig(epochs=3, **_STEP_RULES[rule])
    train, module, head = _pair_problem(pair_index)
    w_down_at_init = module.w_down.copy()
    got_m, got_h, got_trace = train_epochs(module, head, train, cfg,
                                           Xoshiro256StarStar(5))
    train, ref_m, ref_h = _pair_problem(pair_index)
    ref_trace = train_epochs_reference(ref_m, ref_h, train, cfg,
                                       Xoshiro256StarStar(5))
    got = list(got_m.matrices()) + [got_h.w]
    ref = list(ref_m.matrices()) + [ref_h.w]
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype == np.float32
        assert np.array_equal(g, r)
        assert g.tobytes() == r.tobytes()  # signs of zeros too
    assert got_trace == ref_trace
    assert not np.array_equal(got_m.w_down, w_down_at_init)


@pytest.mark.parametrize("pair_index", range(len(_PAIRS)))
def test_each_step_evaluates_every_activation_once(pair_index, monkeypatch):
    counts = {"erf": 0, "sigmoid": 0, "activation_grad": 0, "sgd_l1_step": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tosca.numerics, "erf",
                        counting("erf", tosca.numerics.erf))
    monkeypatch.setattr(tosca.numerics, "_stable_sigmoid",
                        counting("sigmoid", tosca.numerics._stable_sigmoid))
    monkeypatch.setattr(tosca.luca, "activation_grad",
                        counting("activation_grad", tosca.luca.activation_grad))
    monkeypatch.setattr(optim, "sgd_l1_step",
                        counting("sgd_l1_step", optim.sgd_l1_step))
    train, module, head = _pair_problem(pair_index)
    train_epochs(module, head, train, OptimConfig(epochs=2),
                 Xoshiro256StarStar(5))
    steps = 2 * 3  # 2 epochs of 3 batches
    halves = _PAIRS[pair_index]
    assert counts == {"erf": steps * halves.count("gelu"),
                      "sigmoid": steps * halves.count("sigmoid"),
                      "activation_grad": 2 * steps,
                      "sgd_l1_step": 4 * steps}
