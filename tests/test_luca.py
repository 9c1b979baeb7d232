"""Module forward/backward tests.

The backward pass is checked against a finite-difference oracle written here
from scratch (copy-and-perturb over a flat parameter vector), separate from
the library's own self-check, so the two cannot share a bug.
"""

import copy
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest

import tosca.luca
from oracle import (adapter_forward, calibrator_forward, luca_backward,
                    module_of)
from tosca.luca import (LucaConfig, LucaModule, gradient_check, init_luca,
                        l1_norm, layerwise_adapter_count, luca_backward_batch,
                        luca_forward, luca_forward_batch, matrix_views,
                        param_count, sparsity_ratio)
from tosca.numerics import ACTIVATIONS
from tosca.rng import Xoshiro256StarStar


def _worked_module(**cfg_kw):
    cfg = LucaConfig(adapter_act="relu", gate_act="relu", **cfg_kw)
    return module_of(w_down=np.array([[1.0], [0.0]]),
                     w_up=np.array([[1.0, 1.0]]),
                     v_down=np.array([[1.0], [1.0]]),
                     v_up=np.array([[0.5, 0.5]]),
                     config=cfg)


def test_adapter_worked_example():
    # z=[1,2]: bottleneck = relu(1) = 1, up = [1,1], plus skip -> [2,3];
    # V_up = 0 with the residual gate makes the calibrator the identity
    m = _worked_module(gate_residual=True)
    m.v_up[:] = 0.0
    assert luca_forward([1.0, 2.0], m).tolist() == [2.0, 3.0]
    assert adapter_forward([1.0, 2.0], m).tolist() == [2.0, 3.0]


def test_calibrator_worked_example():
    # gate = relu(1+2) [0.5,0.5] = [1.5,1.5]; z * gate = [1.5, 3.0];
    # W_up = 0 makes the adapter the identity
    m = _worked_module()
    m.w_up[:] = 0.0
    assert luca_forward([1.0, 2.0], m).tolist() == [1.5, 3.0]
    assert calibrator_forward([1.0, 2.0], m).tolist() == [1.5, 3.0]


def test_full_module_composes_the_two():
    # calibrator(adapter([1,2])) = calibrator([2,3]) = [2,3] * 2.5
    m = _worked_module()
    assert luca_forward([1.0, 2.0], m).tolist() == [5.0, 7.5]
    chained = calibrator_forward(adapter_forward([1.0, 2.0], m), m)
    assert np.array_equal(luca_forward([1.0, 2.0], m), chained)


def test_reversed_order_swaps_composition():
    # adapter(calibrator([1,2])) = adapter([1.5,3]) = [1.5,1.5] + [1.5,3]
    m = _worked_module(reversed=True)
    assert luca_forward([1.0, 2.0], m).tolist() == [3.0, 4.5]
    want = adapter_forward(calibrator_forward([1.0, 2.0], m), m)
    assert np.array_equal(luca_forward([1.0, 2.0], m), want)


def test_orders_differ_in_general():
    m = init_luca(6, 3, rng_seed=12, dtype=np.float64)
    m.w_up[:] = Xoshiro256StarStar(13).normals(18).reshape(3, 6)
    z = Xoshiro256StarStar(14).normals(6)
    fwd = luca_forward(z, m)
    rev = luca_forward(z, replace(m, config=replace(m.config, reversed=True)))
    assert not np.allclose(fwd, rev)


def test_zero_up_projections_give_identity_with_residual_gate():
    cfg = LucaConfig(gate_residual=True)
    m = init_luca(16, 4, config=cfg, rng_seed=3)
    m.v_up[:] = 0.0  # w_up is already zero at init
    gen = Xoshiro256StarStar(8)
    for _ in range(20):
        z = gen.normals(16)
        out = luca_forward(z, m)
        assert np.array_equal(out, z)  # bit-exact, not approximate


def test_zero_gate_without_residual_kills_output():
    m = init_luca(8, 2, rng_seed=4)
    m.v_up[:] = 0.0
    z = Xoshiro256StarStar(2).normals(8)
    assert np.array_equal(luca_forward(z, m), np.zeros(8))


def test_adapter_identity_when_up_is_zero():
    # W_up is zero at init: the output cannot depend on W_down
    m = init_luca(8, 2, rng_seed=5)
    other = module_of(init_luca(8, 2, rng_seed=6).w_down, m.w_up, m.v_down,
                      m.v_up, m.config)
    z = Xoshiro256StarStar(6).normals(8)
    assert np.array_equal(luca_forward(z, m), luca_forward(z, other))
    assert np.allclose(luca_forward(z, m), calibrator_forward(z, m),
                       rtol=1e-12, atol=1e-15)


def test_input_validation():
    m = init_luca(4, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        luca_forward(np.zeros(5), m)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        init_luca(0, 2)
    with pytest.raises(ValueError):
        LucaConfig(adapter_act="softplus")
    with pytest.raises(ValueError, match="non-finite"):
        LucaModule(2, 1, np.array([np.nan] + [0.0] * 7))


@pytest.mark.parametrize("shape", [(23,), (25,), (0,), (4, 6), (24, 1)])
def test_module_refuses_params_of_the_wrong_shape_by_name(shape):
    want = r"^params has shape \(" + ", ".join(map(str, shape))
    with pytest.raises(ValueError, match=want + r".*expected \(24,\)"):
        LucaModule(d=3, r=2, params=np.zeros(shape))


def test_the_four_matrices_are_views_of_params():
    m = init_luca(6, 2, rng_seed=3)
    m.w_up[1, 4] = 0.5
    assert m.params[12 + 1 * 6 + 4] == np.float32(0.5)
    for mat, want in zip(m.matrices(), matrix_views(m.params, 6, 2)):
        assert np.shares_memory(mat, m.params)
        assert np.array_equal(mat, want)
    with pytest.raises(AttributeError):
        m.w_down = np.zeros((6, 2), dtype=np.float32)


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_module_views_its_own_params(how):
    m = init_luca(6, 2, rng_seed=3)
    if how == "deepcopy":
        c = copy.deepcopy(m)
    else:
        c = pickle.loads(pickle.dumps(m))
    assert vars(c).keys() == {"d", "r", "params", "config"}
    assert not np.shares_memory(c.params, m.params)
    assert c.params.tobytes() == m.params.tobytes()
    for name in ("w_down", "w_up", "v_down", "v_up"):
        assert np.shares_memory(getattr(c, name), c.params), name
    c.v_up[...] = 1.0
    assert np.all(c.params[-12:] == 1.0) and not np.any(m.params == 1.0)


@pytest.mark.parametrize("value", ["yes", 1, 0, None])
@pytest.mark.parametrize("field", ["gate_residual", "reversed"])
def test_config_refuses_a_flag_that_is_not_a_bool(field, value):
    # a truthy string would train, then fail to serialize into a bank
    with pytest.raises(ValueError, match=f"^{field} must be a bool"):
        LucaConfig(**{field: value})


def test_module_rejects_empty_dimensions():
    # a rank-0 module would save into a bank file that load_bank refuses
    for d, r in ((3, 0), (0, 2), (0, 0)):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            LucaModule(d=d, r=r, params=np.zeros(4 * d * r))


def test_init_is_deterministic_and_documented():
    a = init_luca(12, 3, rng_seed=99)
    b = init_luca(12, 3, rng_seed=99)
    for x, y in zip(a.matrices(), b.matrices()):
        assert np.array_equal(x, y)
    assert np.array_equal(a.w_up, np.zeros((3, 12)))
    assert a.w_down.dtype == np.float32
    # documented draw order from one stream: W_down, V_down, V_up
    gen = Xoshiro256StarStar(99)
    want_wd = gen.normals(36, std=0.02).reshape(12, 3).astype(np.float32)
    want_vd = gen.normals(36, std=0.02).reshape(12, 3).astype(np.float32)
    want_vu = gen.normals(36, std=0.02).reshape(3, 12).astype(np.float32)
    assert np.array_equal(a.w_down, want_wd)
    assert np.array_equal(a.v_down, want_vd)
    assert np.array_equal(a.v_up, want_vu)
    c = init_luca(12, 3, rng_seed=100)
    assert not np.array_equal(a.w_down, c.w_down)


def test_parameter_accounting():
    assert param_count(768, 48) == 147456
    assert param_count(8, 2) == 64
    assert layerwise_adapter_count(12, 768, 48) == 884736
    assert layerwise_adapter_count(12, 768, 48) / param_count(768, 48) == 6.0
    m = init_luca(10, 3)
    assert m.param_count == 4 * 10 * 3
    assert m.flat_params().shape == (120,)
    with pytest.raises(ValueError):
        param_count(0, 4)


def test_l1_norm_and_sparsity():
    m = module_of(np.full((2, 1), 0.5), np.full((1, 2), -0.5),
                  np.full((2, 1), 0.5), np.full((1, 2), 0.5))
    assert l1_norm(m) == 4.0
    z = init_luca(6, 2, rng_seed=1)  # w_up zero, rest nonzero
    assert sparsity_ratio(z, 0.0) == pytest.approx(12 / 48)
    assert sparsity_ratio(z, 1.0) == 1.0
    # entries exactly at the threshold count as small
    flat = module_of(np.full((2, 1), 0.25), np.full((1, 2), 0.25),
                     np.full((2, 1), 0.25), np.full((1, 2), 0.25))
    assert sparsity_ratio(flat, 0.25) == 1.0


# --- finite-difference oracle, written independently of the library ---------

_SLOTS = ("w_down", "w_up", "v_down", "v_up")


def _backward(m, cache, U):
    """The weight gradients by slot: the ``matrix_views`` of a fresh flat
    vector in U's dtype, written by ``luca_backward_batch`` as training
    receives them."""
    flat = np.empty(4 * m.d * m.r, dtype=np.asarray(U).dtype)
    luca_backward_batch(m, cache, U, flat)
    return dict(zip(_SLOTS, matrix_views(flat, m.d, m.r)))


def _objective(Z, m, U):
    # sum_i <U_i, L(Z_i)> over one row or a batch of rows
    return float(np.sum(U * luca_forward_batch(np.atleast_2d(Z), m)))


def _fd_grads(z, m, upstream, wrt_input=False, h=1e-5):
    """Central differences on copies of the module, one entry at a time,
    and, with ``wrt_input``, on copies of ``z`` as ``d_input``.

    ``z`` and ``upstream`` are one row or a batch of rows; parameter
    gradients are summed over the rows, as ``luca_backward_batch`` does.
    """
    grads = {}
    for slot in _SLOTS:
        base = getattr(m, slot)
        g = np.zeros_like(base)
        for flat in range(base.size):
            plus = copy.deepcopy(m)
            getattr(plus, slot).flat[flat] += h
            minus = copy.deepcopy(m)
            getattr(minus, slot).flat[flat] -= h
            g.flat[flat] = (_objective(z, plus, upstream)
                            - _objective(z, minus, upstream)) / (2 * h)
        grads[slot] = g
    if not wrt_input:
        return grads
    z = np.asarray(z, dtype=np.float64)
    dz = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp.flat[i] += h
        zm.flat[i] -= h
        dz.flat[i] = (_objective(zp, m, upstream)
                      - _objective(zm, m, upstream)) / (2 * h)
    grads["d_input"] = dz
    return grads


def _assert_grads_match(analytic, numeric):
    # every gradient in ``analytic``, a dict by slot, against ``numeric``
    assert analytic.keys() == numeric.keys()
    for slot, a in analytic.items():
        n = numeric[slot]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        assert (np.abs(a - n) / denom).max() < 1e-4, slot


def _random_module(gen, d, r, cfg):
    return module_of(gen.normals(d * r, std=0.4).reshape(d, r),
                     gen.normals(r * d, std=0.4).reshape(r, d),
                     gen.normals(d * r, std=0.4).reshape(d, r),
                     gen.normals(r * d, std=0.4).reshape(r, d), cfg)


@pytest.mark.parametrize("adapter_act,gate_act,residual,rev", [
    ("gelu", "sigmoid", False, False),
    ("gelu", "sigmoid", True, False),
    ("relu", "sigmoid", False, False),
    ("gelu", "gelu", False, True),
    ("sigmoid", "sigmoid", True, True),
])
def test_backward_matches_finite_differences(adapter_act, gate_act, residual, rev):
    cfg = LucaConfig(adapter_act=adapter_act, gate_act=gate_act,
                     gate_residual=residual, reversed=rev)
    gen = Xoshiro256StarStar(101)
    d, r = 7, 3
    m = _random_module(gen, d, r, cfg)
    z = gen.normals(d)
    if adapter_act == "relu":
        # nudge the input until every relu pre-activation is off the kink
        while np.abs(z @ m.w_down).min() < 1e-3:
            z = gen.normals(d)
    upstream = gen.normals(d)
    _assert_grads_match(vars(luca_backward(z, m, upstream)),
                        _fd_grads(z, m, upstream, wrt_input=True))


@pytest.mark.parametrize("rev", [False, True])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("gate_act", ACTIVATIONS)
@pytest.mark.parametrize("adapter_act", ACTIVATIONS)
def test_batch_backward_matches_finite_differences(adapter_act, gate_act,
                                                   residual, rev):
    # the backward pass training runs, checked directly on a multi-row batch
    cfg = LucaConfig(adapter_act=adapter_act, gate_act=gate_act,
                     gate_residual=residual, reversed=rev)
    gen = Xoshiro256StarStar(211)
    B, d, r = 4, 6, 3
    m = _random_module(gen, d, r, cfg)
    while True:
        Z = gen.normals(B * d).reshape(B, d)
        _, cache = luca_forward_batch(Z, m, return_cache=True)
        # adapter and gate pre-activations, H and Q, must sit off relu kinks
        (_, H, _, _), (_, Q, _, _, _) = cache
        if min(np.abs(H).min(), np.abs(Q).min()) >= 1e-3:
            break
    U = gen.normals(B * d).reshape(B, d)
    _assert_grads_match(_backward(m, cache, U), _fd_grads(Z, m, U))


_CONFIGS = [LucaConfig(adapter_act=a, gate_act=g, gate_residual=res,
                       reversed=rev)
            for a in ACTIVATIONS for g in ACTIVATIONS
            for res in (False, True) for rev in (False, True)]


@pytest.mark.parametrize("cfg", _CONFIGS, ids=str)
def test_backward_writes_all_of_out_and_leaves_its_inputs(cfg):
    # every entry of the flat vector is written, and U, the cache and the
    # module are left for the next call, which writes the same bytes
    gen = Xoshiro256StarStar(307)
    B, d, r = 5, 6, 3
    m = _random_module(gen, d, r, cfg)
    Z = gen.normals(B * d).reshape(B, d)
    U = gen.normals(B * d).reshape(B, d)
    _, cache = luca_forward_batch(Z, m, return_cache=True)
    inputs = [U, *m.matrices()] + [a for half in cache for a in half
                                   if a is not None]
    before = [a.tobytes() for a in inputs]
    flat = np.full(4 * d * r, np.nan)
    assert luca_backward_batch(m, cache, U, flat) is None
    assert np.all(np.isfinite(flat))
    assert [a.tobytes() for a in inputs] == before
    again = np.full(4 * d * r, np.nan)
    luca_backward_batch(m, cache, U, again)
    assert again.tobytes() == flat.tobytes()


def test_gradient_check_checks_the_gradients_written_into_out(monkeypatch):
    # the built-in check reads the weight gradients from a flat ``out``, as
    # training does: a fault confined to that path must not pass
    real = luca_backward_batch

    def skewed(m, cache, U, out):
        real(m, cache, U, out)
        out *= 1.01

    monkeypatch.setattr(tosca.luca, "luca_backward_batch", skewed)
    assert gradient_check(trials=4) > 1e-3


@pytest.mark.parametrize("cfg", _CONFIGS, ids=str)
def test_forward_leaves_its_inputs_unchanged(cfg):
    gen = Xoshiro256StarStar(311)
    m = _random_module(gen, 6, 3, cfg)
    Z = gen.normals(4 * 6).reshape(4, 6)
    before = [a.tobytes() for a in (Z,) + m.matrices()]
    for keep in (False, True):
        luca_forward_batch(Z, m, return_cache=keep)
        assert [a.tobytes() for a in (Z,) + m.matrices()] == before


def test_upstream_zero_gives_zero_grads():
    m = init_luca(5, 2, rng_seed=7, dtype=np.float64)
    z = Xoshiro256StarStar(1).normals(5)[None, :]
    _, cache = luca_forward_batch(z, m, return_cache=True)
    for g in _backward(m, cache, np.zeros((1, 5))).values():
        assert np.array_equal(g, np.zeros_like(g))


def test_dead_relu_bottleneck_blocks_w_up_grad():
    cfg = LucaConfig(adapter_act="relu")
    m = module_of(np.full((3, 2), -1.0), np.ones((2, 3)), np.zeros((3, 2)),
                  np.zeros((2, 3)), cfg)
    z = np.array([[1.0, 1.0, 1.0]])  # pre-activations all -3: relu dead
    _, cache = luca_forward_batch(z, m, return_cache=True)
    g = _backward(m, cache, np.ones((1, 3)))
    assert np.array_equal(g["w_up"], np.zeros((2, 3)))
    assert np.array_equal(g["w_down"], np.zeros((3, 2)))


def test_gradient_check_refuses_zero_trials():
    # no trial checks nothing: criterion 1 must not pass vacuously
    with pytest.raises(ValueError, match="trials must be at least 1, not 0"):
        gradient_check(trials=0)


def test_builtin_gradient_check_is_tight_and_fast():
    start = time.perf_counter()
    err = gradient_check(trials=20)
    elapsed = time.perf_counter() - start
    assert err <= 1e-4
    assert elapsed < 5.0


def test_batch_forward_matches_single():
    for rev in (False, True):
        cfg = LucaConfig(gate_residual=True, reversed=rev)
        m = init_luca(9, 3, config=cfg, rng_seed=21, dtype=np.float64)
        m.w_up[:] = Xoshiro256StarStar(22).normals(27).reshape(3, 9) * 0.3
        Z = Xoshiro256StarStar(23).normals(45).reshape(5, 9)
        batch = luca_forward_batch(Z, m)
        for i in range(5):
            single = luca_forward(Z[i], m)
            assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-12)
            # against the exact-order per-sample halves in tests/oracle.py
            if rev:
                want = adapter_forward(calibrator_forward(Z[i], m), m)
            else:
                want = calibrator_forward(adapter_forward(Z[i], m), m)
            assert np.allclose(batch[i], want, rtol=1e-12, atol=1e-12)


def test_a_float32_row_scores_as_its_one_row_batch():
    m = init_luca(16, 4, rng_seed=3)  # float32 weights
    m.w_up[:] = Xoshiro256StarStar(4).normals(64).reshape(4, 16) * 0.3
    z = Xoshiro256StarStar(5).normals(16).astype(np.float32)
    single = luca_forward(z, m)
    assert single.dtype == np.float32
    assert single.tobytes() == luca_forward_batch(z[None], m)[0].tobytes()


def test_batch_forward_computes_in_its_rows_dtype(monkeypatch):
    # and the backward in its upstream's, which training gives as float32
    for rev in (False, True):
        cfg = LucaConfig(reversed=rev)
        m = init_luca(9, 3, config=cfg, rng_seed=21)  # float32 weights
        m.w_up[:] = Xoshiro256StarStar(22).normals(27).reshape(3, 9) * 0.3
        Z32 = Xoshiro256StarStar(23).normals(45).reshape(5, 9).astype(
            np.float32)
        U32 = Xoshiro256StarStar(24).normals(45).reshape(5, 9).astype(
            np.float32)
        out32, cache = luca_forward_batch(Z32, m, return_cache=True)
        assert out32.dtype == np.float32
        assert all(a.dtype == np.float32 for half in cache for a in half)
        # float64 rows upcast the weights: the float64 result, which the
        # float32 one follows to float32 precision
        out64, cache64 = luca_forward_batch(Z32.astype(np.float64), m,
                                            return_cache=True)
        assert out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-6)
        # float64 weights under float32 rows are cast down to them
        m64 = replace(m, params=m.params.astype(np.float64))
        assert np.array_equal(luca_forward_batch(Z32, m64), out32)
        # every array the backward flushes is in the upstream's dtype
        flushed = []
        real_flush = tosca.luca.flush_subnormals

        def flush(a):
            flushed.append(a.dtype)
            return real_flush(a)

        with monkeypatch.context() as patched:
            patched.setattr(tosca.luca, "flush_subnormals", flush)
            g32 = _backward(m, cache, U32)
            assert flushed and set(flushed) == {np.dtype(np.float32)}
            flushed.clear()
            g64 = _backward(m, cache64, U32.astype(np.float64))
            assert flushed and set(flushed) == {np.dtype(np.float64)}
        for slot in _SLOTS:
            assert g32[slot].dtype == np.float32
            assert g64[slot].dtype == np.float64
            np.testing.assert_allclose(g32[slot], g64[slot],
                                       rtol=1e-4, atol=1e-6)
    # the built-in check still runs its backward in float64
    upstreams = []
    real = luca_backward_batch

    def spy(m, cache, U, out):
        real(m, cache, U, out)
        upstreams.append(U.dtype == out.dtype == np.float64)

    monkeypatch.setattr(tosca.luca, "luca_backward_batch", spy)
    assert gradient_check(trials=2) <= 1e-4
    assert upstreams and all(upstreams)


def test_batch_backward_sums_per_sample_grads():
    # against the exact-order per-sample reference in tests/oracle.py
    Z = Xoshiro256StarStar(33).normals(24).reshape(4, 6)
    U = Xoshiro256StarStar(34).normals(24).reshape(4, 6)
    for rev in (False, True):
        cfg = LucaConfig(reversed=rev)
        m = init_luca(6, 2, config=cfg, rng_seed=31, dtype=np.float64)
        m.w_up[:] = Xoshiro256StarStar(32).normals(12).reshape(2, 6) * 0.2
        _, cache = luca_forward_batch(Z, m, return_cache=True)
        got = _backward(m, cache, U)
        want = {slot: np.zeros_like(getattr(m, slot)) for slot in _SLOTS}
        for i in range(4):
            gi = luca_backward(Z[i], m, U[i])
            _, row_cache = luca_forward_batch(Z[i:i + 1], m, return_cache=True)
            row = _backward(m, row_cache, U[i:i + 1])
            for slot in _SLOTS:
                want[slot] += getattr(gi, slot)
                assert np.allclose(row[slot], getattr(gi, slot),
                                   rtol=1e-10, atol=1e-12)
        for slot in _SLOTS:
            assert np.allclose(got[slot], want[slot],
                               rtol=1e-10, atol=1e-12)
