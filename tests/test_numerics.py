"""Activation, erf, softmax, reference entropy, and exact-order linear
algebra tests.

Closed-form values below were frozen from a 40-digit mpmath evaluation of the
defining formulas (erf-based gelu, logistic sigmoid, Shannon entropy in nats).
The float32 kernels are held to ``math.erf`` and float64 references on a
dense float32 grid.
"""

import math

import numpy as np
import pytest

from oracle import matvec, shannon_entropy, softmax
from tosca import numerics
from tosca.numerics import (ACTIVATIONS, activation, activation_grad, erf,
                            flush_subnormals, softmax_rows, vecmat)

_math_erf = np.frompyfunc(math.erf, 1, 1)
# every float32 erf result at or beyond the clamp, and every Phi result
# at or beyond it times sqrt 2, is exactly +-1 (0 or 1 for Phi)
_PHI_FLAT = float(numerics._ERF_CLAMP) * math.sqrt(2.0)

# 0.5 * x * (1 + erf(x / sqrt(2))), 40-digit evaluation, rounded to f64
_GELU_TABLE = {
    3.0: 2.99595030590510971642,
    1.0: 0.8413447460685429485852,
    -0.5: -0.1542687693629934481811,
    0.1: 0.05398278372770290136354,
}


def test_gelu_against_closed_form():
    for x, want in _GELU_TABLE.items():
        got = float(activation("gelu", np.array([x]))[0])
        assert got == pytest.approx(want, rel=1e-15)
    # coarser published figure for the same point
    assert float(activation("gelu", np.array([3.0]))[0]) == pytest.approx(
        2.99596, abs=1e-4)


def test_relu_and_sigmoid_values():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(activation("relu", x), [0.0, 0.0, 3.5])
    s = activation("sigmoid", np.array([2.0]))
    assert float(s[0]) == pytest.approx(0.8807970779778824440597, rel=1e-15)
    assert float(activation("sigmoid", np.array([0.0]))[0]) == 0.5


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        activation("tanh", np.array([1.0]))
    with pytest.raises(ValueError, match="unknown activation"):
        activation_grad("swish", np.array([1.0]))


def test_activation_grads_match_finite_differences():
    rng = np.random.default_rng(17)
    xs = rng.normal(size=64)
    h = 1e-6
    for kind in ACTIVATIONS:
        pts = xs.copy()
        if kind == "relu":
            # keep clear of the kink so the central difference is valid
            pts = pts[np.abs(pts) > 1e-3]
        num = (activation(kind, pts + h) - activation(kind, pts - h)) / (2 * h)
        ana = activation_grad(kind, pts)
        assert np.allclose(ana, num, rtol=1e-6, atol=1e-8)


def _bitwise_grid() -> np.ndarray:
    # about 300k float64 values, each with both signs: log-spaced magnitudes
    # over the whole finite range (5e-324 to 1.8e308), +-0 and the first
    # subnormals at the relu kink, and dense runs around the sigmoid's
    # saturation edges (|x| ~ 36.7: 1 + exp(-|x|) rounds to 1; 709.8: exp
    # overflows; 745.1: exp(-|x|) underflows to 0)
    top = np.finfo(np.float64).max  # 1.797e308
    logs = np.linspace(np.log10(5e-324), np.log10(top), 100_001)
    mags = [np.concatenate([[5e-324], 10.0 ** logs[1:-1], [top]])]
    for edge in (36.7, 709.8, 745.1):
        mags.append(np.linspace(edge - 0.5, edge + 0.5, 16_001))
    mags.append(np.nextafter(0.0, 1.0) * np.arange(1, 1_001))
    mags = np.concatenate(mags)
    return np.concatenate([mags, -mags, [0.0, -0.0]])


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _erf_formula(z) -> np.ndarray:
    # math.erf for float64; for float32, x P(x^2) / Q(x^2) in float64 on x
    # clamped to [-c, c], Q monic, rounded to float32
    if z.dtype == np.float64:
        return _math_erf(z).astype(np.float64)
    y = np.maximum(np.minimum(np.asarray(z, dtype=np.float64),
                              numerics._ERF_CLAMP), -numerics._ERF_CLAMP)
    t = y * y
    return (y * np.polyval(numerics._ERF_P, t) / np.polyval(
        (1.0,) + numerics._ERF_Q, t)).astype(np.float32)


def _defining_formulas(x):
    """Each activation and its derivative written out in the kernels'
    order, with constants of x's dtype."""
    f = x.dtype.type
    s = np.tanh(x * f(0.5)) * f(0.5) + f(0.5)
    cdf = _erf_formula(x * f(1.0 / math.sqrt(2.0))) * f(0.5) + f(0.5)
    pdf = np.exp(f(-0.5) * x * x) * f(1.0 / math.sqrt(2.0 * math.pi))
    return {
        "relu": (np.maximum(x, f(0.0)), (x > 0).astype(x.dtype)),
        "gelu": (x * cdf, x * pdf + cdf),
        "sigmoid": (s, (f(1.0) - s) * s),
    }


def test_activations_are_bit_identical_to_their_defining_formulas():
    # written out here as the kernels have them; the forward's cache must
    # give the same derivative bits as a fresh evaluation
    x = _bitwise_grid()
    assert x.size > 290_000
    with np.errstate(all="ignore"):
        want = _defining_formulas(x)
        for kind in ACTIVATIONS:
            want_out, want_grad = want[kind]
            out, cache = activation(kind, x, return_cache=True)
            assert np.array_equal(_bits(activation(kind, x)), _bits(want_out))
            assert np.array_equal(_bits(out), _bits(want_out))
            assert np.array_equal(_bits(activation_grad(kind, x)),
                                  _bits(want_grad))
            assert np.array_equal(_bits(activation_grad(kind, x, cache)),
                                  _bits(want_grad))


def test_activations_leave_their_inputs_unchanged():
    # each result is built in place in its own array, never in x or a cache
    x = _bitwise_grid()
    x_bits = x.tobytes()
    with np.errstate(all="ignore"):
        for kind in ACTIVATIONS:
            out, cache = activation(kind, x, return_cache=True)
            kept = None if cache is None else cache.tobytes()
            out_bits = out.tobytes()
            activation(kind, x)
            activation_grad(kind, x)
            activation_grad(kind, x, cache)
            assert x.tobytes() == x_bits
            assert out.tobytes() == out_bits
            assert kept is None or cache.tobytes() == kept


def test_activations_take_a_0d_input():
    for kind in ACTIVATIONS:
        x = np.float64(0.3)
        out, cache = activation(kind, x, return_cache=True)
        want = activation(kind, np.array([0.3]))[0]
        assert float(out) == want
        assert float(activation_grad(kind, x, cache)) == float(
            activation_grad(kind, np.array([0.3]))[0])


def test_float32_activations_compute_in_float32():
    # bit for bit the formulas evaluated in float32, with float32 constants
    # (an np.float64 constant would compute in float64 and round), but for
    # erf, which computes in float64 and rounds once to float32
    x = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                        [0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30]]
                       ).astype(np.float32)
    with np.errstate(all="ignore"):
        want = _defining_formulas(x)
        for kind in ACTIVATIONS:
            want_out, want_grad = want[kind]
            assert want_out.dtype == want_grad.dtype == np.float32
            out, cache = activation(kind, x, return_cache=True)
            grad = activation_grad(kind, x, cache)
            assert out.dtype == grad.dtype == np.float32
            assert cache is None or cache.dtype == np.float32
            assert out.tobytes() == want_out.tobytes()
            assert grad.tobytes() == want_grad.tobytes()
            assert activation_grad(kind, x).tobytes() == grad.tobytes()


def _dense_grid(top: float) -> np.ndarray:
    # float32, both signs: 1.2M even steps over [-top, top], every float32
    # in [1, 1 + 2**-10], a log sweep of small magnitudes and the extremes
    x = [np.linspace(-top, top, 1_200_001, dtype=np.float32),
         (np.arange(1 << 13, dtype=np.uint32)
          + np.float32(1.0).view(np.uint32)).view(np.float32),
         np.geomspace(1e-37, 1.0, 20_001).astype(np.float32)]
    x = np.concatenate(x)
    return np.concatenate([x, -x, np.array([np.inf, -np.inf, 3e38, -3e38],
                                           dtype=np.float32)])


def _ulps(got, want) -> np.ndarray:
    # |got - want| in float32 ulps of want
    spacing = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
    return np.abs(got.astype(np.float64) - want) / spacing


def test_erf_is_within_one_ulp_of_math_erf():
    x = _dense_grid(6.0)
    got = erf(x)
    assert got.dtype == np.float32
    out = np.empty_like(x)
    assert erf(x, out=out) is out and out.tobytes() == got.tobytes()
    assert _ulps(got, _math_erf(x.astype(np.float64)).astype(float)).max() <= 1.0
    # odd, 0 at 0, and flat at exactly +-1 from the clamp on
    assert np.array_equal(erf(-x), -got)
    assert erf(np.float32(0.0)) == 0.0
    flat = np.abs(x) >= numerics._ERF_CLAMP
    assert flat.sum() > 100_000 and np.array_equal(np.abs(got[flat]),
                                                    np.ones(flat.sum()))
    assert (np.abs(got) <= 1.0).all()
    # a float64 erf is math.erf's, entry by entry
    x64 = np.array([-np.inf, -10.0, -0.5, -0.0, 1e-300, 3.0, np.inf])
    assert erf(x64).tolist() == [math.erf(v) for v in x64]


def test_phi_and_sigmoid_meet_their_float64_references():
    x = _dense_grid(40.0)
    x = x[np.isfinite(x)]
    x64 = x.astype(np.float64)
    phi = numerics._gelu_cdf(x)
    want = 0.5 * (1.0 + _math_erf(x64 / math.sqrt(2.0)).astype(float))
    assert np.abs(phi - want).max() <= 2.0 ** -23
    sig = activation("sigmoid", x)
    want = 0.5 * np.tanh(x64 / 2.0) + 0.5  # the logistic, without overflow
    assert np.abs(sig - want).max() <= 2.0 ** -23


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_phi_and_sigmoid_stay_in_0_1_with_flat_tails(dtype):
    x = _dense_grid(40.0).astype(dtype)
    phi, sig = numerics._gelu_cdf(x), activation("sigmoid", x)
    for v in (phi, sig):
        assert v.dtype == dtype and ((0.0 <= v) & (v <= 1.0)).all()
    assert (sig[x <= -40.0] == 0.0).all() and (sig[x >= 40.0] == 1.0).all()
    # Phi is flat from the clamp on for float32, and for float64 from where
    # math.erf rounds to +-1, below 6 (6 sqrt 2 for Phi)
    flat = _PHI_FLAT if dtype == np.float32 else 6.0 * math.sqrt(2.0)
    assert (phi[x <= -flat] == 0.0).all() and (phi[x >= flat] == 1.0).all()


def test_no_forward_activation_is_subnormal():
    # a float32 forward value is 0 or at least 2**-25 in magnitude (gelu's
    # x times that), so no matmul downstream reads a subnormal
    x = _dense_grid(40.0)
    x = x[np.isfinite(x) & (np.abs(x) >= 2.0 ** -100)]
    tiny = np.finfo(np.float32).tiny
    for v in (numerics._gelu_cdf(x), activation("gelu", x),
              activation("sigmoid", x), activation("relu", x)):
        assert v.dtype == np.float32
        assert not ((v != 0.0) & (np.abs(v) < tiny)).any()


def test_activations_compute_anything_but_float32_in_float64():
    for kind in ACTIVATIONS:
        for x in (np.arange(-2, 3), [0.5, -1.0], np.float16(0.5), 0.3):
            assert activation(kind, x).dtype == np.float64
            assert activation_grad(kind, x).dtype == np.float64


def test_relu_grad_at_zero_is_zero():
    assert float(activation_grad("relu", np.array([0.0]))[0]) == 0.0


def test_softmax_known_values():
    p = softmax_rows(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
    want = [0.09003057317038045799802, 0.244728471054797652473,
            0.665240955774821889529]
    assert np.allclose(p[0], want, rtol=1e-15)
    assert np.allclose(p[1], [want[2], want[0], want[1]], rtol=1e-15)
    assert np.array_equal(softmax_rows(np.zeros((2, 2))), np.full((2, 2), 0.5))
    assert np.array_equal(softmax_rows(np.array([[7.0]])), [[1.0]])


def test_softmax_shift_invariance_and_overflow_safety():
    z = np.array([[1.0, -2.0, 0.5, 3.0]])
    assert np.allclose(softmax_rows(z), softmax_rows(z + 1234.5), rtol=1e-12)
    # each row is shifted by its own maximum
    both = softmax_rows(np.concatenate([z, z + 1234.5]))
    assert np.allclose(both[0], both[1], rtol=1e-12)
    big = softmax_rows(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.isfinite(big).all()
    assert big[:, 0].tolist() == [1.0, 1.0]


def test_softmax_of_float32_logits_is_the_float64_softmax():
    # softmax_rows raises the logits to float64 itself, so a float32 caller
    # gets the bits of converting first
    rng = np.random.default_rng(11)
    z32 = (rng.normal(size=(7, 5)) * [[0.1], [1], [10], [100], [1e3], [1e4],
                                      [3e4]]).astype(np.float32)
    kept = z32.copy()
    p = softmax_rows(z32)
    assert p.dtype == np.float64
    assert p.tobytes() == softmax_rows(z32.astype(np.float64)).tobytes()
    assert z32.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flush_zeroes_exactly_the_entries_below_tiny(dtype):
    tiny = np.finfo(dtype).tiny
    a = np.array([tiny / 2, -tiny / 2, -0.0, tiny, -tiny, 1.0, np.nan,
                  -np.inf], dtype=dtype)
    kept = a[3:].copy()
    assert flush_subnormals(a) is a
    assert a[:3].tobytes() == np.zeros(3, dtype).tobytes()  # +0, not -0
    assert a[3:].tobytes() == kept.tobytes()


def test_softmax_is_distribution():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(scale=rng.uniform(0.1, 50),
                       size=(rng.integers(1, 6), rng.integers(1, 9)))
        p = softmax_rows(z)
        assert p.shape == z.shape
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # row by row, the one-vector reference in tests/oracle.py
        for row, want in zip(p, z):
            np.testing.assert_allclose(row, softmax(want), rtol=0, atol=1e-15)


def test_entropy_known_values():
    # the reference entropy that routing is held to in tests/test_engine.py
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    u5 = shannon_entropy(np.full(5, 0.2))
    assert u5 == pytest.approx(1.609437912434100374601, rel=1e-15)
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(
        math.log(2.0), rel=1e-15)


def test_entropy_bounds_over_random_distributions():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 10))
        p = softmax(rng.normal(size=k))
        h = shannon_entropy(p)
        assert 0.0 <= h <= math.log(k) + 1e-12


def test_matvec_vecmat_definitions():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    v = np.array([1.0, -1.0])
    assert np.array_equal(matvec(m, v), [-1.0, -1.0, -1.0])
    w = np.array([1.0, 0.0, -1.0])
    assert np.array_equal(vecmat(w, m), [-4.0, -4.0])


def test_linear_ops_reject_mismatched_shapes():
    m = np.zeros((3, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        matvec(m, np.zeros(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        vecmat(np.zeros(2), m)
