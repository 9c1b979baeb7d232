"""Activation, row softmax, reference entropy, and exact-order linear
algebra tests.

Closed-form values below were frozen from a 40-digit mpmath evaluation of the
defining formulas (erf-based gelu, logistic sigmoid, Shannon entropy in nats).
"""

import math

import numpy as np
import pytest

from oracle import matvec, shannon_entropy, softmax
from tosca.numerics import (ACTIVATIONS, activation, activation_grad,
                            softmax_rows, vecmat)

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
