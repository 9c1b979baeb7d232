"""Linear head and prototype-classifier tests."""

import numpy as np
import pytest

from tosca.data import synth_gaussian
from tosca.heads import (PrototypeBank, SessionHead, build_prototypes,
                         extend_head, head_forward, head_forward_batch,
                         make_head, prototype_classify_batch)
from tosca.rng import Xoshiro256StarStar


def _classify_one(z, bank):
    # one sample as a one-row batch
    return int(prototype_classify_batch(np.array([z], dtype=np.float64),
                                        bank)[0])


def test_make_head_zero_init_and_ordering():
    h = make_head(4, (7, 3, 5))
    assert h.class_ids == (3, 5, 7)
    assert h.w.shape == (4, 3)
    assert h.w.dtype == np.float32
    assert np.array_equal(h.w, np.zeros((4, 3)))
    assert h.param_count == 12
    assert head_forward(np.ones(4), h).tolist() == [0.0, 0.0, 0.0]


def test_head_validation():
    with pytest.raises(ValueError, match="at least one class"):
        make_head(4, ())
    with pytest.raises(ValueError, match="duplicate class ids"):
        SessionHead(class_ids=(1, 1), w=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="ascending"):
        SessionHead(class_ids=(2, 1), w=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="dimensions must be positive"):
        make_head(0, (1,))
    h = make_head(4, (0, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        head_forward(np.zeros(5), h)


def test_head_forward_is_plain_linear_map():
    h = make_head(2, (0, 1))
    h.w[:] = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    assert head_forward([3.0, -1.0], h).tolist() == [3.0, -1.0]
    gen = Xoshiro256StarStar(5)
    hw = make_head(6, (0, 1, 2))
    hw.w[:] = gen.normals(18).reshape(6, 3).astype(np.float32)
    a, b = gen.normals(6), gen.normals(6)
    lhs = head_forward(2.0 * a + b, hw)
    rhs = 2.0 * head_forward(a, hw) + head_forward(b, hw)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_head_batch_matches_single():
    gen = Xoshiro256StarStar(6)
    h = make_head(5, (2, 9))
    h.w[:] = gen.normals(10).reshape(5, 2).astype(np.float32)
    Z = gen.normals(20).reshape(4, 5)
    batch = head_forward_batch(Z, h)
    for i in range(4):
        assert np.allclose(batch[i], head_forward(Z[i], h), rtol=1e-12)


def test_extend_head_keeps_old_columns_and_sorts():
    h = make_head(3, (4, 6))
    h.w[:, 0] = [1, 2, 3]
    h.w[:, 1] = [4, 5, 6]
    grown = extend_head(h, (5, 1))
    assert grown.class_ids == (1, 4, 5, 6)
    assert grown.w[:, grown.class_ids.index(4)].tolist() == [1, 2, 3]
    assert grown.w[:, grown.class_ids.index(6)].tolist() == [4, 5, 6]
    assert np.array_equal(grown.w[:, grown.class_ids.index(1)], np.zeros(3))
    assert np.array_equal(grown.w[:, grown.class_ids.index(5)], np.zeros(3))
    with pytest.raises(ValueError, match="overlapping classes"):
        extend_head(h, (6,))
    with pytest.raises(ValueError, match="duplicate class ids"):
        extend_head(h, (8, 8))


def test_prototypes_are_class_means():
    feats = np.array([[1.0, 3.0], [3.0, 5.0], [10.0, 0.0]])
    labels = np.array([0, 0, 1])
    bank = build_prototypes(feats, labels)
    assert bank.means[0].tolist() == [2.0, 4.0]
    assert bank.means[1].tolist() == [10.0, 0.0]
    assert bank.counts == {0: 2, 1: 1}
    assert bank.class_ids == (0, 1)


def test_prototypes_accumulate_across_sessions():
    b1 = build_prototypes(np.array([[1.0, 0.0]]), np.array([0]))
    b2 = build_prototypes(np.array([[0.0, 1.0]]), np.array([1]), bank=b1)
    assert b2 is b1
    assert b2.class_ids == (0, 1)
    with pytest.raises(ValueError, match="overlapping classes"):
        build_prototypes(np.array([[5.0, 5.0]]), np.array([0]), bank=b2)


def test_prototype_input_validation():
    with pytest.raises(ValueError, match="no samples"):
        build_prototypes(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_prototypes(np.zeros((2, 3)), np.zeros(3, dtype=int))
    bank = build_prototypes(np.array([[1.0, 0.0]]), np.array([4]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        prototype_classify_batch(np.zeros((1, 3)), bank)
    with pytest.raises(ValueError, match="dimension mismatch"):
        prototype_classify_batch(np.zeros(2), bank)
    with pytest.raises(ValueError, match="no samples"):
        prototype_classify_batch(np.ones((1, 2)), PrototypeBank(d=2))
    with pytest.raises(ValueError, match="degenerate vector"):
        prototype_classify_batch(np.zeros((1, 2)), bank)
    zero_mean = build_prototypes(np.array([[0.0, 0.0]]), np.array([1]))
    with pytest.raises(ValueError, match="degenerate vector"):
        prototype_classify_batch(np.ones((1, 2)), zero_mean)


def test_prototype_cosine_scoring():
    bank = build_prototypes(np.array([[1.0, 0.0], [0.0, 1.0]]),
                            np.array([0, 1]))
    assert _classify_one([0.9, 0.1], bank) == 0
    assert _classify_one([0.1, 0.9], bank) == 1
    # equidistant: the first maximum keeps the lowest id
    assert _classify_one([1.0, 1.0], bank) == 0
    # cosine is scale invariant
    assert _classify_one([0.009, 0.001], bank) == 0
    assert _classify_one([900.0, 100.0], bank) == 0


def test_prototype_batch_matches_single():
    gen = Xoshiro256StarStar(71)
    feats = gen.normals(60).reshape(20, 3) + 2.0
    labels = np.repeat(np.arange(4), 5)
    bank = build_prototypes(feats, labels)
    Z = gen.normals(30).reshape(10, 3) + 2.0
    batch = prototype_classify_batch(Z, bank)
    singles = [_classify_one(Z[i], bank) for i in range(10)]
    assert batch.tolist() == singles


def test_prototypes_separate_well_spread_classes():
    # 6 sigma of separation: class means alone should classify almost
    # every training sample correctly
    train, _ = synth_gaussian(d=32, num_classes=4, n_train=100, n_test=10,
                              separation=138.0, sigma=23.0, seed=11)
    bank = build_prototypes(train.features, train.labels)
    picks = prototype_classify_batch(train.features, bank)
    acc = float(np.mean(picks == train.labels)) * 100.0
    assert acc >= 99.0
