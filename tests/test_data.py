"""Split plans, the synthetic benchmark, and the binary feature container."""

import struct

import numpy as np
import pytest

from tosca.data import (FORMAT_VERSION, MAGIC, FeatureDataset, load_features,
                        make_splits, save_features, synth_gaussian)
from tosca.rng import Xoshiro256StarStar


def test_uniform_splits():
    plan = make_splits(range(100), base=0, increment=10, seed=1)
    assert plan.num_stages == 10
    assert all(len(s) == 10 for s in plan.stages)
    flat = [c for s in plan.stages for c in s]
    assert sorted(flat) == list(range(100))


def test_base_plus_increment_splits():
    plan = make_splits(range(100), base=50, increment=25, seed=1)
    assert [len(s) for s in plan.stages] == [50, 25, 25]
    assert plan.classes_through(1) == tuple(sorted(plan.stages[0]))
    thru2 = plan.classes_through(2)
    assert len(thru2) == 75
    assert set(plan.stages[1]).issubset(thru2)
    assert plan.classes_through(3) == tuple(range(100))
    with pytest.raises(ValueError, match="stage index out of range"):
        plan.classes_through(0)
    with pytest.raises(ValueError, match="stage index out of range"):
        plan.classes_through(4)


def test_splits_are_seeded_shuffles():
    a = make_splits(range(30), 0, 5, seed=9)
    b = make_splits(range(30), 0, 5, seed=9)
    c = make_splits(range(30), 0, 5, seed=10)
    assert a.stages == b.stages
    assert a.stages != c.stages
    # contract: Fisher-Yates shuffle of the sorted ids, then contiguous cuts
    ids = list(range(30))
    Xoshiro256StarStar(9).shuffle(ids)
    want = tuple(tuple(ids[i:i + 5]) for i in range(0, 30, 5))
    assert a.stages == want


def test_split_mismatch_errors():
    with pytest.raises(ValueError, match="split mismatch"):
        make_splits(range(100), base=0, increment=7, seed=1)
    with pytest.raises(ValueError, match="split mismatch"):
        make_splits(range(10), base=11, increment=1, seed=1)
    with pytest.raises(ValueError, match="split mismatch"):
        make_splits(range(10), base=0, increment=0, seed=1)
    with pytest.raises(ValueError, match="split mismatch"):
        make_splits([], base=0, increment=1, seed=1)
    with pytest.raises(ValueError, match="duplicate class ids"):
        make_splits([1, 1, 2], base=0, increment=1, seed=1)
    # non-divisible leftover after the base chunk
    with pytest.raises(ValueError, match="split mismatch"):
        make_splits(range(10), base=3, increment=4, seed=1)


def test_synth_shapes_and_counts():
    train, test = synth_gaussian(d=16, num_classes=5, n_train=30, n_test=7,
                                 separation=10.0, sigma=2.0, seed=4)
    assert train.n == 150 and test.n == 35
    assert train.d == test.d == 16
    assert train.features.dtype == np.float32
    assert train.labels.dtype == np.uint32
    for c in range(5):
        assert int((train.labels == c).sum()) == 30
        assert int((test.labels == c).sum()) == 7
    # class-major layout
    assert train.labels.tolist() == sorted(train.labels.tolist())


def test_synth_means_replay_and_norms():
    # replay the documented construction of the class means: stream 0,
    # d normals per class, scaled onto the separation sphere
    d, k, sep = 12, 6, 37.5
    gen = Xoshiro256StarStar(123, stream=0)
    means = []
    for _ in range(k):
        v = gen.normals(d)
        means.append(v * (sep / np.linalg.norm(v)))
    means = np.array(means)
    assert np.allclose(np.linalg.norm(means, axis=1), sep, atol=1e-4)

    train, _ = synth_gaussian(d=d, num_classes=k, n_train=400, n_test=1,
                              separation=sep, sigma=1.0, seed=123)
    for c in range(k):
        sample_mean = train.features[train.labels == c].mean(axis=0)
        # sample mean of 400 draws: sigma/20 per coordinate
        assert np.allclose(sample_mean, means[c], atol=0.4)


def test_synth_train_and_test_use_separate_streams():
    train, test = synth_gaussian(d=8, num_classes=3, n_train=20, n_test=20,
                                 separation=5.0, sigma=1.0, seed=77)
    # no row of the test set appears in the train set
    tr = {t.tobytes() for t in train.features}
    assert all(t.tobytes() not in tr for t in test.features)
    # growing the train split must not move the test split
    _, test2 = synth_gaussian(d=8, num_classes=3, n_train=50, n_test=20,
                              separation=5.0, sigma=1.0, seed=77)
    assert np.array_equal(test.features, test2.features)


def test_synth_is_deterministic():
    a = synth_gaussian(d=8, num_classes=3, n_train=5, n_test=5,
                       separation=5.0, sigma=1.0, seed=42)
    b = synth_gaussian(d=8, num_classes=3, n_train=5, n_test=5,
                       separation=5.0, sigma=1.0, seed=42)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)
    c = synth_gaussian(d=8, num_classes=3, n_train=5, n_test=5,
                       separation=5.0, sigma=1.0, seed=43)
    assert not np.array_equal(a[0].features, c[0].features)


def test_synth_rejects_bad_parameters():
    for kwargs in (
        dict(d=1, num_classes=2, n_train=1, n_test=1, separation=1.0, sigma=1.0),
        dict(d=2, num_classes=1, n_train=1, n_test=1, separation=1.0, sigma=1.0),
        dict(d=2, num_classes=2, n_train=0, n_test=1, separation=1.0, sigma=1.0),
        dict(d=2, num_classes=2, n_train=1, n_test=0, separation=1.0, sigma=1.0),
        dict(d=2, num_classes=2, n_train=1, n_test=1, separation=0.0, sigma=1.0),
        dict(d=2, num_classes=2, n_train=1, n_test=1, separation=1.0, sigma=-1.0),
    ):
        with pytest.raises(ValueError, match="invalid parameters"):
            synth_gaussian(seed=1, **kwargs)


def test_subset_filters_and_preserves_order():
    ds = FeatureDataset(name="x",
                        features=np.arange(12, dtype=np.float32).reshape(6, 2),
                        labels=np.array([0, 1, 2, 0, 1, 2], dtype=np.uint32))
    sub = ds.subset((2, 0))
    assert sub.labels.tolist() == [0, 2, 0, 2]
    assert sub.features[:, 0].tolist() == [0.0, 4.0, 6.0, 10.0]
    assert ds.subset((9,)).n == 0


def test_dataset_equality_ignores_name():
    f = np.ones((2, 3), dtype=np.float32)
    y = np.array([1, 2], dtype=np.uint32)
    assert FeatureDataset("a", f, y) == FeatureDataset("b", f.copy(), y.copy())
    assert FeatureDataset("a", f, y) != FeatureDataset("a", f + 1, y)


def test_feature_file_round_trip(tmp_path):
    train, _ = synth_gaussian(d=6, num_classes=3, n_train=11, n_test=1,
                              separation=4.0, sigma=1.5, seed=8)
    p = tmp_path / "t.ftr"
    save_features(train, p)
    back = load_features(p)
    assert back == train
    # a second save of the loaded dataset is byte identical
    p2 = tmp_path / "t2.ftr"
    save_features(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_feature_file_layout(tmp_path):
    ds = FeatureDataset(name="x",
                        features=np.array([[1.5, -2.0]], dtype=np.float32),
                        labels=np.array([7], dtype=np.uint32))
    p = tmp_path / "one.ftr"
    save_features(ds, p)
    blob = p.read_bytes()
    assert blob[:8] == MAGIC == b"FTRSET01"
    version, d, n = struct.unpack_from("<IIQ", blob, 8)
    assert (version, d, n) == (FORMAT_VERSION, 2, 1)
    label, f0, f1 = struct.unpack_from("<Iff", blob, 24)
    assert (label, f0, f1) == (7, 1.5, -2.0)
    assert len(blob) == 24 + 4 + 8


def test_zero_record_file(tmp_path):
    ds = FeatureDataset(name="empty", features=np.zeros((0, 4)),
                        labels=np.zeros(0, dtype=np.uint32))
    p = tmp_path / "empty.ftr"
    save_features(ds, p)
    back = load_features(p)
    assert back.n == 0 and back.d == 4


def test_corrupt_feature_files(tmp_path):
    train, _ = synth_gaussian(d=4, num_classes=2, n_train=3, n_test=1,
                              separation=4.0, sigma=1.0, seed=2)
    p = tmp_path / "good.ftr"
    save_features(train, p)
    blob = bytearray(p.read_bytes())

    bad_magic = tmp_path / "magic.ftr"
    bad_magic.write_bytes(b"NOTAFILE" + bytes(blob[8:]))
    with pytest.raises(ValueError, match="not a feature file"):
        load_features(bad_magic)

    short = tmp_path / "short.ftr"
    short.write_bytes(bytes(blob[:len(blob) - 5]))
    with pytest.raises(ValueError, match="unexpected end of file"):
        load_features(short)

    header_only = tmp_path / "header.ftr"
    header_only.write_bytes(bytes(blob[:12]))
    with pytest.raises(ValueError, match="unexpected end of file"):
        load_features(header_only)

    vers = bytearray(blob)
    vers[8:12] = struct.pack("<I", 99)
    bad_version = tmp_path / "version.ftr"
    bad_version.write_bytes(bytes(vers))
    with pytest.raises(ValueError, match="unsupported version"):
        load_features(bad_version)


def test_feature_file_rejects_non_finite_values(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        features = np.ones((3, 2), dtype=np.float32)
        features[1, 0] = bad
        p = tmp_path / "bad.ftr"
        save_features(FeatureDataset(name="x", features=features,
                                     labels=np.arange(3, dtype=np.uint32)), p)
        with pytest.raises(ValueError, match="non-finite feature values"):
            load_features(p)


def test_feature_file_rejects_trailing_bytes(tmp_path):
    ds = FeatureDataset(name="x",
                        features=np.arange(12, dtype=np.float32).reshape(4, 3),
                        labels=np.arange(4, dtype=np.uint32))
    p = tmp_path / "f.ftr"
    save_features(ds, p)
    blob = p.read_bytes()
    p.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError,
                       match="trailing bytes after the last record: 1"):
        load_features(p)
    # single-bit header flips that leave records unread: n 4->0, d 3->2, d 3->1
    for offset, bit, extra in ((16, 0x04, 64), (12, 0x01, 16), (12, 0x02, 32)):
        bad = bytearray(blob)
        bad[offset] ^= bit
        p.write_bytes(bytes(bad))
        with pytest.raises(ValueError,
                           match=f"trailing bytes after the last record: {extra}"):
            load_features(p)
