"""Split plans, the synthetic benchmark, and the binary feature container."""

import hashlib
import math
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


class _ZeroBlocks(Xoshiro256StarStar):
    """A generator whose stream 0 reads 0.0 in chosen blocks of d normals."""

    def __init__(self, seed, stream=0, d=3, zero=(1, 2, 5)):
        super().__init__(seed, stream)
        self.d, self.zero = d, list(zero)
        self.drawn = 0 if stream == 0 else None

    def normals(self, count, mean=0.0, std=1.0):
        out = super().normals(count, mean, std)
        if self.drawn is not None:
            block = (self.drawn + np.arange(count)) // self.d
            out[np.isin(block, self.zero)] = 0.0
            self.drawn += count
        return out


def test_synth_means_redraw_a_zero_block(monkeypatch):
    # class c takes the next nonzero block, as a loop of per-class draws
    # that redraws a zero block would
    d, k, sep = 3, 4, 7.0
    gen = _ZeroBlocks(5)
    want = []
    for _ in range(k):
        v = gen.normals(d)
        while np.linalg.norm(v) == 0.0:
            v = gen.normals(d)
        want.append(v * (sep / np.linalg.norm(v)))
    monkeypatch.setattr("tosca.data.Xoshiro256StarStar", _ZeroBlocks)
    train, _ = synth_gaussian(d=d, num_classes=k, n_train=1, n_test=1,
                              separation=sep, sigma=1e-30, seed=5)
    assert np.array_equal(train.features,
                          np.array(want, dtype=np.float32))


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


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# Golden streams: sha256 of the benchmark's inputs and of raw draws, pinned
# so that no change to the generator can move them silently.
# d, classes, train and test rows per class, separation, sigma
_SYNTH_SHAPES = {
    "incremental-d32": ((32, 50, 100, 50, 138.0, 23.0),
                        "282ea13fb0df1c8544fcc022d87bd5b6"
                        "b4bc261d4d3ed069392ca27615176c0b"),
    "bank-d768": ((768, 40, 50, 25, 138.0, 17.0),
                  "b3135ad89ba5d0a7d4fb9163b28e8d97"
                  "5b27eda16e11f97e454c9f7280c6993b"),
    "route-d768": ((768, 50, 16, 10, 138.0, 12.0),
                   "b35b8f8847582cc8100dfb72c6288e0b"
                   "a51758fe6c71509394c00aa9d39f735e"),
}


@pytest.mark.parametrize("name", sorted(_SYNTH_SHAPES))
def test_synth_golden_streams(name):
    shape, want = _SYNTH_SHAPES[name]
    train, test = synth_gaussian(*shape, seed=1)
    assert _digest(train.features, train.labels, test.features,
                   test.labels) == want


_DRAWS = [  # the scalar path, the bulk threshold +-1 and a lane-capped size
    ("uint64s", 1000, "b9d9ba6e9704d825f2d7f7b4ca2db1b6"
                      "2c5df77108954fa62501eb68310568fc"),
    ("uint64s", 11_999, "8b56f3e5f2f28a411f7096788c6567a9"
                        "ff8fe34b38086d7113bfc52376431f92"),
    ("uint64s", 12_000, "f79f1468bf58f44e75a7eee3fe89dbed"
                        "773e05cddd4da2bacff5b5d8f7176c32"),
    ("uint64s", 12_001, "8494c8df8972386a2a6202074bc6f96b"
                        "91d2ad57f2ec148cf143c07a645483dc"),
    ("uint64s", 2**21 + 5, "e007a43b6d3e50dd25cf1486e3e459f1"
                           "2957702dcba9e5f8517a86fd8ed02003"),
    ("normals", 1000, "6fc8d5a39c9c7f3f4945ed11408c3823"
                      "c05d779690102f7f026f46d51285af4e"),
    ("normals", 11_998, "49ad170798e1b18d3718335a3a28c152"
                        "81c0951fa96d914be92154908c481162"),
    ("normals", 11_999, "2728fb6a458097dbed566a27c11d294f"
                        "c364616a40a4de8ba99c1e5454634637"),
    ("normals", 12_001, "74c2008edf1e5f8a3436d1cfc5b6c231"
                        "e2f068d6b02809da89e37e27cb3636cc"),
    ("normals", 2**21 + 5, "dfb438d4934a617b13ae7dfb6439a791"
                           "cba85f71158db6d8ed4209d8f2c0872f"),
]


@pytest.mark.parametrize("method,n,want", _DRAWS)
def test_raw_golden_streams(method, n, want):
    gen = Xoshiro256StarStar(1993, stream=1)
    assert _digest(getattr(gen, method)(n), gen.uint64s(4)) == want


def test_golden_stream_with_a_spare_pending():
    gen = Xoshiro256StarStar(1993, stream=2)
    assert _digest(gen.normals(1), gen.normals(12_001), gen.normals(2),
                   gen.uint64s(4)) == ("829e2861c6bc9bc523ec778fc24189e0"
                                       "535fabf63e80d7928fa6d8abe813b02d")


def test_synth_rejects_bad_parameters():
    good = dict(d=2, num_classes=2, n_train=1, n_test=1, separation=1.0,
                sigma=1.0)
    for name, value, message in (
        ("d", 1, "d must be at least 2, not 1"),
        ("num_classes", 1, "num_classes must be at least 2, not 1"),
        ("n_train", 0, "n_train must be at least 1, not 0"),
        ("n_test", 0, "n_test must be at least 1, not 0"),
        ("separation", 0.0, "separation must be positive, not 0.0"),
        ("sigma", -1.0, "sigma must be positive, not -1.0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            synth_gaussian(seed=1, **{**good, name: value})


@pytest.mark.parametrize("name", ["separation", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_synth_refuses_non_finite_floats_by_name(name, value):
    kwargs = dict(d=2, num_classes=2, n_train=1, n_test=1, separation=10.0,
                  sigma=1.0, seed=1)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite, not "):
        synth_gaussian(**kwargs)


def test_subset_filters_and_preserves_order():
    ds = FeatureDataset(name="x",
                        features=np.arange(12, dtype=np.float32).reshape(6, 2),
                        labels=np.array([0, 1, 2, 0, 1, 2], dtype=np.uint32))
    sub = ds.subset((2, 0))
    assert sub.labels.tolist() == [0, 2, 0, 2]
    assert sub.features[:, 0].tolist() == [0.0, 4.0, 6.0, 10.0]
    assert ds.subset((9,)).n == 0


def test_subset_matches_a_per_row_reference():
    rng = np.random.default_rng(5)
    present = np.array([0, 7, 2**31 - 1, 2**31, 2**31 + 5, 2**32 - 1],
                       dtype=np.uint32)
    labels = rng.choice(present, size=400)
    ds = FeatureDataset(name="x",
                        features=rng.normal(size=(400, 3)).astype(np.float32),
                        labels=labels)
    all_ids = [int(c) for c in present]
    requests = [[], [7], [2**31], all_ids, all_ids[::-1],
                [2**31 + 5, 3, 2**31 + 6, 2**32 - 1],  # 3 and 2^31+6 absent
                [-1, 2**32, 2**64, 0],  # outside uint32: only 0 matches
                (np.uint32(2**31 - 1), 7.0)]
    for _ in range(20):
        requests.append(rng.choice(present, size=rng.integers(1, 5)).tolist())
    for ids in requests:
        wanted = set(int(c) for c in ids)
        rows = [i for i, c in enumerate(labels.tolist()) if c in wanted]
        sub = ds.subset(ids)
        assert sub.labels.dtype == np.uint32
        assert np.array_equal(sub.labels, labels[rows])
        assert np.array_equal(sub.features, ds.features[rows])
    assert ds.subset(iter(all_ids)) == ds
    assert ds.subset([]).n == 0 and ds.subset([]).d == 3


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
