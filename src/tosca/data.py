"""Feature datasets, incremental split plans, the synthetic Gaussian
benchmark, and the on-disk feature container.

File layout (all little endian):

    magic   8 bytes  b"FTRSET01"
    version u32      currently 1
    d       u32      feature dimension
    n       u64      record count
    records n times: label u32, then d float32 feature values
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import Xoshiro256StarStar

MAGIC = b"FTRSET01"
FORMAT_VERSION = 1
MAX_DIM = 1 << 20


@dataclass
class FeatureDataset:
    name: str
    features: np.ndarray  # (n, d) float32
    labels: np.ndarray  # (n,) uint32

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint32)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("dimension mismatch")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("dimension mismatch")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> tuple:
        return tuple(int(c) for c in np.unique(self.labels))

    def subset(self, class_ids) -> "FeatureDataset":
        """Rows whose label is in ``class_ids``, original order preserved."""
        wanted = set(int(c) for c in class_ids)
        mask = np.fromiter((int(c) in wanted for c in self.labels),
                           dtype=bool, count=self.n)
        return FeatureDataset(name=self.name, features=self.features[mask],
                              labels=self.labels[mask])

    def __eq__(self, other):
        if not isinstance(other, FeatureDataset):
            return NotImplemented
        return (self.d == other.d
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.features, other.features))


@dataclass
class SplitPlan:
    """Session class lists for a base-m, increment-n protocol."""

    stages: tuple  # tuple of tuples of class ids
    seed: int

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def classes_through(self, stage_index: int) -> tuple:
        """All class ids covered by stages 1..stage_index (1-based)."""
        if not 1 <= stage_index <= self.num_stages:
            raise ValueError("stage index out of range")
        out = []
        for s in self.stages[:stage_index]:
            out.extend(s)
        return tuple(sorted(out))


def make_splits(class_ids, base: int, increment: int, seed: int) -> SplitPlan:
    """Shuffle the class list, then cut a base stage of ``base`` classes
    followed by stages of ``increment``; ``base`` 0 means uniform stages.

    The leftover count must be an exact multiple of ``increment``.
    """
    ids = sorted(int(c) for c in class_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate class ids")
    if len(ids) == 0:
        raise ValueError("split mismatch")
    if base < 0 or increment < 1 or base > len(ids):
        raise ValueError("split mismatch")
    if (len(ids) - base) % increment != 0:
        raise ValueError("split mismatch")
    gen = Xoshiro256StarStar(seed)
    shuffled = list(ids)
    gen.shuffle(shuffled)
    stages = []
    pos = 0
    if base > 0:
        stages.append(tuple(shuffled[:base]))
        pos = base
    while pos < len(shuffled):
        stages.append(tuple(shuffled[pos:pos + increment]))
        pos += increment
    if not stages:
        raise ValueError("split mismatch")
    return SplitPlan(stages=tuple(stages), seed=seed)


def synth_gaussian(d: int, num_classes: int, n_train: int, n_test: int,
                   separation: float, sigma: float, seed: int
                   ) -> tuple[FeatureDataset, FeatureDataset]:
    """Spherical Gaussian classes with means on a radius-``separation`` sphere.

    Three independent substreams of ``seed`` drive class means, train noise,
    and test noise, so the same seed always reproduces both splits and
    resizing one split never disturbs the other.  Samples come out
    class-major: all of class 0, then class 1, and so on.
    """
    if d < 2 or num_classes < 2 or n_train < 1 or n_test < 1:
        raise ValueError("invalid parameters")
    if separation <= 0.0 or sigma <= 0.0:
        raise ValueError("invalid parameters")
    mean_gen = Xoshiro256StarStar(seed, stream=0)
    train_gen = Xoshiro256StarStar(seed, stream=1)
    test_gen = Xoshiro256StarStar(seed, stream=2)

    means = np.empty((num_classes, d), dtype=np.float64)
    for c in range(num_classes):
        v = mean_gen.normals(d)
        norm = float(np.linalg.norm(v))
        while norm == 0.0:
            v = mean_gen.normals(d)
            norm = float(np.linalg.norm(v))
        means[c] = v * (separation / norm)

    def draw(gen, per_class):
        # one draw for the whole split: the stream is continuous across calls
        noise = gen.normals(num_classes * per_class * d, std=sigma)
        noise = noise.reshape(num_classes, per_class, d)
        noise += means[:, None, :]
        feats = noise.reshape(num_classes * per_class, d).astype(np.float32)
        labels = np.repeat(np.arange(num_classes, dtype=np.uint32), per_class)
        return feats, labels

    tr_f, tr_y = draw(train_gen, n_train)
    te_f, te_y = draw(test_gen, n_test)
    train = FeatureDataset(name="synth-train", features=tr_f, labels=tr_y)
    test = FeatureDataset(name="synth-test", features=te_f, labels=te_y)
    return train, test


# ---------------------------------------------------------------------------
# Binary container.

_HEAD = struct.Struct("<II Q")  # version, d, n  (after the 8-byte magic)


def save_features(ds: FeatureDataset, path) -> None:
    record = np.dtype([("label", "<u4"), ("feat", "<f4", (ds.d,))])
    packed = np.empty(ds.n, dtype=record)
    packed["label"] = ds.labels
    packed["feat"] = ds.features
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEAD.pack(FORMAT_VERSION, ds.d, ds.n))
        fh.write(packed.tobytes())


def load_features(path, name: str | None = None) -> FeatureDataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise ValueError("not a feature file")
    off = len(MAGIC)
    if len(blob) < off + _HEAD.size:
        raise ValueError("unexpected end of file")
    version, d, n = _HEAD.unpack_from(blob, off)
    if version != FORMAT_VERSION:
        raise ValueError("unsupported version")
    if d < 1 or d > MAX_DIM:
        raise ValueError("not a feature file")
    off += _HEAD.size
    record = np.dtype([("label", "<u4"), ("feat", "<f4", (d,))])
    need = n * record.itemsize
    if len(blob) - off < need:
        raise ValueError("unexpected end of file")
    if len(blob) - off > need:
        raise ValueError(
            f"trailing bytes after the last record: {len(blob) - off - need}")
    packed = np.frombuffer(blob, dtype=record, count=n, offset=off)
    if not np.all(np.isfinite(packed["feat"])):
        raise ValueError("non-finite feature values")
    if name is None:
        name = str(path)
    return FeatureDataset(name=name, features=packed["feat"].copy(),
                          labels=packed["label"].copy())
