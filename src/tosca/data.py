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

import math
import os
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
        # an id outside uint32 matches no label
        wanted = [c for c in map(int, class_ids) if 0 <= c <= 0xFFFFFFFF]
        mask = np.isin(self.labels, np.array(wanted, dtype=np.uint32))
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
    return SplitPlan(stages=tuple(stages), seed=seed)


def synth_gaussian(d: int, num_classes: int, n_train: int, n_test: int,
                   separation: float, sigma: float, seed: int
                   ) -> tuple[FeatureDataset, FeatureDataset]:
    """Spherical Gaussian classes with means on a radius-``separation`` sphere.

    Three independent substreams of ``seed`` drive class means, train noise,
    and test noise, so the same seed always reproduces both splits and
    resizing one split never disturbs the other.  Class c's mean is the
    next block of d normals of stream 0 with a nonzero norm, scaled onto
    the sphere.  Samples come out class-major: all of class 0, then class
    1, and so on.
    """
    for name, value, least in (("d", d, 2), ("num_classes", num_classes, 2),
                               ("n_train", n_train, 1), ("n_test", n_test, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, not {value}")
    for name, value in (("separation", separation), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, not {value}")
    mean_gen = Xoshiro256StarStar(seed, stream=0)
    train_gen = Xoshiro256StarStar(seed, stream=1)
    test_gen = Xoshiro256StarStar(seed, stream=2)

    # class c takes the next nonzero block of d normals; the first pass
    # draws every class's block in one request
    means = []
    while len(means) < num_classes:
        blocks = mean_gen.normals((num_classes - len(means)) * d)
        for v in blocks.reshape(-1, d):
            norm = float(np.linalg.norm(v))
            if norm != 0.0:
                means.append(v * (separation / norm))
    means = np.array(means)

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


def replace_file(path, parts) -> None:
    """Write the byte strings ``parts`` to a new file in ``path``'s
    directory, then rename it to ``path``.  If that fails at any point,
    the new file is removed and an existing file at ``path`` keeps its
    bytes."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise


def _record(d: int) -> np.dtype:
    """One record of the feature file: a u32 label, then d float32 values."""
    return np.dtype([("label", "<u4"), ("feat", "<f4", (d,))])


def save_features(ds: FeatureDataset, path) -> None:
    packed = np.empty(ds.n, dtype=_record(ds.d))
    packed["label"] = ds.labels
    packed["feat"] = ds.features
    replace_file(path, [MAGIC, _HEAD.pack(FORMAT_VERSION, ds.d, ds.n),
                        packed.tobytes()])


def read_container(path, magic: bytes, header: struct.Struct, version: int,
                   kind: str) -> tuple[bytes, int, tuple]:
    """Check a container's magic, header length and version (``header``'s
    first field); return its bytes, its body's offset and the other fields."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(magic)] != magic:
        raise ValueError(f"not a {kind} file")
    off = len(magic) + header.size
    if len(blob) < off:
        raise ValueError("unexpected end of file")
    found, *fields = header.unpack_from(blob, len(magic))
    if found != version:
        raise ValueError("unsupported version")
    return blob, off, tuple(fields)


def load_features(path, name: str | None = None) -> FeatureDataset:
    """Read a feature file; each ``ValueError`` it raises names ``path``."""
    try:
        blob, off, (d, n) = read_container(path, MAGIC, _HEAD,
                                           FORMAT_VERSION, "feature")
        if d < 1 or d > MAX_DIM:
            raise ValueError("not a feature file")
        record = _record(d)
        need = n * record.itemsize
        if len(blob) - off < need:
            raise ValueError("unexpected end of file")
        if len(blob) - off > need:
            raise ValueError("trailing bytes after the last record: "
                             f"{len(blob) - off - need}")
        packed = np.frombuffer(blob, dtype=record, count=n, offset=off)
        if not np.all(np.isfinite(packed["feat"])):
            raise ValueError("non-finite feature values")
    except ValueError as exc:
        raise ValueError(f"features {path}: {exc}") from None
    if name is None:
        name = str(path)
    return FeatureDataset(name=name, features=packed["feat"].copy(),
                          labels=packed["label"].copy())
