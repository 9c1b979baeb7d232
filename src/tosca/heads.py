"""Linear classification heads and the prototype (nearest class mean)
baseline, both scored on arrays of rows (``head_forward`` takes one sample)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SessionHead:
    """Bias-free linear head over a fixed tuple of class ids.

    Column j of ``w`` scores ``class_ids[j]``; ids are stored in ascending
    order so argmax ties resolve to the lowest class id.
    """

    class_ids: tuple
    w: np.ndarray  # d x K

    def __post_init__(self):
        self.class_ids = tuple(int(c) for c in self.class_ids)
        if len(self.class_ids) == 0:
            raise ValueError("head needs at least one class")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("duplicate class ids")
        if list(self.class_ids) != sorted(self.class_ids):
            raise ValueError("class ids must be ascending")
        if self.w.shape != (self.w.shape[0], len(self.class_ids)):
            raise ValueError("head weight shape mismatch")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("head weights contain non-finite entries")

    @property
    def d(self) -> int:
        return self.w.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    @property
    def param_count(self) -> int:
        return self.w.size


def make_head(d: int, class_ids, dtype=np.float32) -> SessionHead:
    ids = tuple(sorted(int(c) for c in class_ids))
    if d < 1:
        raise ValueError("dimensions must be positive")
    return SessionHead(class_ids=ids, w=np.zeros((d, len(ids)), dtype=dtype))


def head_forward(z, head: SessionHead) -> np.ndarray:
    """Logits for one sample, z @ W in float64."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (head.d,):
        raise ValueError("dimension mismatch")
    return z @ np.asarray(head.w, dtype=np.float64)


def head_forward_batch(Z: np.ndarray, head: SessionHead) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    return Z @ np.asarray(head.w, dtype=np.float64)


def extend_head(head: SessionHead, new_class_ids) -> SessionHead:
    """Grow a head with zero-weight columns for unseen classes.

    Existing columns keep their weights; the merged id tuple is re-sorted and
    columns are permuted to match, so lookups by id stay valid.
    """
    new_ids = tuple(int(c) for c in new_class_ids)
    if any(c in head.class_ids for c in new_ids):
        raise ValueError("overlapping classes")
    if len(set(new_ids)) != len(new_ids):
        raise ValueError("duplicate class ids")
    merged = tuple(sorted(head.class_ids + new_ids))
    w = np.zeros((head.d, len(merged)), dtype=head.w.dtype)
    col = {c: j for j, c in enumerate(merged)}
    for j, c in enumerate(head.class_ids):
        w[:, col[c]] = head.w[:, j]
    return SessionHead(class_ids=merged, w=w)


# ---------------------------------------------------------------------------
# Prototype baseline: class means on the frozen features, cosine scoring.

@dataclass
class PrototypeBank:
    d: int
    means: dict = field(default_factory=dict)  # class_id -> float64 (d,)
    counts: dict = field(default_factory=dict)

    @property
    def class_ids(self) -> tuple:
        return tuple(sorted(self.means))


def build_prototypes(features: np.ndarray, labels: np.ndarray,
                     bank: PrototypeBank | None = None) -> PrototypeBank:
    """Mean feature per class, accumulated in float64.

    Pass an existing bank to add later sessions; re-seen classes are rejected
    since sessions are disjoint by construction.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("dimension mismatch")
    if features.shape[0] == 0:
        raise ValueError("no samples")
    if bank is None:
        bank = PrototypeBank(d=features.shape[1])
    elif bank.d != features.shape[1]:
        raise ValueError("dimension mismatch")
    for c in np.unique(labels):
        c = int(c)
        if c in bank.means:
            raise ValueError("overlapping classes")
        rows = features[labels == c]
        bank.means[c] = rows.sum(axis=0) / rows.shape[0]
        bank.counts[c] = int(rows.shape[0])
    return bank


def prototype_classify_batch(Z: np.ndarray, bank: PrototypeBank) -> np.ndarray:
    """Vectorized cosine argmax; row order of prototypes is ascending id."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != bank.d:
        raise ValueError("dimension mismatch")
    if not bank.means:
        raise ValueError("no samples")
    ids = sorted(bank.means)
    P = np.stack([bank.means[c] for c in ids])
    pn = np.linalg.norm(P, axis=1)
    zn = np.linalg.norm(Z, axis=1)
    if np.any(pn == 0.0) or np.any(zn == 0.0):
        raise ValueError("degenerate vector")
    scores = (Z @ P.T) / np.outer(zn, pn)
    picks = np.argmax(scores, axis=1)  # first max = lowest id
    ids = np.asarray(ids, dtype=np.int64)
    return ids[picks]
