"""Shared domain types: points, labeled datasets, classifiers, randomness.

Points live in R^d with the Euclidean metric; balls are open (membership is a
strict inequality). All randomness flows through explicitly passed
RandomStream objects, so every computation in the package can be replayed
bit-for-bit from a seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np


def as_point(values) -> np.ndarray:
    """Coerce a coordinate sequence to a finite float64 point."""
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 1:
        raise ValueError(f"a point must be a 1-D sequence of length >= 1, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def read_text_lines(path) -> list[str]:
    """The lines of the UTF-8 text file `path`, without line ends; a file that
    is not UTF-8 raises ValueError naming `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


def sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of `points` to `q`.

    This kernel is the single source of point-to-point arithmetic for the
    nearest-neighbor machinery; batch paths use the same per-pair arithmetic,
    so their answers are bit-identical to a linear scan.
    """
    return np.sum((points - q) ** 2, axis=1)


class RandomStream:
    """Seeded random source with deterministic, platform-stable replay.

    Wraps PCG64 keyed by (seed, spawn_key). Equal key and equal call sequence
    give identical draws. `child` derives an independent stream from the key
    alone (not from the parent's draw position), so per-item child streams can
    be consumed in any order or in parallel without changing results.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key))
        )

    def child(self, *key: int) -> "RandomStream":
        return RandomStream(self.seed, self.spawn_key + key)

    def derive_seed(self) -> int:
        """A 64-bit integer seed determined by this stream's key alone."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        return int(ss.generate_state(1, np.uint64)[0])

    def uniform(self, size=None):
        """Draws in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, spawn_key={self.spawn_key})"


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A finite nonempty labeled sample: points (n, d), integer labels (n,).

    `diameter_bound` is an upper bound on pairwise distances and doubles as
    the sentinel value for nearest-opposite-label distances on single-class
    data: max(sqrt(d), bounding-box diagonal), which is sqrt(d) for data in
    [0, 1]^d.
    """

    points: np.ndarray
    labels: np.ndarray
    diameter_bound: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"points must have shape (n, d) with d >= 1, got {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("a dataset needs at least one point")
        if labs.ndim != 1 or labs.shape[0] != pts.shape[0]:
            raise ValueError("labels must be a 1-D array matching the number of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("all coordinates must be finite")
        if labs.min() < 0:
            raise ValueError("labels must be nonnegative integers")
        span = pts.max(axis=0) - pts.min(axis=0)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "diameter_bound",
                           max(math.sqrt(pts.shape[1]), float(np.sqrt(np.sum(span**2)))))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(self.points[idx], self.labels[idx])


class Classifier(Protocol):
    """A total deterministic predictor, batch-first: `predict_batch(X)` gives
    the int64 labels of the rows of X."""

    def predict_batch(self, X: np.ndarray) -> np.ndarray: ...


class BatchFirst:
    """Base for classifiers defined by `predict_batch`: the scalar `predict`
    is a one-row batch, so both paths give the same label by construction."""

    def predict(self, x) -> int:
        return int(self.predict_batch(as_point(x)[None, :])[0])
