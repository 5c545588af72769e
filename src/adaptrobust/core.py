"""Shared domain types: points, labeled datasets, classifiers, randomness.

Points live in R^d with the Euclidean metric; balls are open (membership is a
strict inequality). All randomness flows through explicitly passed
RandomStream objects, so every computation in the package can be replayed
bit-for-bit from a seed.
"""
from __future__ import annotations

import math
import numbers
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


def check_range(name: str, value, interval: str) -> None:
    """The one interval rule: ValueError("<name> <value>: must lie in <interval>")
    unless `value` (a number, or every element of an array) lies in `interval`,
    written like "[0, 1)" or "(0, inf]"; NaN and None lie in none. The integer
    form, like "[1, inf) int", also asks for a Python or numpy integer or an
    integer array, not a bool. The value shown is a number's repr or an array's
    first failing element."""
    bounds = interval.removesuffix(" int")
    lo, hi = (float(b) for b in bounds[1:-1].split(","))
    v = value if isinstance(value, numbers.Real) else np.asarray(value, dtype=np.float64)
    ok = (lo < v if bounds[0] == "(" else lo <= v) & (v < hi if bounds[-1] == ")" else v <= hi)
    if bounds != interval:
        ok &= (not isinstance(value, bool) if isinstance(value, numbers.Integral)
               else np.asarray(value).dtype.kind in "iu")
    if not np.all(ok):
        shown = value if np.ndim(v) == 0 else v[~ok][0].item()
        raise ValueError(f"{name} {shown!r}: must lie in {interval}")


def radius_grid(radii) -> np.ndarray:
    """The one radius-grid rule: the radii as floats, a nonempty, strictly
    increasing 1-D grid of finite radii >= 0 (NaN fails)."""
    r = np.asarray(radii, dtype=np.float64)
    if not (r.ndim == 1 and r.shape[0] > 0 and np.all(np.diff(r) > 0.0) and r[0] >= 0.0
            and np.isfinite(r[-1])):
        raise ValueError("radius grid must be nonempty, 1-D, strictly increasing, finite and >= 0")
    return r


def read_text_lines(path) -> list[str]:
    """The lines of the UTF-8 text file `path`, without line ends; a file that
    is not UTF-8 raises ValueError naming `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


def write_text_lines(path, lines) -> None:
    """Write `lines` to `path` as UTF-8 text, each line ended by LF on every
    platform: the one writer of the package's text files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{ln}\n" for ln in lines))


def row_reduce(op, A: np.ndarray) -> np.ndarray:
    """`op.reduce(A, axis=-1)`, the same bytes, for np.add or np.maximum of |A|.
    numpy reduces a narrow axis row by row, so below 8 columns A is folded by
    columns, left to right from zero like numpy; from 8 numpy sums pairwise."""
    if A.shape[-1] >= 8:
        return op.reduce(A, axis=-1)
    out = np.zeros(A.shape[:-1])
    for j in range(A.shape[-1]):
        op(out, A[..., j], out=out)
    return out


def column_span(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max - min) of each column of the (n, d) array P, column by column:
    min and max are exact, so these are the bytes of numpy's own at any width."""
    lo = np.array([c.min() for c in P.T])
    return lo, np.array([c.max() for c in P.T]) - lo


def sq_dists_to(P: np.ndarray, Q: np.ndarray, pos=None, cnt=None) -> np.ndarray:
    """Squared distances of point-query pairs, column-major: the points are
    the columns `pos` of the (d, n) array P, and column k of the (d, k) array
    Q is the query of the next cnt[k] of them. By default all n points go to
    one query, a linear scan: `sq_dists_to(X.T, x[:, None])`.

    This kernel is the single source of point-to-point arithmetic for the
    nearest-neighbor machinery, so the index's answers are bit-identical to a
    linear scan. One coordinate at a time is gathered, differenced and squared
    in place; below 8 coordinates the rows are summed left to right from zero,
    from 8 a (pairs, d) copy is summed pairwise by numpy: the bytes of
    `np.sum((X - x) ** 2, axis=-1)` either way.
    """
    if pos is None:
        pos, cnt = np.arange(P.shape[1]), [P.shape[1]]
    d, pairs = P.shape[0], len(pos)
    row = np.empty(pairs)
    out = np.zeros(pairs) if d < 8 else np.empty((pairs, d))
    for j in range(d):
        np.take(P[j], pos, out=row, mode="clip")  # pos is in range: no checked copy
        row -= np.repeat(Q[j], cnt)
        row *= row
        if d < 8:
            out += row
        else:
            out[:, j] = row
    return out if d < 8 else np.add.reduce(out, axis=-1)


class RandomStream:
    """Seeded random source with deterministic, platform-stable replay.

    Wraps PCG64 keyed by (seed, spawn_key). Equal key and equal call sequence
    give identical draws. `child` derives an independent stream from the key
    alone (not from the parent's draw position), so per-item child streams can
    be consumed in any order or in parallel without changing results.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        check_range("seed", seed, "[0, inf) int")
        self._start(int(seed), tuple(int(k) for k in spawn_key))

    def _start(self, seed: int, spawn_key: tuple[int, ...]) -> "RandomStream":
        self.seed, self.spawn_key = seed, spawn_key
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))
        return self

    def child(self, *key: int) -> "RandomStream":
        # not through __init__: the seed was checked when the root stream was made
        return RandomStream.__new__(RandomStream)._start(
            self.seed, self.spawn_key + tuple(int(k) for k in key))

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
    [0, 1]^d. Points whose squared distances can overflow are rejected.
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
        with np.errstate(over="ignore"):
            diagonal = float(np.sqrt(np.sum(column_span(pts)[1] ** 2)))
        if not math.isfinite(diagonal):
            raise ValueError("the points are too far apart: squared distances overflow")
        check_range("labels", labs, "[0, inf)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "diameter_bound", max(math.sqrt(pts.shape[1]), diagonal))

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
