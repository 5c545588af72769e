"""Nearest-opposite-label radii and 1-NN classification.

Every query uses the same per-pair arithmetic as `core.sq_dists_to`, so batch
results are bit-identical to a brute-force linear scan. Ties are broken by the
smallest index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BatchFirst, LabeledDataset, as_point, sq_dists_to


def rho(S: LabeledDataset, x, y: int) -> float:
    """Distance from x to the nearest point of S carrying a label != y.

    Returns S.diameter_bound when no such point exists (single-class data).
    """
    if S.n == 0:
        raise ValueError("rho is undefined on an empty dataset")
    x = as_point(x)
    if x.shape[0] != S.dim:
        raise ValueError("query dimension mismatch")
    mask = S.labels != y
    if not np.any(mask):
        return S.diameter_bound
    d2 = sq_dists_to(S.points[mask], x)
    return float(np.sqrt(d2.min()))


def rho_all(S: LabeledDataset) -> np.ndarray:
    """rho(S, x_i, y_i) for every item of S, vectorized in row chunks."""
    if S.n == 0:
        raise ValueError("rho is undefined on an empty dataset")
    n = S.n
    out = np.full(n, S.diameter_bound, dtype=np.float64)
    labels = S.labels
    chunk = max(1, min(n, int(4e6 // max(1, n * S.dim))))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        diff = S.points[start:stop, None, :] - S.points[None, :, :]
        d2 = np.sum(diff**2, axis=2)
        opp = labels[None, :] != labels[start:stop, None]
        d2 = np.where(opp, d2, np.inf)
        mins = d2.min(axis=1)
        has_opp = np.isfinite(mins)
        out[start:stop][has_opp] = np.sqrt(mins[has_opp])
    return out


@dataclass(frozen=True, eq=False)
class NnClassifier(BatchFirst):
    """1-NN predictor over a fixed training set; ties go to the smallest index."""

    train: LabeledDataset

    def __post_init__(self):
        if self.train.n == 0:
            raise ValueError("1-NN needs a nonempty training set")

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        pts, labs = self.train.points, self.train.labels
        if X.ndim != 2 or X.shape[1] != pts.shape[1]:
            raise ValueError("query dimension mismatch")
        out = np.empty(X.shape[0], dtype=np.int64)
        chunk = max(1, int(4e6 // max(1, pts.shape[0] * pts.shape[1])))
        for start in range(0, X.shape[0], chunk):
            stop = min(X.shape[0], start + chunk)
            diff = X[start:stop, None, :] - pts[None, :, :]
            d2 = np.sum(diff**2, axis=2)
            out[start:stop] = labs[np.argmin(d2, axis=1)]
        return out
