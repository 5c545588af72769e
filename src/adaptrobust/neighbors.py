"""Exact nearest-neighbour queries: the grid index, nearest-opposite-label
radii and 1-NN classification.

Every nearest-neighbour query in the package goes through `GridIndex`, except
the scalar `rho(S, x, y)`: that is the defining scan, the reference the batched
forms are tested against. The index computes each candidate distance with
`core.sq_dists_to`, so its answers are bit-identical to a brute-force linear
scan, and ties go to the smallest index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import BatchFirst, LabeledDataset, as_point, sq_dists_to

_PER_CELL = 4           # target mean number of points per grid cell
_MAX_AXES = 3           # gridded coordinates; the others only add to distances
# Elements per candidate array: a piece of candidate pairs holds a few
# (pairs, d) float arrays at once, about 4e6 elements in all.
_PIECE = 1_000_000
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


class GridIndex:
    """Exact nearest-neighbour index over the rows of `points`.

    The points are sorted by grid cell with CSR offsets per cell. The grid
    covers at most the 3 coordinates of widest extent (an axis thinner than a
    cell is left out) with a cell side chosen for about 4 points per cell. The
    distance projected onto the gridded axes is a lower bound on the full
    distance, so the index is exact in any dimension; with no gridded axis it
    is one cell, a scan.

    A query visits rings of cells at growing Chebyshev distance from its cell
    (clamped into the grid), skipping cells that cannot hold a point as near
    as its best so far, and stops once its best squared distance is strictly
    below a lower bound on the squared distance to every unvisited cell. The
    bounds are shrunk by a rounding slack (4 ulps of the coordinate scale per
    axis gap, then a relative 2 (d + 8) eps and a few subnormals), so rounding
    in cell assignment or in the summed squares can only cost extra work,
    never a wrong answer. Strictness keeps exact ties in unvisited cells in
    play, so ties go to the smallest index as in a scan. A query stops at the
    latest once its block covers the grid.
    """

    def __init__(self, points):
        P = np.asarray(points, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
            raise ValueError("the index needs a nonempty (n, d) point array")
        if not np.all(np.isfinite(P)):
            raise ValueError("indexed points must be finite")
        n = P.shape[0]
        lo, extent = P.min(axis=0), np.ptp(P, axis=0)
        axes = np.argsort(-extent, kind="stable")[:_MAX_AXES]
        axes = axes[(extent[axes] > 0.0) & np.isfinite(extent[axes])]
        side = 1.0
        while axes.size:
            side = math.exp((math.log(_PER_CELL / n) + np.log(extent[axes]).sum()) / axes.size)
            thin = extent[axes] < side
            if not thin.any():
                break
            axes = axes[~thin]
        self.n, self.dim = n, P.shape[1]
        self._axes = axes
        self._lo = lo[axes]
        self._side = side
        self._shape = (extent[axes] // side).astype(np.int64) + 1
        self._top = self._lo + self._shape * side
        self._scale = float(np.max(np.abs(np.concatenate([self._lo, self._top])), initial=0.0))
        # Counts and CSR starts live on the grid padded by shape - 1 cells on
        # each side, so any offset that can reach the grid from a grid cell
        # indexes an (empty) padded cell instead of needing a bounds check.
        pad = self._shape - 1
        padded = self._shape + 2 * pad
        self._strides = np.array([np.prod(padded[j + 1:]) for j in range(axes.size)],
                                 dtype=np.int64)
        self._pad = pad @ self._strides
        cell = self._cells(P[:, axes]) @ self._strides + self._pad
        self._order = np.argsort(cell, kind="stable")
        self._pts = P[self._order]
        self._counts = np.bincount(cell, minlength=int(np.prod(padded)))
        self._starts = np.cumsum(self._counts) - self._counts

    def _cells(self, G: np.ndarray) -> np.ndarray:
        c = np.floor((G - self._lo) / self._side)
        return np.clip(c, 0, self._shape - 1).astype(np.int64)

    def nearest(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """(squared distance, index) of the nearest indexed point to each row
        of Q; ties go to the smallest index."""
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.dim:
            raise ValueError("query dimension mismatch")
        if not np.all(np.isfinite(Q)):
            raise ValueError("queries must be finite")
        best = np.full(Q.shape[0], np.inf)
        arg = np.full(Q.shape[0], self.n, dtype=np.int64)
        G = Q[:, self._axes]
        center = self._cells(G)
        active, r = np.arange(Q.shape[0]), 0
        while active.size:
            self._visit_ring(Q, G, active, center[active], r, best, arg)
            c = center[active]
            covered = np.all((c <= r) & (c + r >= self._shape - 1), axis=1)
            done = covered | (best[active] < self._unvisited_d2(G[active], c, r))
            active = active[~done]
            r += 1
        return best, arg

    def _visit_ring(self, Q, G, active, center, r, best, arg) -> None:
        """Scan the points in the ring-r cells around each active query,
        skipping cells that cannot hold a point as near as its best so far."""
        offsets = _shell(self._axes.size, r)
        # drop the offsets that leave the grid from every grid cell
        offsets = offsets[np.all(np.abs(offsets) < self._shape, axis=1)]
        shift = offsets @ self._strides
        base = center @ self._strides + self._pad
        step = max(1, _PIECE // max(1, shift.size))
        for lo in range(0, active.size, step):
            cid = base[lo:lo + step, None] + shift
            cnt = self._counts[cid]
            owner, k = np.nonzero(cnt)
            owner += lo
            q = active[owner]
            Gq = G[q]
            edge = self._lo + (center[owner] + offsets[k]) * self._side
            gap = np.maximum(np.maximum(edge - Gq, Gq - (edge + self._side)), 0.0)
            near = self._lower_d2(gap, Gq) <= best[q]
            owner, k = owner[near], k[near]
            if owner.size == 0:
                continue
            cid, cnt = cid[owner - lo, k], cnt[owner - lo, k]
            # pairs come ordered by query: split them at query boundaries
            qstart = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            bounds = np.r_[qstart, owner.size]
            for a, b in _pieces(np.add.reduceat(cnt, qstart) * (self.dim + 4), _PIECE):
                s, e = bounds[a], bounds[b]
                self._scan_cells(Q, active, owner[s:e], cid[s:e], cnt[s:e], best, arg)

    def _scan_cells(self, Q, active, owner, cid, cnt, best, arg) -> None:
        """Merge the points of cells `cid` into the best answers of queries
        `active[owner]`; all pairs of one query are consecutive."""
        ends = np.cumsum(cnt)
        pos = np.arange(ends[-1]) + np.repeat(self._starts[cid] - (ends - cnt), cnt)
        q = active[owner]
        d2 = sq_dists_to(self._pts[pos], np.repeat(Q[q], cnt, axis=0))
        pair0 = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        first = (ends - cnt)[pair0]
        gmin = np.minimum.reduceat(d2, first)
        # the smallest index among each query's candidates at its minimum
        hit = np.flatnonzero(d2 == np.repeat(gmin, np.diff(np.r_[first, d2.size])))
        gidx = np.minimum.reduceat(self._order[pos[hit]],
                                   np.searchsorted(hit, first))
        q = q[pair0]
        better = (gmin < best[q]) | ((gmin == best[q]) & (gidx < arg[q]))
        best[q[better]] = gmin[better]
        arg[q[better]] = gidx[better]

    def _unvisited_d2(self, G, center, r) -> np.ndarray:
        """Lower bound on the squared distance from each query to the points
        outside its visited block (cells within Chebyshev distance r of its
        centre cell)."""
        lo, side, top = self._lo, self._side, self._top
        a, b = center - r, center + r
        out = np.maximum(np.maximum(lo - G, G - top), 0.0)  # gap to the grid box
        below = np.where(a > 0, np.maximum(out, G - (lo + a * side)), np.inf)
        above = np.where(b < self._shape - 1, np.maximum(out, lo + (b + 1) * side - G), np.inf)
        # the half-space past the block on one side of axis j, within the box
        sides = [np.where(np.arange(G.shape[1]) == j, np.minimum(below, above), out)
                 for j in range(G.shape[1])]
        return np.min([self._lower_d2(gap, G) for gap in sides], axis=0, initial=np.inf)

    def _lower_d2(self, gap, G) -> np.ndarray:
        """Squared distance lower bound from per-axis gaps (gridded axes) of
        queries G, shrunk by the rounding slack."""
        tol = 4.0 * _EPS * (np.abs(G).max(axis=1, initial=0.0)[:, None] + self._scale)
        d2 = np.sum(np.maximum(gap - tol, 0.0) ** 2, axis=1)
        return d2 * (1.0 - 2.0 * (self.dim + 8) * _EPS) - (self.dim + 8) * _TINY


def _pieces(weights: np.ndarray, budget: int):
    """Consecutive (start, stop) ranges of items whose weights sum to at most
    `budget`; an item heavier than the budget forms a range alone."""
    cum = np.cumsum(weights)
    start, n = 0, len(weights)
    while start < n:
        base = cum[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(cum, base + budget, side="right")))
        yield start, stop
        start = stop


@lru_cache(maxsize=64)
def _shell(g: int, r: int) -> np.ndarray:
    """Integer offsets in g >= 0 dimensions with Chebyshev norm exactly r."""
    cube = np.indices((2 * r + 1,) * g).reshape(g, (2 * r + 1) ** g).T - r
    out = cube[np.abs(cube).max(axis=1, initial=0) == r]
    out.setflags(write=False)
    return out


def _nearest_opposite(S: LabeledDataset, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    out = np.full(X.shape[0], S.diameter_bound, dtype=np.float64)
    for y in np.unique(Y):
        others = S.labels != y
        if np.any(others):
            rows = Y == y
            d2, _ = GridIndex(S.points[others]).nearest(X[rows])
            out[rows] = np.sqrt(d2)
    return out


def rho(S: LabeledDataset, x, y):
    """Distance from x to the nearest point of S carrying a label != y.

    `x` is one point with an integer label (returns a float, by a scan) or an
    (m, d) batch with m labels (returns an array, through `GridIndex`; equal
    bit for bit). Gives S.diameter_bound when no such point exists
    (single-class data).
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1:  # one point: the defining scan, the reference for batches
        x = as_point(X)
        if x.shape[0] != S.dim:
            raise ValueError("query dimension mismatch")
        mask = S.labels != y
        if not np.any(mask):
            return S.diameter_bound
        return float(np.sqrt(sq_dists_to(S.points[mask], x).min()))
    Y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != S.dim:
        raise ValueError("query dimension mismatch")
    if Y.shape != (X.shape[0],):
        raise ValueError("need one label per query")
    return _nearest_opposite(S, X, Y)


def rho_all(S: LabeledDataset) -> np.ndarray:
    """rho(S, x_i, y_i) for every item of S."""
    return _nearest_opposite(S, S.points, S.labels)


@dataclass(frozen=True, eq=False)
class NnClassifier(BatchFirst):
    """1-NN predictor over a fixed training set; ties go to the smallest index."""

    train: LabeledDataset
    _index: GridIndex = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", GridIndex(self.train.points))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        _, idx = self._index.nearest(X)
        return self.train.labels[idx]
