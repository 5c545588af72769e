"""Exact nearest-neighbour queries: the grid index, nearest-opposite-label
radii, and 1-NN classification with its witnesses and certified radii.

Every nearest-neighbour query in the package goes through `GridIndex` or,
when it is small, a linear scan. The index keeps its points column-major and
computes each candidate distance with `core.sq_dists_to`, the kernel the scan
uses too, so its answers are bit-identical to the scan's, and ties go to the
smallest index. The nearest point of another label comes, per label, from
the points not so labelled: scanned when that label's queries times those
points fit `_PIECE` pairs, else through an index over them built per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import BatchFirst, LabeledDataset, column_span, row_reduce, sq_dists_to

_PER_CELL = 4           # target mean number of points per grid cell
_MAX_AXES = 3           # gridded coordinates; the others only add to distances
# Work per piece, in elements: a query's candidate cells per pass, or d + 4
# per candidate pair; also the most pairs a nearest-other-label lookup scans
# instead of indexing. A piece's arrays, each 8 bytes per pair, stay in a 2 MB
# L2 cache at this size. Measured on the 16,000-probe query of the nn1
# workload (2-core x86-64, medians of 30): 27-29 ms at 2^17, 29-30 ms at 2^16
# and 2^18, 33 ms at 2^15 and 42-44 ms at 10^6.
_PIECE = 2**17
_SHELL_BUDGET = 1024    # cells per pass after ring 0, shared by the active queries
_EPS = np.finfo(np.float64).eps  # rounding constants: index bounds, certified radii, probe reach
_TINY = np.finfo(np.float64).smallest_subnormal


class GridIndex:
    """Exact nearest-neighbour index over the rows of `points`.

    The points are sorted by grid cell with CSR offsets per cell. The grid
    covers at most the 3 coordinates of widest extent (an axis thinner than a
    cell is left out) with a cell side chosen for about 4 points per cell. The
    distance projected onto the gridded axes is a lower bound on the full
    distance, so the index is exact in any dimension; with no gridded axis it
    is one cell, a scan.

    The sorted points are stored once, column-major, as a C-contiguous (d, n)
    array. Candidates are scanned in pieces of about `_PIECE` elements, one
    coordinate at a time through `core.sq_dists_to`, so each pass's arrays
    stay in cache and every distance has the bytes of a linear scan.

    A query visits shells of rings of cells at growing Chebyshev distance
    from its cell (clamped into the grid): ring 0, then the widest shell whose
    cells fit `_SHELL_BUDGET` shared by the active queries (many go ring by
    ring, a few far ones cross empty rings at once). It skips cells that
    cannot hold a point as near as its best so far, and stops once its best
    squared distance is strictly below a lower bound on the squared distance
    to every unvisited cell. The bounds are shrunk by a rounding slack (4
    ulps of the coordinate scale per axis gap, then a relative 2 (d + 8) eps
    and a few subnormals), so rounding in cell assignment or in the summed
    squares can only cost extra work, never a wrong answer. Strictness keeps
    exact ties in unvisited cells in play, so ties go to the smallest index
    as in a scan. A query stops at the latest once its block covers the grid.
    """

    def __init__(self, points):
        P = np.asarray(points, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
            raise ValueError("the index needs a nonempty (n, d) point array")
        if not np.all(np.isfinite(P)):
            raise ValueError("indexed points must be finite")
        n = P.shape[0]
        lo, extent = column_span(P)
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
        # (d, n), filled column by column: the build holds no second copy of P
        self._cols = np.empty((P.shape[1], n))
        for j, col in enumerate(P.T):
            self._cols[j] = col[self._order]
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
        tol = 4.0 * _EPS * (row_reduce(np.maximum, np.abs(G)) + self._scale)  # rounding slack
        center = self._cells(G)
        QT = np.ascontiguousarray(Q.T)
        active, a, b, g = np.arange(Q.shape[0]), 0, 0, self._axes.size
        while active.size:
            self._visit_shell(QT, G, tol, active, center[active], a, b, best, arg)
            c = center[active]
            covered = np.all((c <= b) & (c + b >= self._shape - 1), axis=1)
            unvisited = self._unvisited_d2(G[active], tol[active], c, b)
            done = covered | (best[active] < unvisited)
            active = active[~done]
            cells = _SHELL_BUDGET / max(1, active.size) + (2 * b + 1) ** g  # the next block's cells
            top = int((cells ** (1 / max(g, 1)) - 1) // 2)
            top += (2 * top + 3) ** g <= cells  # the root may round down past an integer
            a, b = b + 1, max(b + 1, top)
        return best, arg

    def _visit_shell(self, QT, G, tol, active, center, a, b, best, arg) -> None:
        """Scan the points in the cells at Chebyshev offsets a..b from each active
        query, skipping cells that cannot hold a point as near as its best so far."""
        offsets = _shell(tuple(self._shape.tolist()), a, b)
        shift = offsets @ self._strides
        base = center @ self._strides + self._pad
        step = max(1, _PIECE // max(1, shift.size))
        for lo in range(0, active.size, step):
            cid = base[lo:lo + step, None] + shift
            cnt = self._counts[cid]
            owner, k = np.nonzero(cnt)
            owner += lo
            q = active[owner]
            gaps = []  # per gridded axis, from each query to its candidate cell
            for j in range(self._axes.size):
                edge = self._lo[j] + (center[:, j][owner] + offsets[:, j][k]) * self._side
                Gj = G[:, j][q]
                gaps.append(np.maximum(np.maximum(edge - Gj, Gj - (edge + self._side)), 0.0))
            near = self._lower_d2(gaps, tol[q]) <= best[q]
            owner, k = owner[near], k[near]
            if owner.size == 0:
                continue
            cid, cnt = cid[owner - lo, k], cnt[owner - lo, k]
            # a query's cells may fall into two pieces: the merge keeps ties exact
            for a, b in _pieces(cnt * (self.dim + 4), _PIECE):
                self._scan_cells(QT, active, owner[a:b], cid[a:b], cnt[a:b], best, arg)

    def _scan_cells(self, QT, active, owner, cid, cnt, best, arg) -> None:
        """Merge the points of cells `cid` into the best answers of queries
        `active[owner]`; all pairs of one query are consecutive."""
        ends = np.cumsum(cnt)
        pos = np.arange(ends[-1]) + np.repeat(self._starts[cid] - (ends - cnt), cnt)
        q = active[owner]
        d2 = sq_dists_to(self._cols, QT[:, q], pos, cnt)
        pair0 = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        first = (ends - cnt)[pair0]
        gmin = np.minimum.reduceat(d2, first)
        # the smallest index among each query's candidates at its minimum
        hit = np.flatnonzero(d2 == np.repeat(gmin, np.diff(first, append=d2.size)))
        gidx = np.minimum.reduceat(self._order[pos[hit]],
                                   np.searchsorted(hit, first))
        q = q[pair0]
        better = (gmin < best[q]) | ((gmin == best[q]) & (gidx < arg[q]))
        best[q[better]] = gmin[better]
        arg[q[better]] = gidx[better]

    def _unvisited_d2(self, G, tol, center, r) -> np.ndarray:
        """Lower bound on the squared distance from each query to the points
        outside its visited block (cells within Chebyshev distance r of its
        centre cell)."""
        lo, side, top = self._lo, self._side, self._top
        a, b = center - r, center + r
        out = np.maximum(np.maximum(lo - G, G - top), 0.0)  # gap to the grid box
        below = np.where(a > 0, np.maximum(out, G - (lo + a * side)), np.inf)
        above = np.where(b < self._shape - 1, np.maximum(out, lo + (b + 1) * side - G), np.inf)
        near = np.minimum(below, above)
        # the half-space past the block on one side of axis j, within the box
        g = range(G.shape[1])
        sides = [[near[:, i] if i == j else out[:, i] for i in g] for j in g]
        return np.min([self._lower_d2(gaps, tol) for gaps in sides], axis=0, initial=np.inf)

    def _lower_d2(self, gaps, tol) -> np.ndarray:
        """Squared distance lower bound from the gaps of queries along each
        gridded axis (one array per axis), shrunk by their rounding slack
        `tol`; summed by axes from zero, as `core.row_reduce` does."""
        d2 = np.zeros(tol.shape)
        for gap in gaps:
            d2 += np.maximum(gap - tol, 0.0) ** 2
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
def _shell(shape: tuple, a: int, b: int) -> np.ndarray:
    """Integer offsets with Chebyshev norm in [a, b] that reach a grid of
    `shape` (g >= 0 axes) from one of its cells: |offset_j| < shape_j."""
    reach = np.minimum(b, np.array(shape, dtype=np.int64) - 1)
    cube = np.indices(2 * reach + 1).reshape(len(shape), np.prod(2 * reach + 1)).T - reach
    out = cube[np.abs(cube).max(axis=1, initial=0) >= a]
    out.setflags(write=False)
    return out


def _scan(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`GridIndex(P).nearest(Q)` by a linear scan of every point for every
    query: the same checks on Q, the same kernel and the same ties (argmin
    takes the smallest index). Queries go in pieces of about `_PIECE`
    elements, d + 4 per pair as in the index."""
    if Q.ndim != 2 or Q.shape[1] != P.shape[1]:
        raise ValueError("query dimension mismatch")
    if not np.all(np.isfinite(Q)):
        raise ValueError("queries must be finite")
    best = np.empty(Q.shape[0])
    arg = np.empty(Q.shape[0], dtype=np.int64)
    for a, b in _pieces(np.full(Q.shape[0], P.shape[0] * (P.shape[1] + 4)), _PIECE):
        d2 = sq_dists_to(P.T, Q[a:b].T).reshape(b - a, P.shape[0])
        arg[a:b] = np.argmin(d2, axis=1)
        best[a:b] = d2[np.arange(b - a), arg[a:b]]
    return best, arg


def _nearest_other(S: LabeledDataset, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distance, row of S) of the nearest point of S labelled other than Y_i,
    for each row X_i; S.diameter_bound and -1 when there is none. Per label
    of Y, over the points of S not so labelled: a `_scan` when its queries
    times those points fit `_PIECE` pairs, else a `GridIndex` built here."""
    dist = np.full(X.shape[0], S.diameter_bound)
    rows = np.full(X.shape[0], -1, dtype=np.int64)
    for y in np.unique(Y).tolist():
        others = np.flatnonzero(S.labels != y)
        if others.size:
            sel = Y == y
            Q = X[sel]
            points = np.take(S.points, others, axis=0)  # ~10x faster than S.points[others]
            if Q.shape[0] * others.size <= _PIECE:
                d2, i = _scan(points, Q)
            else:
                d2, i = GridIndex(points).nearest(Q)
            dist[sel], rows[sel] = np.sqrt(d2), others[i]
    return dist, rows


def rho(S: LabeledDataset, X, Y) -> np.ndarray:
    """Distance from each row of the (m, d) batch X to the nearest point of S
    carrying a label other than its label in Y; S.diameter_bound when there
    is none (single-class data)."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != S.dim:
        raise ValueError("query dimension mismatch")
    if Y.shape != (X.shape[0],):
        raise ValueError("need one label per query")
    return _nearest_other(S, X, Y)[0]


def rho_all(S: LabeledDataset) -> np.ndarray:
    """rho(S, S.points, S.labels): the radius of every item of S."""
    return _nearest_other(S, S.points, S.labels)[0]


def certified_radius(X: np.ndarray, d_own: np.ndarray, d_opp: np.ndarray,
                     scale: float) -> np.ndarray:
    """The one certificate of the nearest-set rules: for each row x of X, the
    largest r with d_opp - d_own >= 2 r plus a rounding slack, where d_own is
    the distance from x to its nearest point, d_opp to the nearest point of
    another label and `scale` bounds the indexed coordinates. Every point
    computed as x + r * u with r at most this radius and |u| <= 1 (up to
    rounding in u) keeps x's label.

    If |z - x| < r then z is nearer than d_own + r to a point of x's label and
    farther than d_opp - r from every other, so z keeps x's label while
    d_opp - d_own >= 2 r. The slack keeps this true in floats: probe offsets
    may exceed norm 1 by a few ulps, forming x + r * u rounds each coordinate
    by about eps times the coordinate scale, and the summed squares and square
    roots behind every distance carry a relative error of (d + 3) eps plus a
    few subnormals. The margin taken here is about four times the sum of
    these bounds."""
    kappa = 4.0 * (X.shape[1] + 8) * _EPS
    scale = row_reduce(np.maximum, np.abs(X)) + scale
    tiny = 4.0 * math.sqrt((X.shape[1] + 8) * _TINY)
    return (d_opp - d_own - kappa * (d_opp + scale) - tiny) / (2.0 + kappa)


@dataclass(frozen=True, eq=False)
class NnClassifier(BatchFirst):
    """1-NN predictor over a fixed training set; ties go to the smallest index."""

    train: LabeledDataset
    _index: GridIndex = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", GridIndex(self.train.points))
        object.__setattr__(self, "_scale", float(np.abs(self.train.points).max()))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        _, idx = self._index.nearest(X)
        return self.train.labels[idx]

    def opposite_witness(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(labels, W, safe) of the rows of X: the `predict_batch` labels, from
        the same joint query; W_i, the nearest training point of another label
        than x_i's (ties to the smallest index), or x_i when there is none; and
        each row's `certified_radius` (on single-class data d_opp is the
        `diameter_bound` sentinel, which can only under-certify)."""
        X = np.asarray(X, dtype=np.float64)
        d2, idx = self._index.nearest(X)
        labels = self.train.labels[idx]
        d_opp, rows = _nearest_other(self.train, X, labels)
        W = np.take(self.train.points, rows, axis=0)
        W[rows < 0] = X[rows < 0]
        return labels, W, certified_radius(X, np.sqrt(d2), d_opp, self._scale)
