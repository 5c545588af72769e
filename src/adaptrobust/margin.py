"""Nearest-set canonical predictors, margin-rate profiles, and the 1-NN
sample-size bound.

The margin rate of a distribution is the mass of points whose distance to the
canonical predictor's decision boundary is below r, as a function of r. It is
estimated here by Monte-Carlo over domain samples, combining random ball
probes with a directed bisection toward a witness point on the other side of
the boundary; the witness direction is exact for nearest-set classifiers
(which flip exactly once along the segment) and a heuristic for others.

Only the test `flip distance < r` and the probe flags reach the profile, so
work whose outcome is already decided is skipped: a row stops being probed
once it is in the margin, nearest-set rows are not probed at radii their
distance gap certifies, and the bisection stops once no grid radius can tell
its bracket's ends apart. For a classifier that labels each row on its own,
such as the nearest-set one, the values are the same bits as with every
probe and bisection step evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augment import sample_ball_uniform
from .core import BatchFirst, Classifier, RandomStream
from .losses import probe_flags
from .neighbors import GridIndex

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True, eq=False)
class NearestSetClassifier(BatchFirst):
    """Nearest-set labeling over dense samplings of the two class regions.

    A point gets the label of the closer support set; exact ties go to 0. This
    is 1-NN over [support0; support1] with ties to the smallest index. Each
    support also has its own index, for the witnesses.
    """

    support0: np.ndarray
    support1: np.ndarray
    _index: GridIndex = field(init=False, repr=False)
    _class_index: tuple = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        s0 = np.asarray(self.support0, dtype=np.float64)
        s1 = np.asarray(self.support1, dtype=np.float64)
        if s0.ndim != 2 or s1.ndim != 2 or s0.shape[0] == 0 or s1.shape[0] == 0:
            raise ValueError("both supports must be nonempty (m, d) arrays")
        if s0.shape[1] != s1.shape[1]:
            raise ValueError("supports must share a dimension")
        object.__setattr__(self, "support0", s0)
        object.__setattr__(self, "support1", s1)
        object.__setattr__(self, "_index", GridIndex(np.vstack([s0, s1])))
        object.__setattr__(self, "_class_index", (GridIndex(s0), GridIndex(s1)))
        object.__setattr__(self, "_scale", float(max(np.abs(s0).max(), np.abs(s1).max())))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        _, idx = self._index.nearest(X)
        return (idx >= self.support0.shape[0]).astype(np.int64)

    def opposite_witness(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row x of X: the nearest support point of the class this
        classifier does NOT assign to x (ties go to the smallest index), and
        a certified radius: every point computed as x + r * u with r at most
        that radius and |u| <= 1 (up to rounding in u) gets x's label."""
        X = np.asarray(X, dtype=np.float64)
        d2_own, nearest = self._index.nearest(X)
        label = nearest >= self.support0.shape[0]
        out = np.empty_like(X)
        d2_opp = np.empty(X.shape[0])
        for y, support in ((0, self.support1), (1, self.support0)):
            rows = label == y
            d2, idx = self._class_index[1 - y].nearest(X[rows])
            out[rows], d2_opp[rows] = support[idx], d2
        return out, self._certified_radius(X, np.sqrt(d2_own), np.sqrt(d2_opp))

    def _certified_radius(self, X, d_own, d_opp) -> np.ndarray:
        """Largest r with d_opp - d_own >= 2 r plus a rounding slack.

        If |z - x| < r then z is nearer than d_own + r to x's own support and
        farther than d_opp - r from the other, so z keeps x's label while
        d_opp - d_own >= 2 r. The slack keeps this true in floats: probe
        offsets may exceed norm 1 by a few ulps, forming x + r * u rounds each
        coordinate by about eps times the coordinate scale, and the summed
        squares and square roots behind every distance carry a relative
        error of (d + 3) eps plus a few subnormals. The margin taken here is
        about four times the sum of these bounds."""
        kappa = 4.0 * (X.shape[1] + 8) * _EPS
        scale = np.abs(X).max(axis=1, initial=0.0) + self._scale
        tiny = 4.0 * math.sqrt((X.shape[1] + 8) * _TINY)
        return (d_opp - d_own - kappa * (d_opp + scale) - tiny) / (2.0 + kappa)


_BISECTION_STEPS = 30


def _flip_distances_batch(h: Classifier, X: np.ndarray, W: np.ndarray,
                          preds: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Distance from each row of X to a verified label flip along the segment
    to its witness row of W, by bisection; rows whose witness shares their
    label get inf. Assumes at most one flip per segment (exact for nearest-set
    classifiers); every returned distance points at an evaluated, flipped
    point.

    A row's bisection stops once its bracket (lo, hi] holds no radius of the
    sorted grid `radii`: later steps keep hi in that bracket, so
    `distance < r` is already decided for every grid r."""
    diff = W - X
    total = np.sqrt(np.sum(diff**2, axis=1))
    valid = total > 0.0
    valid[valid] = h.predict_batch(W[valid]) != preds[valid]
    out = np.full(X.shape[0], math.inf)
    if not np.any(valid):
        return out
    idx = np.where(valid)[0]
    xs = X[idx]
    dirs = diff[idx] / total[idx, None]
    lo = np.zeros(idx.shape[0])
    hi = total[idx].copy()
    base = preds[idx]
    live = np.arange(idx.shape[0])
    for _ in range(_BISECTION_STEPS):
        live = live[np.searchsorted(radii, hi[live], side="right")
                    > np.searchsorted(radii, lo[live], side="right")]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        same = h.predict_batch(xs[live] + mid[:, None] * dirs[live]) == base[live]
        lo[live] = np.where(same, mid, lo[live])
        hi[live] = np.where(same, hi[live], mid)
    out[idx] = hi
    return out


@dataclass(frozen=True, eq=False)
class MarginProfile:
    """Tabulated margin-rate estimate: nondecreasing values over a radius grid."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if r.ndim != 1 or r.shape != v.shape or r.shape[0] == 0:
            raise ValueError("radii and values must be matching nonempty 1-D arrays")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("radius grid must be strictly increasing")
        if np.any(v < 0.0) or np.any(v > 1.0) or np.any(np.diff(v) < 0.0):
            raise ValueError("profile values must be nondecreasing in [0, 1]")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    def save(self, path) -> None:
        lines = ["r,phi_hat"]
        lines += [f"{float(r)!r},{float(v)!r}" for r, v in zip(self.radii, self.values)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def margin_profile(sampler, h: Classifier, radii, N: int, probes: int = 100, *,
                   stream: RandomStream, witness_fn=None) -> MarginProfile:
    """Monte-Carlo margin-rate profile of h over the sampler's distribution.

    For each of N sampled points, membership in the radius-r margin is tested
    with shared probe directions (scaled per radius, flags accumulated so the
    raw curve is already monotone) plus a witness bisection. `witness_fn`
    overrides the witness; nearest-set classifiers supply their own.
    """
    radii = np.asarray([float(r) for r in radii], dtype=np.float64)
    if radii.ndim != 1 or radii.shape[0] == 0 or not np.all(np.diff(radii) > 0.0):
        raise ValueError("need a strictly increasing radius grid")
    if not radii[0] >= 0.0:
        raise ValueError("radii must be >= 0")
    if N < 1:
        raise ValueError("need at least one sample point")
    X = np.asarray(sampler(stream.child(0), N), dtype=np.float64)
    preds = h.predict_batch(X)

    flips = np.full(N, math.inf)
    safe = np.full(N, -math.inf)  # no probe flips a row at radii <= safe
    if witness_fn is None and isinstance(h, NearestSetClassifier):
        W, safe = h.opposite_witness(X)
        flips = _flip_distances_batch(h, X, W, preds, radii)
    elif witness_fn is not None:
        found = [witness_fn(x) for x in X]
        have = np.array([w is not None for w in found])
        if np.any(have):
            W = np.stack([np.asarray(w, dtype=np.float64) for w in found if w is not None])
            flips[have] = _flip_distances_batch(h, X[have], W, preds[have], radii)

    member = np.zeros(N, dtype=bool)
    values = np.empty(radii.shape[0])
    if probes > 0:
        origin = np.broadcast_to(0.0, (N, probes, X.shape[1]))
        offsets = sample_ball_uniform(origin, 1.0, stream.child(1))
    for j, r in enumerate(radii):
        decided = flips < r
        if r > 0.0 and probes > 0:
            todo = ~(member | decided) & (safe < r)
            member |= probe_flags(h, X, offsets, np.full(N, r), preds, todo)
        # Nondecreasing: `member` and `flips < r` only grow along the grid.
        values[j] = np.mean(member | decided)
    return MarginProfile(radii, values)


def inverse_phi(profile: MarginProfile, epsilon: float) -> float:
    """Largest grid radius with profile value <= epsilon; 0 when there is none."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    ok = profile.values <= epsilon
    if not np.any(ok):
        return 0.0
    return float(profile.radii[np.where(ok)[0][-1]])


def nn_sample_bound(d: int, epsilon: float, delta: float, r_eps: float) -> float:
    """Sample size ensuring 1-NN on the 0.5-adaptive augmentation has binary
    loss at most epsilon with probability 1 - delta:
    3^d d^(d/2) / (e * r_eps^d * epsilon * delta)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not (0.0 < epsilon <= 1.0 and 0.0 < delta <= 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1]")
    if not r_eps > 0.0:
        raise ValueError("the bound is undefined for r_eps = 0")
    return (3.0**d * d ** (0.5 * d)) / (math.e * r_eps**d * epsilon * delta)
