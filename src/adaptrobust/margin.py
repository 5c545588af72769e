"""The nearest-set canonical predictor, margin-rate profiles, and the 1-NN
sample-size bound.

The margin rate of a distribution is the mass of points whose distance to the
canonical predictor's decision boundary is below r, as a function of r. It is
estimated here by Monte-Carlo over domain samples, combining random ball
probes with a directed bisection toward a witness point on the other side of
the boundary, for classifiers that supply one (1-NN, and so the nearest-set
predictor); it is exact for nearest-set classifiers (which flip exactly once
along the segment), a heuristic for others.

Only the test `flip distance < r` and the probe flags reach the profile, so
work whose outcome is already decided is skipped: a row stops being probed
once it is in the margin, a probe within the radius the witness query
certifies is not evaluated, and the bisection stops once no grid radius can
tell its bracket's ends apart. For a classifier that labels each row on its
own, such as 1-NN, the values are the same bits as with every probe and
bisection step evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import unit_ball
from .core import Classifier, LabeledDataset, RandomStream, check_range, radius_grid, row_reduce, write_text_lines
from .losses import certified_labels, probe_flags
from .neighbors import NnClassifier


class NearestSetClassifier(NnClassifier):
    """Nearest-set labeling over dense samplings of the two class regions:
    1-NN over [support0; support1] labelled 0 and 1, so exact ties go to 0."""

    predict_batch = NnClassifier.predict_batch  # its own attribute: its spans are apart from 1-NN's

    def __init__(self, support0, support1):
        s0, s1 = np.asarray(support0, dtype=np.float64), np.asarray(support1, dtype=np.float64)
        if s0.ndim != 2 or s1.shape[1:] != s0.shape[1:] or 0 in (len(s0), len(s1)):
            raise ValueError("supports must be nonempty (n, d) arrays of one dimension")
        super().__init__(LabeledDataset(np.vstack([s0, s1]), np.repeat([0, 1], [len(s0), len(s1)])))
        object.__setattr__(self, "support0", self.train.points[:len(s0)])
        object.__setattr__(self, "support1", self.train.points[len(s0):])


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
    total = np.sqrt(row_reduce(np.add, diff**2))
    valid = total > 0.0
    valid[valid] = h.predict_batch(W[valid]) != preds[valid]
    dirs = diff / np.where(valid, total, 1.0)[:, None]
    lo, hi = np.zeros(X.shape[0]), np.where(valid, total, math.inf)
    live = np.flatnonzero(valid)
    for _ in range(_BISECTION_STEPS):
        live = live[np.searchsorted(radii, hi[live], side="right")
                    > np.searchsorted(radii, lo[live], side="right")]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        same = h.predict_batch(X[live] + mid[:, None] * dirs[live]) == preds[live]
        lo[live] = np.where(same, mid, lo[live])
        hi[live] = np.where(same, hi[live], mid)
    return hi


@dataclass(frozen=True, eq=False)
class MarginProfile:
    """Tabulated margin-rate estimate: nondecreasing values over a radius grid."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = radius_grid(self.radii)
        v = np.asarray(self.values, dtype=np.float64)
        if r.shape != v.shape:
            raise ValueError("radii and values must have matching shapes")
        check_range("values", v, "[0, 1]")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("profile values must be nondecreasing")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    def save(self, path) -> None:
        lines = ["r,phi_hat"]
        lines += [f"{float(r)!r},{float(v)!r}" for r, v in zip(self.radii, self.values)]
        write_text_lines(path, lines)


def margin_profile(sampler, h: Classifier, radii, N: int, probes: int = 100, *,
                   stream: RandomStream) -> MarginProfile:
    """Monte-Carlo margin-rate profile of h over the sampler's distribution.

    For each of N sampled points, membership in the radius-r margin is tested
    with shared probe directions (scaled per radius, flags accumulated so the
    raw curve is already monotone), plus a bisection toward witness W_i when h
    has `opposite_witness(X) -> (labels, W, safe)` (`losses.certified_labels`):
    h labels W_i unlike x_i unless W_i = x_i (no witness), and no probe of x_i
    flips its label at radii <= safe_i (-inf: none certified).
    """
    radii = radius_grid(radii)
    check_range("N", N, "[1, inf) int")
    check_range("probes", probes, "[0, inf) int")
    X = np.asarray(sampler(stream.child(0), N), dtype=np.float64)
    preds, W, safe = certified_labels(h, X)  # no probe flips a row within safe
    flips = np.full(N, math.inf) if W is None else _flip_distances_batch(h, X, W, preds, radii)

    member = np.zeros(N, dtype=bool)
    values = np.empty(radii.shape[0])
    s = stream.child(1)
    offsets = unit_ball(s.normal((N, probes, X.shape[1])), s.uniform((N, probes)))
    for j, r in enumerate(radii):
        decided = flips < r
        if r > 0.0:
            member |= probe_flags(h, X, offsets, np.full(N, r), preds, ~(member | decided), safe)
        # Nondecreasing: `member` and `flips < r` only grow along the grid.
        values[j] = np.mean(member | decided)
    return MarginProfile(radii, values)


def inverse_phi(profile: MarginProfile, epsilon: float) -> float:
    """Largest grid radius with profile value <= epsilon; 0 when there is none."""
    check_range("epsilon", epsilon, "[0, 1]")
    ok = profile.values <= epsilon
    if not np.any(ok):
        return 0.0
    return float(profile.radii[np.where(ok)[0][-1]])


def nn_sample_bound(d: int, epsilon: float, delta: float, r_eps: float) -> float:
    """Sample size ensuring 1-NN on the 0.5-adaptive augmentation has binary
    loss at most epsilon with probability 1 - delta:
    3^d d^(d/2) / (e * r_eps^d * epsilon * delta)."""
    check_range("d", d, "[1, inf) int")
    check_range("epsilon", epsilon, "(0, 1]")
    check_range("delta", delta, "(0, 1]")
    check_range("r_eps", r_eps, "(0, inf]")
    try:  # a power can leave the float range, and a product can overflow or underflow
        bound = (3.0**d * d ** (0.5 * d)) / (math.e * r_eps**d * epsilon * delta)
    except (OverflowError, ZeroDivisionError):
        bound = math.nan
    with np.errstate(over="ignore", divide="ignore"):  # log form: inf above the range, 0.0 below
        log_bound = d * np.log(3.0 * np.sqrt(d) / r_eps) - 1.0 - np.log(epsilon) - np.log(delta)
        return bound if 0.0 < bound < math.inf else float(np.exp(log_bound))
