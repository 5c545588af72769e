"""The nearest-set canonical predictor, margin-rate profiles, and the 1-NN
sample-size bound.

The margin rate of a distribution is the mass of points whose distance to the
canonical predictor's decision boundary is below r, as a function of r. It is
estimated here by Monte-Carlo over domain samples, combining random ball
probes with a directed bisection toward a witness point on the other side of
the boundary, for classifiers that supply one (1-NN, and so the nearest-set
predictor); it is exact for nearest-set classifiers (which flip exactly once
along the segment), a heuristic for others. The probes, the bisection and the
rules that skip decided work are the one ball engine's, `losses.ball_flags`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import unit_ball
from .core import Classifier, LabeledDataset, RandomStream, check_range, radius_grid
from .losses import ball_flags
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

    def csv_lines(self) -> list[str]:
        rows = [f"{float(r)!r},{float(v)!r}" for r, v in zip(self.radii, self.values)]
        return ["r,phi_hat"] + rows


def margin_profile(sampler, h: Classifier, radii, N: int, probes: int = 100, *,
                   stream: RandomStream) -> MarginProfile:
    """Monte-Carlo margin-rate profile of h over the sampler's distribution:
    at each grid radius r, the fraction of N sampled points whose open r-ball
    holds a point that h labels unlike the point (`losses.ball_flags`). Each
    point has `probes` shared probe directions, scaled per radius, plus a
    bisection toward its witness W_i when h has `opposite_witness(X) ->
    (labels, W, safe)`; flags accumulate, so the raw curve is already
    monotone.
    """
    radii = radius_grid(radii)
    check_range("N", N, "[1, inf) int")
    check_range("probes", probes, "[0, inf) int")
    X = np.asarray(sampler(stream.child(0), N), dtype=np.float64)
    s = stream.child(1)
    offsets = unit_ball(s.normal((N, probes, X.shape[1])), s.uniform((N, probes)))
    scales = np.broadcast_to(radii[:, None], (radii.shape[0], N))
    flags = ball_flags(h, X, offsets, scales, bisect=True)
    return MarginProfile(radii, np.array([np.mean(f) for f in flags]))


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
