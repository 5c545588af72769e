"""Exact finite-support and piecewise-uniform constructions where binary and
robust losses can be computed in closed form over a small classifier family.

The family (two constants plus axis-aligned halfspace thresholds at coordinate
midpoints) provably contains an optimal predictor for the finite 1-D supports
and the specific 2-D constructions used here, so enumerating it reproduces the
separation results exactly: halfspace margin membership reduces to a strict
interval test around the threshold (open balls, boundary excluded).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BatchFirst, RandomStream


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Atoms with regression values: P(y=1 | x_i) = mu_i, P_X(x_i) = mass_i."""

    points: np.ndarray
    mu: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        mu = np.asarray(self.mu, dtype=np.float64)
        mass = np.asarray(self.mass, dtype=np.float64)
        if pts.shape[0] != mu.shape[0] or pts.shape[0] != mass.shape[0]:
            raise ValueError("points, mu, mass must have matching lengths")
        if not (np.all(mass > 0.0) and abs(float(mass.sum()) - 1.0) <= 1e-12):
            raise ValueError("masses must be positive and sum to 1")
        if not np.all((mu >= 0.0) & (mu <= 1.0)):
            raise ValueError("regression values must lie in [0, 1]")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mass", mass)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ConstantClassifier(BatchFirst):
    label: int

    def predict_batch(self, X) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.label, dtype=np.int64)

    def in_margin(self, X, r: float) -> np.ndarray:
        return np.zeros(np.asarray(X).shape[0], dtype=bool)  # no decision boundary

    def describe(self) -> str:
        return f"constant {self.label}"


@dataclass(frozen=True)
class HalfspaceClassifier(BatchFirst):
    """Axis-aligned threshold: points with x[axis] >= t get `above_label`."""

    axis: int
    threshold: float
    above_label: int

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        above = X[:, self.axis] >= self.threshold
        return np.where(above, self.above_label, 1 - self.above_label).astype(np.int64)

    def in_margin(self, X, r: float) -> np.ndarray:
        """For each row x of X: is some point of the open radius-r ball around
        x labeled differently than x? Evaluated as strict interval bounds
        (t - r < x[axis] < t + r) rather than abs(x - t) < r: for
        decimal-specified constructions the bounds round back to the atoms'
        own representations, keeping boundary cases exact (a point at real
        distance exactly r is NOT in the margin)."""
        v = np.asarray(X, dtype=np.float64)[:, self.axis]
        return (self.threshold - r < v) & (v < self.threshold + r)

    def describe(self) -> str:
        op = ">=" if self.above_label == 1 else "<"
        return f"1{{x{self.axis + 1} {op} {self.threshold:g}}}"


def enumerate_family(D: FiniteDistribution) -> list:
    """Constants plus both orientations of every axis-aligned midpoint threshold."""
    family: list = [ConstantClassifier(0), ConstantClassifier(1)]
    for axis in range(D.dim):
        coords = np.unique(D.points[:, axis])
        mids = (coords[:-1] + coords[1:]) / 2.0
        for t in mids:
            family.append(HalfspaceClassifier(axis, float(t), 1))
            family.append(HalfspaceClassifier(axis, float(t), 0))
    return family


def _atom_errors(h, D: FiniteDistribution) -> np.ndarray:
    """P(y != h(x) | x) at each atom."""
    return np.where(h.predict_batch(D.points) == 0, D.mu, 1.0 - D.mu)


def exact_binary_loss(h, D: FiniteDistribution) -> float:
    """Expected binary loss: sum of mass * P(y != h(x) | x)."""
    return float(np.sum(D.mass * _atom_errors(h, D)))


def exact_robust_loss(h, D: FiniteDistribution, r: float) -> float:
    """Expected fixed-radius robust loss, with margin membership computed
    analytically (only defined for classifiers exposing in_margin)."""
    if not hasattr(h, "in_margin"):
        raise ValueError("exact robust loss needs an analytic-margin classifier")
    if not r >= 0.0:
        raise ValueError("radius must be >= 0")
    return float(np.sum(D.mass * np.where(h.in_margin(D.points, r), 1.0, _atom_errors(h, D))))


def exact_best(family: list, D: FiniteDistribution, loss: str, r: float | None = None):
    """Enumerate the family and return (argmin classifier, loss value); ties go
    to the earliest family member. `loss` is "binary" or "robust" (with r)."""
    if loss == "binary":
        evaluate = lambda h: exact_binary_loss(h, D)
    elif loss == "robust":
        if r is None:
            raise ValueError("robust loss needs a radius")
        evaluate = lambda h: exact_robust_loss(h, D, r)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    best = min(family, key=evaluate)
    return best, evaluate(best)


def disagreement_exact(h1, h2, D: FiniteDistribution) -> float:
    """Exact mass of atoms where the two classifiers differ."""
    p1 = h1.predict_batch(D.points)
    p2 = h2.predict_batch(D.points)
    return float(np.sum(D.mass[p1 != p2]))


# ---------------------------------------------------------------------------
# Constructions


def scenario_two_point(gap: float) -> FiniteDistribution:
    """Two deterministic atoms on the line at distance `gap`, mass 1/2 each.

    For any r > gap the pointwise-correct threshold suffers robust loss 1
    while a constant achieves the optimum 1/2, so the binary-optimal and
    robust-optimal predictors disagree on half the mass. The distribution is
    strongly separable (margin rate 0 below gap/2).
    """
    if not gap > 0.0:
        raise ValueError("gap must be positive")
    return FiniteDistribution(
        points=np.array([[0.0], [gap]]), mu=np.array([0.0, 1.0]), mass=np.array([0.5, 0.5])
    )


def scenario_four_point() -> FiniteDistribution:
    """Four uniform atoms in the plane with deterministic labels split by the
    x2 = 1 line; every atom on the tight side sits at distance exactly 0.1
    from that line, so with open balls the threshold at 1 stays robust-optimal
    up to r = 0.1."""
    pts = np.array([[-1.0, 0.9], [-1.0, 1.1], [1.0, 0.9], [1.0, 2.0]])
    mu = np.array([0.0, 1.0, 0.0, 1.0])
    return FiniteDistribution(points=pts, mu=mu, mass=np.full(4, 0.25))


@dataclass(frozen=True)
class TwoRectangles:
    """Uniform marginal over R1 = [-2,-1] x [-1,1] and R2 = [1,2] x [-1,1] with
    a slightly label-favoring upper half: P(y=1 | x) = 1/2 + eps/2 above the
    x1-axis and 1/2 - eps/2 below.

    The binary-optimal predictor splits on x2 >= 0; for r >= eps/2 the
    robust-optimal one splits on x1 >= 0 (its boundary carries no mass), and
    the two disagree on exactly half the mass.
    """

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")

    def sampler(self, stream: RandomStream, n: int) -> np.ndarray:
        side = stream.integers(0, 2, n)
        u = stream.uniform((n, 2))
        x1 = np.where(side == 0, -2.0 + u[:, 0], 1.0 + u[:, 0])
        x2 = -1.0 + 2.0 * u[:, 1]
        return np.column_stack([x1, x2])

    def mu(self, X) -> np.ndarray:
        """P(y=1 | x) for each row of an (n, 2) batch; x2 == 0 is the upper half."""
        X = np.asarray(X, dtype=np.float64)
        return np.where(X[:, 1] >= 0.0, 0.5 + self.epsilon / 2.0, 0.5 - self.epsilon / 2.0)

    @property
    def bayes(self) -> HalfspaceClassifier:
        return HalfspaceClassifier(axis=1, threshold=0.0, above_label=1)

    @property
    def robust_bayes(self) -> HalfspaceClassifier:
        return HalfspaceClassifier(axis=0, threshold=0.0, above_label=1)

    def bayes_binary_loss(self) -> float:
        return (1.0 - self.epsilon) / 2.0

    def margin_slab_mass(self, r: float) -> float:
        """Mass of the bayes predictor's radius-r margin: the |x2| < r slab
        covers fraction r of each unit-width, height-2 rectangle."""
        if not r >= 0.0:
            raise ValueError("radius must be >= 0")
        return min(1.0, r)


def scenario_two_rectangles(epsilon: float) -> TwoRectangles:
    return TwoRectangles(epsilon)
