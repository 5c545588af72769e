"""Empirical loss estimators: binary, fixed-radius robust, and adaptive robust.

The robust losses quantify over entire balls, which cannot be decided for an
arbitrary classifier; estimators here probe each ball with k uniform samples
(plus the center) and therefore report LOWER bounds on the true existential
losses. Probe offsets for item i are drawn from a child stream keyed by i, so
results are independent of evaluation order, and the fixed-radius grid
accumulates flags over increasing radii, which makes monotonicity in the
radius hold by construction. All three probe estimators share one core,
`_probe_losses`, and one probe path, `probe_flags`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import point_offsets
from .core import Classifier, LabeledDataset, RandomStream
from .neighbors import rho, rho_all

REPORT_CSV_HEADER = "loss_name,value,probes,seed,n"


@dataclass(frozen=True)
class LossReport:
    name: str
    value: float
    probes_per_point: int
    seed: int
    n_evaluated: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("loss values live in [0, 1]")

    def csv_row(self) -> str:
        return f"{self.name},{self.value!r},{self.probes_per_point},{self.seed},{self.n_evaluated}"


def binary_loss(h: Classifier, D: LabeledDataset) -> LossReport:
    """Fraction of items with h(x) != y."""
    errs = h.predict_batch(D.points) != D.labels
    return LossReport("binary", float(np.mean(errs)), 0, 0, D.n)


_PROBE_CHUNK = 10  # probes per row and call


def probe_flags(h: Classifier, X: np.ndarray, offsets: np.ndarray, radii: np.ndarray,
                targets: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """For each row i in `todo`: does any probe X_i + radii_i * offsets_i[j] get
    a label other than targets_i? Rows outside `todo` come back False.

    Only the `todo` rows are evaluated, _PROBE_CHUNK probes at a time, and a
    row stops at its first flip: a skipped probe cannot change a decided row."""
    n, k, d = offsets.shape
    flags = np.zeros(n, dtype=bool)
    live = np.flatnonzero(todo)
    for j in range(0, k, _PROBE_CHUNK):
        if live.size == 0:
            break
        Z = X[live, None, :] + radii[live, None, None] * offsets[live, j:j + _PROBE_CHUNK]
        pred = h.predict_batch(Z.reshape(-1, d)).reshape(Z.shape[:2])
        hit = np.any(pred != targets[live, None], axis=1)
        flags[live[hit]] = True
        live = live[~hit]
    return flags


def _probe_losses(h: Classifier, D: LabeledDataset, scales, probes: int,
                  stream: RandomStream) -> list[LossReport]:
    """One report per (name, per-item radii) in `scales`: the fraction of items
    that h mislabels or that some probe of their ball flips. Probe directions
    are shared across `scales` and flags accumulate, so the values are
    nondecreasing along it."""
    flags = h.predict_batch(D.points) != D.labels
    offsets = point_offsets(stream, D.n, probes, D.dim)
    reports = []
    for name, radii in scales:
        flags = flags | probe_flags(h, D.points, offsets, radii, D.labels, ~flags)
        reports.append(LossReport(name, float(np.mean(flags)), probes, stream.seed, D.n))
    return reports


def robust_loss_fixed_grid(h: Classifier, D: LabeledDataset, radii, probes: int = 100, *,
                           stream: RandomStream) -> list[LossReport]:
    """Probe estimate of the fixed-radius robust loss on a nondecreasing
    radius grid: an item counts at r when it is misclassified or any of
    `probes` uniform draws from the radius-r ball around it receives a label
    different from the true one. Flags accumulate over the grid, so the values
    are nondecreasing in r."""
    radii = [float(r) for r in radii]
    if not all(r >= 0.0 for r in radii):
        raise ValueError("radii must be >= 0")
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius grid must be nondecreasing")
    if probes < 0:
        raise ValueError("probe count must be >= 0")
    scales = [(f"robust_fixed_r={r:g}", np.full(D.n, r)) for r in radii]
    return _probe_losses(h, D, scales, probes, stream)


def adaptive_robust_empirical(h: Classifier, S: LabeledDataset, c: float = 0.5,
                              probes: int = 100, *, stream: RandomStream) -> LossReport:
    """Probe estimate of the empirical adaptive robust loss on S: item i counts
    when h mislabels x_i or any probe from the ball of radius c * rho_S(x_i, y_i)
    gets a label other than y_i."""
    if not c > 0.0:
        raise ValueError("expansion factor must be positive")
    if probes < 1:
        raise ValueError("need at least one probe per ball")
    scales = [(f"adaptive_empirical_c={c:g}", c * rho_all(S))]
    return _probe_losses(h, S, scales, probes, stream)[0]


def adaptive_robust_testtime(h: Classifier, test: LabeledDataset, ref: LabeledDataset,
                             factor: float = 0.5, probes: int = 10, *,
                             stream: RandomStream) -> LossReport:
    """Test-time adaptive robust loss: for each test item, find its distance to
    the nearest differently-labeled reference point and probe the ball of
    factor * that distance; the item counts when it is mislabeled or any probe
    flips."""
    if len(ref.classes()) < 2:
        raise ValueError("reference set must contain at least two classes")
    if not factor > 0.0:
        raise ValueError("ball factor must be positive")
    if probes < 1:
        raise ValueError("need at least one probe per ball")
    scales = [(f"adaptive_testtime_f={factor:g}", factor * rho(ref, test.points, test.labels))]
    return _probe_losses(h, test, scales, probes, stream)[0]


def disagreement_mass(h1: Classifier, h2: Classifier, sampler, N: int,
                      stream: RandomStream) -> float:
    """Monte-Carlo estimate of the sampler mass where h1 and h2 disagree."""
    if N < 1:
        raise ValueError("need at least one sample")
    X = np.asarray(sampler(stream, N), dtype=np.float64)
    return float(np.mean(h1.predict_batch(X) != h2.predict_batch(X)))
