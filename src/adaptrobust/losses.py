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

import math
from dataclasses import dataclass

import numpy as np

from .augment import expand, point_offsets
from .core import Classifier, LabeledDataset, RandomStream, check_range, column_span, radius_grid, row_reduce
from .neighbors import _EPS, _TINY, rho

REPORT_CSV_HEADER = "loss_name,value,probes,seed,n"


@dataclass(frozen=True)
class LossReport:
    name: str
    value: float
    probes_per_point: int
    seed: int
    n_evaluated: int

    def __post_init__(self):
        check_range("loss value", self.value, "[0, 1]")

    def csv_row(self) -> str:
        return f"{self.name},{self.value!r},{self.probes_per_point},{self.seed},{self.n_evaluated}"


def binary_loss(h: Classifier, D: LabeledDataset) -> LossReport:
    """Fraction of items with h(x) != y."""
    errs = h.predict_batch(D.points) != D.labels
    return LossReport("binary", float(np.mean(errs)), 0, 0, D.n)


_PROBE_CHUNK = 10  # probes per row and call


def certified_labels(h: Classifier, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None,
                                                             np.ndarray | None]:
    """(labels, W, safe) of the rows of X: `h.opposite_witness(X)` when h has
    it (one query for all three), else h's labels and None for both."""
    return h.opposite_witness(X) if hasattr(h, "opposite_witness") else (h.predict_batch(X), None, None)


def _reach(U: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """An upper bound on |radii_i * U_i[j]| for each probe offset U_i[j].

    The computed |u| can fall short of the true norm by (d + 3) / 2 eps
    relative plus sqrt(d) subnormals (the squares may underflow), and forming
    r * |u| rounds once more. As in `neighbors.certified_radius`, the margin
    taken is about four times these bounds. The rounding of x + r * u
    depends on the size of r * u, not on r, so the certificate's own slack
    covers it."""
    d = U.shape[-1]
    norms = np.sqrt(row_reduce(np.add, U**2))
    return radii[:, None] * (norms * (1.0 + 4.0 * (d + 8) * _EPS)
                             + 4.0 * math.sqrt((d + 8) * _TINY)) + _TINY


def probe_flags(h: Classifier, X: np.ndarray, offsets: np.ndarray, radii: np.ndarray,
                targets: np.ndarray, todo: np.ndarray, safe=None) -> np.ndarray:
    """For each row i in `todo`: does any probe X_i + radii_i * offsets_i[j] get
    a label other than targets_i? Rows outside `todo` come back False.

    `safe`, when given, holds per row a radius within which h keeps label
    targets_i (`neighbors.certified_radius`, for unit-ball offsets): a row
    whose radius is within it is not probed, nor is a probe whose `_reach` is.
    The other probes of the `todo` rows are evaluated _PROBE_CHUNK draws at a
    time, and a row stops at its first flip: a skipped probe cannot change a
    decided row. Without `safe` every probe of a live row is evaluated."""
    n, k, d = offsets.shape
    flags = np.zeros(n, dtype=bool)
    live = np.flatnonzero(todo if safe is None else todo & ~(radii <= safe))
    for j in range(0, k, _PROBE_CHUNK):
        if live.size == 0:
            break
        U = offsets[live, j:j + _PROBE_CHUNK]
        use = (np.ones(U.shape[:2], dtype=bool) if safe is None  # a NaN safe certifies nothing
               else ~(_reach(U, radii[live]) <= safe[live, None]))
        if not use.any():
            continue
        Z = X[live, None, :] + radii[live, None, None] * U
        owner = np.nonzero(use)[0]
        hit = np.zeros(live.size, dtype=bool)
        hit[owner[h.predict_batch(Z[use]) != targets[live[owner]]]] = True
        flags[live[hit]] = True
        live = live[~hit]
    return flags


def _probe_losses(h: Classifier, D: LabeledDataset, scales, probes: int,
                  stream: RandomStream) -> list[LossReport]:
    """One report per (name, per-item radii) in `scales`: the fraction of items
    that h mislabels or that some probe of their ball flips. Probe directions
    are shared across `scales` and flags accumulate, so the values are
    nondecreasing along it. A classifier that certifies its labels skips the
    probes its certificate decides."""
    pred, _, safe = certified_labels(h, D.points)
    flags = pred != D.labels
    offsets = point_offsets(stream, D.n, probes, D.dim)
    reports = []
    for name, radii in scales:
        flags = flags | probe_flags(h, D.points, offsets, radii, D.labels, ~flags, safe)
        reports.append(LossReport(name, float(np.mean(flags)), probes, stream.seed, D.n))
    return reports


def robust_loss_fixed_grid(h: Classifier, D: LabeledDataset, radii, probes: int = 100, *,
                           stream: RandomStream) -> list[LossReport]:
    """Probe estimate of the fixed-radius robust loss on a radius grid (the
    `core.radius_grid` rule): an item counts at r when it is misclassified or
    any of `probes` uniform draws from the radius-r ball around it receives a
    label different from the true one. Flags accumulate over the grid, so the
    values are nondecreasing in r. A radius whose probes, next to D, break
    `LabeledDataset`'s overflow rule raises ValueError naming it."""
    radii = radius_grid(radii)
    check_range("probes", probes, "[0, inf) int")
    lo, extent = column_span(D.points)
    try:  # every probe lies in D's bounding box widened by r on each side
        LabeledDataset(np.array([lo - radii[-1], lo + extent + radii[-1]]), [0, 0])
    except ValueError as exc:
        raise ValueError(f"r {float(radii[-1])!r}: {exc}") from None
    scales = [(f"robust_fixed_r={r:g}", np.full(D.n, r)) for r in radii]
    return _probe_losses(h, D, scales, probes, stream)


def adaptive_robust_empirical(h: Classifier, S: LabeledDataset, c: float = 0.5,
                              probes: int = 100, *, stream: RandomStream) -> LossReport:
    """Probe estimate of the empirical adaptive robust loss on S: item i counts
    when h mislabels x_i or any probe from its `augment.expand` ball, of radius
    c * rho_S(x_i, y_i), gets a label other than y_i."""
    check_range("c", c, "(0, inf)")
    check_range("probes", probes, "[1, inf) int")
    scales = [(f"adaptive_empirical_c={c:g}", expand(S, c))]
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
    check_range("factor", factor, "(0, inf)")
    check_range("probes", probes, "[1, inf) int")
    scales = [(f"adaptive_testtime_f={factor:g}", factor * rho(ref, test.points, test.labels))]
    return _probe_losses(h, test, scales, probes, stream)[0]


def disagreement_mass(h1: Classifier, h2: Classifier, sampler, N: int,
                      stream: RandomStream) -> float:
    """Monte-Carlo estimate of the sampler mass where h1 and h2 disagree."""
    check_range("N", N, "[1, inf) int")
    X = np.asarray(sampler(stream, N), dtype=np.float64)
    return float(np.mean(h1.predict_batch(X) != h2.predict_batch(X)))
