"""Empirical loss estimators: binary, fixed-radius robust, and adaptive robust.

The robust losses quantify over entire balls, which cannot be decided for an
arbitrary classifier; estimators here probe each ball with k uniform samples
(plus the center) and therefore report LOWER bounds on the true existential
losses. Probe offsets for item i are drawn from a child stream keyed by i, so
results are independent of evaluation order, and the grid variants accumulate
flags over increasing radii, which makes monotonicity in the radius hold by
construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import sample_ball_uniform
from .core import Classifier, LabeledDataset, RandomStream, predict_batch
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
    if D.n == 0:
        raise ValueError("binary loss needs a nonempty dataset")
    errs = predict_batch(h, D.points) != D.labels
    return LossReport("binary", float(np.mean(errs)), 0, 0, D.n)


def _point_offsets(stream: RandomStream, n: int, k: int, d: int) -> np.ndarray:
    """(n, k, d) unit-ball offsets, one child stream per item index."""
    origin = np.zeros((k, d))
    return np.stack([sample_ball_uniform(origin, 1.0, stream.child(i)) for i in range(n)])


_PROBE_CHUNK = 10  # probes per row and call when rows are pruned


def probe_flags(h: Classifier, X: np.ndarray, offsets: np.ndarray, radii: np.ndarray,
                targets: np.ndarray, todo: np.ndarray) -> tuple[np.ndarray, int]:
    """For each row i in `todo`: does any probe X_i + radii_i * offsets_i[j] get
    a label other than targets_i? Rows outside `todo` come back False. Also
    returns the number of probe rows evaluated.

    When h's rows are independent, only the `todo` rows are evaluated,
    _PROBE_CHUNK probes at a time, and a row stops at its first flip; any
    other classifier gets all n * k probe rows in one call. The flags are the
    same bits either way: a skipped probe cannot change a decided row."""
    n, k, d = offsets.shape
    flags = np.zeros(n, dtype=bool)
    if k == 0:
        return flags, 0
    if not getattr(h, "rows_independent", False):
        Z = X[:, None, :] + radii[:, None, None] * offsets
        pred = predict_batch(h, Z.reshape(n * k, d)).reshape(n, k)
        return np.any(pred != targets[:, None], axis=1) & todo, n * k
    live, evaluated = np.flatnonzero(todo), 0
    for j in range(0, k, _PROBE_CHUNK):
        if live.size == 0:
            break
        Z = X[live, None, :] + radii[live, None, None] * offsets[live, j:j + _PROBE_CHUNK]
        evaluated += Z.shape[0] * Z.shape[1]
        pred = predict_batch(h, Z.reshape(-1, d)).reshape(Z.shape[:2])
        hit = np.any(pred != targets[live, None], axis=1)
        flags[live[hit]] = True
        live = live[~hit]
    return flags, evaluated


def robust_loss_fixed(h: Classifier, D: LabeledDataset, r: float,
                      probes: int = 100, stream: RandomStream | None = None) -> LossReport:
    """Probe estimate of the fixed-radius robust loss: an item counts when it is
    misclassified or any of `probes` uniform draws from the radius-r ball around
    it receives a label different from the true one."""
    return robust_loss_fixed_grid(h, D, [r], probes, stream)[0]


def robust_loss_fixed_grid(h: Classifier, D: LabeledDataset, radii,
                           probes: int = 100,
                           stream: RandomStream | None = None) -> list[LossReport]:
    """Evaluate the fixed-radius robust loss on an increasing radius grid with
    shared probe directions; flags accumulate over the grid, so the reported
    values are nondecreasing in r."""
    if D.n == 0:
        raise ValueError("robust loss needs a nonempty dataset")
    radii = [float(r) for r in radii]
    if any(r < 0.0 for r in radii):
        raise ValueError("radii must be >= 0")
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius grid must be nondecreasing")
    if probes < 0:
        raise ValueError("probe count must be >= 0")
    stream = stream if stream is not None else RandomStream(0)
    flags = predict_batch(h, D.points) != D.labels
    offsets = _point_offsets(stream, D.n, probes, D.dim)
    reports = []
    for r in radii:
        flags = flags | probe_flags(h, D.points, offsets, np.full(D.n, r), D.labels, ~flags)[0]
        reports.append(
            LossReport(f"robust_fixed_r={r:g}", float(np.mean(flags)), probes, stream.seed, D.n)
        )
    return reports


def adaptive_robust_empirical(h: Classifier, S: LabeledDataset, c: float = 0.5,
                              probes: int = 100,
                              stream: RandomStream | None = None) -> LossReport:
    """Probe estimate of the empirical adaptive robust loss on S: item i counts
    when h mislabels x_i or any probe from the ball of radius c * rho_S(x_i, y_i)
    gets a label other than y_i."""
    return adaptive_robust_empirical_grid(h, S, [c], probes, stream)[0]


def adaptive_robust_empirical_grid(h: Classifier, S: LabeledDataset, cs,
                                   probes: int = 100,
                                   stream: RandomStream | None = None) -> list[LossReport]:
    """Empirical adaptive robust loss over an increasing grid of expansion
    factors, with shared probe directions and accumulated flags (monotone in c)."""
    if S.n == 0:
        raise ValueError("adaptive robust loss needs a nonempty dataset")
    cs = [float(c) for c in cs]
    if any(c <= 0.0 for c in cs):
        raise ValueError("expansion factors must be positive")
    if any(b < a for a, b in zip(cs, cs[1:])):
        raise ValueError("expansion grid must be nondecreasing")
    if probes < 1:
        raise ValueError("need at least one probe per ball")
    stream = stream if stream is not None else RandomStream(0)
    rhos = rho_all(S)
    flags = predict_batch(h, S.points) != S.labels
    offsets = _point_offsets(stream, S.n, probes, S.dim)
    reports = []
    for c in cs:
        flags = flags | probe_flags(h, S.points, offsets, c * rhos, S.labels, ~flags)[0]
        reports.append(
            LossReport(f"adaptive_empirical_c={c:g}", float(np.mean(flags)), probes, stream.seed, S.n)
        )
    return reports


def adaptive_robust_testtime(h: Classifier, test: LabeledDataset, ref: LabeledDataset,
                             factor: float = 0.5, probes: int = 10,
                             stream: RandomStream | None = None) -> LossReport:
    """Test-time adaptive robust loss: for each test item, find its distance to
    the nearest differently-labeled reference point and probe the ball of
    factor * that distance; the item counts when it is mislabeled or any probe
    flips."""
    if test.n == 0:
        raise ValueError("need a nonempty test set")
    if ref.n == 0 or len(ref.classes()) < 2:
        raise ValueError("reference set must contain at least two classes")
    if probes < 1:
        raise ValueError("need at least one probe per ball")
    stream = stream if stream is not None else RandomStream(0)
    rhos = rho(ref, test.points, test.labels)
    flags = predict_batch(h, test.points) != test.labels
    offsets = _point_offsets(stream, test.n, probes, test.dim)
    flags = flags | probe_flags(h, test.points, offsets, factor * rhos, test.labels, ~flags)[0]
    return LossReport(
        f"adaptive_testtime_f={factor:g}", float(np.mean(flags)), probes, stream.seed, test.n
    )


def disagreement_mass(h1: Classifier, h2: Classifier, sampler, N: int,
                      stream: RandomStream) -> float:
    """Monte-Carlo estimate of the sampler mass where h1 and h2 disagree."""
    if N < 1:
        raise ValueError("need at least one sample")
    X = np.asarray(sampler(stream, N), dtype=np.float64)
    return float(np.mean(predict_batch(h1, X) != predict_batch(h2, X)))
