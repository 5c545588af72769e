"""Empirical loss estimators: binary, fixed-radius robust, and adaptive robust.

The robust losses quantify over entire balls, which cannot be decided for an
arbitrary classifier; estimators here probe each ball with k uniform samples
(plus the center) and therefore report LOWER bounds on the true existential
losses. Probe offsets for item i are drawn from a child stream keyed by i, so
results are independent of evaluation order, and the fixed-radius grid
accumulates flags over increasing radii, which makes monotonicity in the
radius hold by construction. The three probe estimators and
`margin.margin_profile` decide every ball in one engine, `ball_flags`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import adaptive_radii, expand, point_offsets
from .core import Classifier, LabeledDataset, RandomStream, check_range, radius_grid, row_reduce
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
_BISECTION_STEPS = 30


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
                targets: np.ndarray, todo: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """For each row i in `todo`: does any probe X_i + radii_i * offsets_i[j] get
    a label other than targets_i? Rows outside `todo` come back False. `safe`
    holds per row a radius within which h keeps label targets_i (NaN: none);
    the probes are evaluated _PROBE_CHUNK draws at a time."""
    n, k, d = offsets.shape
    flags = np.zeros(n, dtype=bool)
    live = np.flatnonzero(todo & ~(radii <= safe))
    for j in range(0, k, _PROBE_CHUNK):
        if live.size == 0:
            break
        U = offsets[live, j:j + _PROBE_CHUNK]
        use = ~(_reach(U, radii[live]) <= safe[live, None])
        if not use.any():
            continue
        Z = X[live, None, :] + radii[live, None, None] * U
        owner = np.nonzero(use)[0]
        hit = np.zeros(live.size, dtype=bool)
        hit[owner[h.predict_batch(Z[use]) != targets[live[owner]]]] = True
        flags[live[hit]] = True
        live = live[~hit]
    return flags


def _flip_distances(h: Classifier, X: np.ndarray, W: np.ndarray, labels: np.ndarray,
                    R: np.ndarray) -> np.ndarray:
    """Distance from each row x_i of X to an evaluated label flip on the segment
    to its witness W_i, by bisection (exact with at most one flip per segment);
    inf where W_i = x_i or h labels W_i like x_i. Row i stops once its bracket
    (lo, hi] holds none of its radii R[:, i], where later steps keep hi."""
    diff = W - X
    total = np.sqrt(row_reduce(np.add, diff**2))
    valid = total > 0.0
    valid[valid] = h.predict_batch(W[valid]) != labels[valid]
    dirs = diff / np.where(valid, total, 1.0)[:, None]
    lo, hi = np.zeros(X.shape[0]), np.where(valid, total, math.inf)
    live = np.flatnonzero(valid)
    for _ in range(_BISECTION_STEPS):
        R_live = R[:, live]
        live = live[((lo[live] < R_live) & (R_live <= hi[live])).any(axis=0)]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        same = h.predict_batch(X[live] + mid[:, None] * dirs[live]) == labels[live]
        lo[live] = np.where(same, mid, lo[live])
        hi[live] = np.where(same, hi[live], mid)
    return hi


def ball_flags(h: Classifier, X: np.ndarray, offsets: np.ndarray, scales: np.ndarray,
               targets: np.ndarray | None = None, bisect: bool = False) -> list[np.ndarray]:
    """The one ball engine: for each row `radii` of the (k, n) stack `scales`,
    flag x_i when h labels it other than targets_i (h's own labels by default)
    or a point of its open radii_i-ball gets such a label: a probe
    x_i + radii_i * offsets_i[j], or with `bisect` a flip toward h's witness
    closer than radii_i. Flags accumulate along `scales`. h is queried once,
    by `opposite_witness(X) -> (labels, W, safe)` when it has one.

    Only decided work is skipped: a flagged row, a row's probes after its
    first flip, a ball of radius 0 (it is empty), a probe whose `_reach` lies
    within the certified radius safe_i, and bisection steps once no radius of
    the row falls in its bracket. So for a classifier that labels each row on
    its own, such as 1-NN, the flags are the bits of the unpruned loop."""
    labels, W, safe = (h.opposite_witness(X) if hasattr(h, "opposite_witness")
                       else (h.predict_batch(X), None, np.zeros(X.shape[0])))
    safe = np.fmax(safe, 0.0)  # a radius-0 ball is empty: every row is safe at 0, NaN rows too
    targets = labels if targets is None else targets
    flags = labels != targets
    flips = (_flip_distances(h, X, W, labels, scales) if bisect and W is not None
             else np.full(X.shape[0], math.inf))
    out = []
    for radii in scales:
        flags = flags | (flips < radii)
        if np.any(radii > 0.0):
            flags = flags | probe_flags(h, X, offsets, radii, targets, ~flags, safe)
        out.append(flags)
    return out


def _probe_losses(h: Classifier, D: LabeledDataset, param: str, scales, probes: int,
                  stream: RandomStream) -> list[LossReport]:
    """One report per (name, per-item radii) in `scales`: the fraction of items
    whose ball `ball_flags` flags, with probe directions shared across `scales`,
    so the values are nondecreasing along it. A largest radius breaking the
    overflow rule next to D raises ValueError naming `param`, which set it."""
    names, R = zip(*scales)
    try:  # a probe lies within D's diameter plus its radius of every point of D
        LabeledDataset(np.array([[0.0], [D.diameter_bound + np.max(R)]]), [0, 0])
    except ValueError as exc:
        raise ValueError(f"{param}: {exc}") from None
    offsets = point_offsets(stream, D.n, probes, D.dim)
    flags = ball_flags(h, D.points, offsets, np.array(R), D.labels)
    return [LossReport(name, float(np.mean(f)), probes, stream.seed, D.n)
            for name, f in zip(names, flags)]


def robust_loss_fixed_grid(h: Classifier, D: LabeledDataset, radii, probes: int = 100, *,
                           stream: RandomStream) -> list[LossReport]:
    """Probe estimate of the fixed-radius robust loss on a radius grid (the
    `core.radius_grid` rule): an item counts at r when it is misclassified or
    any of `probes` uniform draws from the radius-r ball around it receives a
    label different from the true one. Flags accumulate over the grid, so the
    values are nondecreasing in r. A radius whose probes lie too far from D
    for `_probe_losses`'s overflow rule raises ValueError naming it."""
    radii = radius_grid(radii)
    check_range("probes", probes, "[0, inf) int")
    scales = [(f"robust_fixed_r={r:g}", np.full(D.n, r)) for r in radii]
    return _probe_losses(h, D, f"r {float(radii[-1])!r}", scales, probes, stream)


def adaptive_robust_empirical(h: Classifier, S: LabeledDataset, c: float = 0.5,
                              probes: int = 100, *, stream: RandomStream) -> LossReport:
    """Probe estimate of the empirical adaptive robust loss on S: item i counts
    when h mislabels x_i or any probe from its `augment.expand` ball, of radius
    c * rho_S(x_i, y_i), gets a label other than y_i."""
    check_range("c", c, "(0, inf)")
    check_range("probes", probes, "[1, inf) int")
    scales = [(f"adaptive_empirical_c={c:g}", expand(S, c))]
    return _probe_losses(h, S, f"c {c!r}", scales, probes, stream)[0]


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
    scales = [(f"adaptive_testtime_f={factor:g}",
               adaptive_radii("factor", factor, rho(ref, test.points, test.labels)))]
    return _probe_losses(h, test, f"factor {factor!r}", scales, probes, stream)[0]


def disagreement_mass(h1: Classifier, h2: Classifier, sampler, N: int,
                      stream: RandomStream) -> float:
    """Monte-Carlo estimate of the sampler mass where h1 and h2 disagree."""
    check_range("N", N, "[1, inf) int")
    X = np.asarray(sampler(stream, N), dtype=np.float64)
    return float(np.mean(h1.predict_batch(X) != h2.predict_batch(X)))
