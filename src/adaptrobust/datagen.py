"""Synthetic manifold datasets, the dataset CSV schema, and splitting.

Each shape is a family of one-dimensional parametric curves in the plane, one
curve collection per class, sampled uniformly in arc length and affinely
mapped into [0, 1]^2. The parametric pieces are evaluated exactly (trig for
arcs, linear interpolation for polyline edges), so generated points lie on
their curves to machine precision after de-normalization.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, RandomStream, check_range, read_text_lines


@dataclass(frozen=True)
class ShapeSpec:
    shape: str
    n: int
    seed: int
    label_noise: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPE_NAMES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of {SHAPE_NAMES}")
        check_range("n", self.n, "[2, inf) int")  # both classes are represented
        check_range("seed", self.seed, "[0, inf) int")
        check_range("label_noise", self.label_noise, "[0, 1)")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        check_range("train_fraction", self.train_fraction, "(0, 1)")
        check_range("seed", self.seed, "[0, inf) int")


# ---------------------------------------------------------------------------
# Parametric curve pieces (raw, un-normalized coordinates)


@dataclass(frozen=True)
class _Arc:
    center: tuple[float, float]
    radius: float
    a0: float
    a1: float

    @property
    def length(self) -> float:
        return abs(self.a1 - self.a0) * self.radius

    def point_at(self, s: np.ndarray) -> np.ndarray:
        theta = self.a0 + (self.a1 - self.a0) * (s / self.length)
        return np.column_stack(
            [self.center[0] + self.radius * np.cos(theta),
             self.center[1] + self.radius * np.sin(theta)]
        )


@dataclass(frozen=True)
class _Segment:
    p0: tuple[float, float]
    p1: tuple[float, float]

    @property
    def length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    def point_at(self, s: np.ndarray) -> np.ndarray:
        t = s / self.length
        return np.column_stack(
            [self.p0[0] + (self.p1[0] - self.p0[0]) * t,
             self.p0[1] + (self.p1[1] - self.p0[1]) * t]
        )


class _Graph:
    """Curve y = f(x) over [x0, x1] (f vectorized); arc length inverted via a
    dense table."""

    _TABLE = 4096

    def __init__(self, f, x0: float, x1: float):
        self.f = f
        xs = np.linspace(x0, x1, self._TABLE + 1)
        ys = f(xs)
        seg = np.hypot(np.diff(xs), np.diff(ys))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._xs = xs
        self._cum = cum
        self.length = float(cum[-1])

    def point_at(self, s: np.ndarray) -> np.ndarray:
        x = np.interp(s, self._cum, self._xs)
        return np.column_stack([x, self.f(x)])


class ShapeGeometry:
    """A shape: labeled curve pieces plus the affine map into [0, 1]^2."""

    def __init__(self, pieces: list[tuple[int, object]], lo: tuple[float, float],
                 hi: tuple[float, float]):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self._by_class: dict[int, tuple[list, np.ndarray]] = {}
        for label in (0, 1):
            ps = [p for (lab, p) in pieces if lab == label]
            lengths = np.array([p.length for p in ps])
            self._by_class[label] = (ps, np.concatenate([[0.0], np.cumsum(lengths)]))

    def sample_class(self, label: int, u: np.ndarray) -> np.ndarray:
        """Points at arc-length fractions u in [0, 1) of the class's curves, in
        unit coords; shape (len(u), 2)."""
        ps, cum = self._by_class[label]
        s = np.asarray(u, dtype=np.float64) * cum[-1]
        k = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(ps) - 1)
        raw = np.empty((s.shape[0], 2))
        for j, piece in enumerate(ps):
            on = k == j
            raw[on] = piece.point_at(s[on] - cum[j])
        return (raw - self.lo) / (self.hi - self.lo)

    def sample_alternating(self, u: np.ndarray) -> np.ndarray:
        """Point i on class i % 2's curves at arc-length fraction u[i]."""
        out = np.empty((len(u), 2))
        for label in (0, 1):
            out[label::2] = self.sample_class(label, u[label::2])
        return out

    def class_support(self, label: int, m: int) -> np.ndarray:
        """m points evenly spaced in arc length along the class's curves (unit coords)."""
        check_range("m", m, "[1, inf) int")
        return self.sample_class(label, (np.arange(m) + 0.5) / m)


def _build_sines() -> ShapeGeometry:
    pieces = [
        (0, _Graph(lambda x: 0.5 * np.sin(2 * math.pi * x), 0.0, 2.0)),
        (1, _Graph(lambda x: 0.5 * np.sin(2 * math.pi * x) + 0.6, 0.0, 2.0)),
    ]
    return ShapeGeometry(pieces, lo=(0.0, -0.5), hi=(2.0, 1.1))


def _build_sfigure() -> ShapeGeometry:
    # Two interleaved chains of unit half-circles (an S per class), the second
    # chain offset by (1, 0.4).
    pieces = [
        (0, _Arc((0.0, 0.0), 1.0, 0.0, math.pi)),
        (0, _Arc((2.0, 0.0), 1.0, math.pi, 2 * math.pi)),
        (1, _Arc((1.0, 0.4), 1.0, 0.0, math.pi)),
        (1, _Arc((3.0, 0.4), 1.0, math.pi, 2 * math.pi)),
    ]
    return ShapeGeometry(pieces, lo=(-1.0, -1.0), hi=(4.0, 1.4))


def _build_nnn() -> ShapeGeometry:
    # Three "N" strokes of width 0.5 and height 1, gap 0.3, alternating labels.
    w, gap = 0.5, 0.3
    pieces = []
    for k, label in enumerate((0, 1, 0)):
        x = k * (w + gap)
        pieces += [
            (label, _Segment((x, 0.0), (x, 1.0))),
            (label, _Segment((x, 1.0), (x + w, 0.0))),
            (label, _Segment((x + w, 0.0), (x + w, 1.0))),
        ]
    return ShapeGeometry(pieces, lo=(0.0, 0.0), hi=(2 * (w + gap) + w, 1.0))


def _build_circles() -> ShapeGeometry:
    pieces = [
        (0, _Arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi)),
        (1, _Arc((0.0, 0.0), 2.0, 0.0, 2 * math.pi)),
    ]
    return ShapeGeometry(pieces, lo=(-2.0, -2.0), hi=(2.0, 2.0))


def _build_boxes() -> ShapeGeometry:
    def square(half: float, label: int):
        c = [(-half, -half), (half, -half), (half, half), (-half, half)]
        return [(label, _Segment(c[i], c[(i + 1) % 4])) for i in range(4)]

    pieces = square(0.5, 0) + square(1.0, 1)
    return ShapeGeometry(pieces, lo=(-1.0, -1.0), hi=(1.0, 1.0))


_BUILDERS = {
    "sines": _build_sines,
    "sfigure": _build_sfigure,
    "nnn": _build_nnn,
    "circles": _build_circles,
    "boxes": _build_boxes,
}
SHAPE_NAMES = tuple(_BUILDERS)


@functools.cache
def shape_geometry(name: str) -> ShapeGeometry:
    if name not in _BUILDERS:
        raise ValueError(f"unknown shape {name!r}; expected one of {SHAPE_NAMES}")
    return _BUILDERS[name]()


def generate(spec: ShapeSpec) -> LabeledDataset:
    """Sample a shape dataset in [0, 1]^2; point i carries class i % 2 (before noise)."""
    geom = shape_geometry(spec.shape)
    stream = RandomStream(spec.seed)
    points = geom.sample_alternating(stream.uniform(spec.n))
    labels = np.arange(spec.n, dtype=np.int64) % 2
    if spec.label_noise > 0.0:
        flips = stream.uniform(spec.n) < spec.label_noise
        labels = np.where(flips, 1 - labels, labels)
    return LabeledDataset(points, labels)


def manifold_sampler(name: str):
    """Domain sampler over a shape's marginal: sampler(stream, count) -> (count, 2)."""
    geom = shape_geometry(name)

    def sampler(stream: RandomStream, count: int) -> np.ndarray:
        check_range("count", count, "[0, inf) int")
        return geom.sample_alternating(stream.uniform(count))

    return sampler


def split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic shuffled split; train size = round(train_fraction * n)."""
    k = round(spec.train_fraction * ds.n)
    if not 0 < k < ds.n:
        raise ValueError(f"split of {ds.n} points at {spec.train_fraction} leaves a side empty")
    perm = RandomStream(spec.seed).permutation(ds.n)
    return ds.subset(perm[:k]), ds.subset(perm[k:])


# ---------------------------------------------------------------------------
# CSV schema: header x1,...,xd,label (optional trailing `origin` column for
# augmented data, -1 for a retained original), integer labels, UTF-8, LF endings.


def csv_lines(ds: LabeledDataset, origins: np.ndarray | None = None) -> list[str]:
    d = ds.dim
    header = ",".join(f"x{j + 1}" for j in range(d)) + ",label"
    if origins is not None:
        header += ",origin"
    lines = [header]
    for i in range(ds.n):
        row = ",".join(repr(float(v)) for v in ds.points[i]) + f",{int(ds.labels[i])}"
        if origins is not None:
            row += f",{int(origins[i])}"
        lines.append(row)
    return lines


def load_csv(path) -> LabeledDataset:
    """Read the dataset CSV schema; a malformed file raises ValueError naming
    `path` and, for a bad row, its number."""
    lines = [ln for ln in read_text_lines(path) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    has_origin = header[-1] == "origin"
    cols = header[:-1] if has_origin else header
    if len(cols) < 2 or cols[-1] != "label" or cols[:-1] != [f"x{j + 1}" for j in range(len(cols) - 1)]:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    d = len(cols) - 1
    width = d + 1 + (1 if has_origin else 0)
    points, labels = [], []
    for rownum, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: row {rownum}: expected {width} fields, got {len(parts)}")
        try:
            feats = [float(v) for v in parts[:d]]
        except ValueError as exc:
            raise ValueError(f"{path}: row {rownum}: bad feature value ({exc})") from None
        if any(math.isnan(v) or math.isinf(v) for v in feats):
            raise ValueError(f"{path}: row {rownum}: non-finite feature")
        try:
            label = int(parts[d])
        except ValueError:
            raise ValueError(f"{path}: row {rownum}: non-integer label {parts[d]!r}") from None
        if not 0 <= label < 2**63:  # labels are int64
            raise ValueError(f"{path}: row {rownum}: label {label} outside [0, 2**63)")
        if has_origin and not re.fullmatch(r"-1|[0-9]+", parts[-1].strip()):
            raise ValueError(f"{path}: row {rownum}: origin {parts[-1]!r} is not an integer >= -1")
        points.append(feats)
        labels.append(label)
    if not points:
        raise ValueError(f"{path}: no data rows")
    try:
        return LabeledDataset(points, labels)
    except ValueError as exc:  # a rule on the whole set, such as the overflow rule
        raise ValueError(f"{path}: {exc}") from None
