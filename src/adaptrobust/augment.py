"""Adaptive robust expansion, the unit-ball primitive and sampled augmentation.
Expansion makes each sample a constant-label open ball whose radius is c times
its distance to the nearest differently-labeled sample (or a constant, for
parameter sweeps); augmentation draws points uniformly from those balls."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, RandomStream, check_range, row_reduce
from .neighbors import rho_all


@dataclass(frozen=True)
class ExpansionSpec:
    """Parameters for sampled augmentation: exactly one radius rule is given,
    `c` (adaptive, radius = c * rho) or `fixed_radius` (a constant)."""

    c: float | None = None
    m: int = 1
    include_originals: bool = True
    seed: int = 0
    fixed_radius: float | None = None

    def __post_init__(self):
        if (self.c is None) == (self.fixed_radius is None):
            raise ValueError("give exactly one of c and fixed_radius")
        if self.c is not None:
            check_range("c", self.c, "[0, inf)")
        if self.fixed_radius is not None:
            check_range("fixed_radius", self.fixed_radius, "[0, inf)")
        check_range("m", self.m, "[1, inf) int")
        check_range("seed", self.seed, "[0, inf) int")


def expand(S: LabeledDataset, c: float) -> np.ndarray:
    """c-adaptive expansion radii: ball i is centred on x_i, keeps label y_i and
    has radius c * rho_S(x_i, y_i)."""
    check_range("c", c, "[0, inf)")
    return adaptive_radii("c", c, rho_all(S))


def adaptive_radii(name: str, factor: float, dists: np.ndarray) -> np.ndarray:
    """The adaptive radius rule, factor * dists. Radii that leave the float
    range raise ValueError naming the parameter `name`, without numpy's
    overflow warning: the squared distances of their balls overflow too."""
    with np.errstate(over="ignore"):
        radii = factor * dists
    if not np.all(np.isfinite(radii)):
        raise ValueError(f"{name} {factor!r}: the points are too far apart: "
                         "squared distances overflow")
    return radii


def unit_ball(gauss, u) -> np.ndarray:
    """The one ball primitive, in place on `gauss` (..., d): per draw, the unit
    direction times u^(1/d), uniform in the unit ball for normal `gauss`, uniform `u`."""
    norms = np.sqrt(row_reduce(np.add, gauss**2))[..., None]
    norms[norms == 0.0] = 1.0
    gauss /= norms
    gauss *= u[..., None] ** (1.0 / gauss.shape[-1])
    return gauss


def point_offsets(stream: RandomStream, n: int, k: int, d: int) -> np.ndarray:
    """(n, k, d) uniform draws from the unit ball around the origin. Item i's
    child stream, keyed by i, makes only its draws (k Gaussian directions, then
    k uniforms) and one `unit_ball` call makes every offset, so item i's
    offsets do not depend on the other items."""
    gauss, u = np.empty((n, k, d)), np.empty((n, k))
    for i in range(n):
        item = stream.child(i)
        gauss[i], u[i] = item.normal((k, d)), item.uniform(k)
    return unit_ball(gauss, u)


def augment(S: LabeledDataset, spec: ExpansionSpec) -> tuple[LabeledDataset, np.ndarray]:
    """m-sample augmentation of S: m uniform draws from each expansion ball,
    each labeled by its origin. Returns the augmented dataset plus an origin
    index per row (-1 marks retained originals, which come first). Row j of
    ball i is x_i + r_i * point_offsets(...)[i, j], so ball i's rows do not
    depend on the others."""
    radii = np.full(S.n, spec.fixed_radius) if spec.fixed_radius is not None else expand(S, spec.c)
    offsets = point_offsets(RandomStream(spec.seed), S.n, spec.m, S.dim)
    rows = [(S.points[:, None, :] + radii[:, None, None] * offsets).reshape(-1, S.dim)]
    labels = [np.repeat(S.labels, spec.m)]
    origins = [np.repeat(np.arange(S.n), spec.m)]
    if spec.include_originals:
        rows.insert(0, S.points)
        labels.insert(0, S.labels)
        origins.insert(0, np.full(S.n, -1))
    try:
        out = LabeledDataset(np.concatenate(rows), np.concatenate(labels))
    except ValueError as exc:  # the radius rule made them, so name it
        rule = f"c {spec.c!r}" if spec.fixed_radius is None else f"fixed_radius {spec.fixed_radius!r}"
        raise ValueError(f"{rule}: {exc}") from None
    return out, np.concatenate(origins).astype(np.int64)
