"""Adaptive robust expansion, the uniform-ball sampler and sampled augmentation.
Expansion makes each sample a constant-label open ball whose radius is c times
its distance to the nearest differently-labeled sample (or a constant, for
parameter sweeps); augmentation draws points uniformly from those balls."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, RandomStream
from .neighbors import rho_all


@dataclass(frozen=True)
class ExpansionSpec:
    """Parameters for sampled augmentation.

    Exactly one of `c` (adaptive, radius = c * rho) and `fixed_radius` applies;
    setting fixed_radius overrides the adaptive rule with a constant.
    """

    c: float = 0.5
    m: int = 1
    include_originals: bool = True
    seed: int = 0
    fixed_radius: float | None = None

    def __post_init__(self):
        if self.fixed_radius is None and not self.c >= 0.0:
            raise ValueError("expansion factor c must be >= 0")
        if self.fixed_radius is not None and not self.fixed_radius >= 0.0:
            raise ValueError("fixed_radius must be >= 0")
        if self.m < 1:
            raise ValueError("need m >= 1 samples per ball")


def expand(S: LabeledDataset, c: float) -> np.ndarray:
    """c-adaptive expansion radii: ball i is centred on x_i, keeps label y_i and
    has radius c * rho_S(x_i, y_i)."""
    if not c >= 0.0:
        raise ValueError("expansion factor must be >= 0")
    return c * rho_all(S)


def sample_ball_uniform(centers, radii, stream: RandomStream) -> np.ndarray:
    """Uniform draws from the balls around `centers` (shape (..., d)), with
    `radii` broadcast over the leading axes. All Gaussians are drawn before all
    uniforms, so the draws depend only on the stream and the leading shape."""
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), centers.shape[:-1])
    if not np.all(radii >= 0.0):
        raise ValueError("radius must be >= 0")
    return centers + radii[..., None] * _unit_ball(stream.normal(centers.shape),
                                                   stream.uniform(radii.shape))


def _unit_ball(gauss, u) -> np.ndarray:
    """The one unit-ball transform, in place on `gauss` (..., d), elementwise
    per draw: the normalized Gaussian direction times u^(1/d)."""
    norms = np.sqrt(np.sum(gauss**2, axis=-1, keepdims=True))
    norms[norms == 0.0] = 1.0
    gauss /= norms
    gauss *= u[..., None] ** (1.0 / gauss.shape[-1])
    return gauss


def point_offsets(stream: RandomStream, n: int, k: int, d: int) -> np.ndarray:
    """(n, k, d) uniform draws from the unit ball around the origin. Item i's
    child stream, keyed by i, makes only its draws (k Gaussian directions, then
    k uniforms) and one unit-ball transform makes every offset, so item i's
    offsets do not depend on the other items."""
    gauss, u = np.empty((n, k, d)), np.empty((n, k))
    for i in range(n):
        item = stream.child(i)
        gauss[i], u[i] = item.normal((k, d)), item.uniform(k)
    return _unit_ball(gauss, u)


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
    out = LabeledDataset(np.concatenate(rows), np.concatenate(labels))
    return out, np.concatenate(origins).astype(np.int64)
