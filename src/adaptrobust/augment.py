"""Adaptive robust expansion, the uniform-ball sampler, and sampled data
augmentation.

Expansion replaces each sample with a constant-label open ball whose radius is
the expansion factor times the distance to the nearest differently-labeled
sample; augmentation draws points uniformly from those balls. A fixed-radius
variant (constant radius) supports parameter sweeps.
"""
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
        if self.fixed_radius is None and self.c < 0.0:
            raise ValueError("expansion factor c must be >= 0")
        if self.fixed_radius is not None and self.fixed_radius < 0.0:
            raise ValueError("fixed_radius must be >= 0")
        if self.m < 1:
            raise ValueError("need m >= 1 samples per ball")


def expand(S: LabeledDataset, c: float) -> np.ndarray:
    """c-adaptive expansion radii: ball i is centred on x_i, keeps label y_i and
    has radius c * rho_S(x_i, y_i)."""
    if S.n == 0:
        raise ValueError("cannot expand an empty dataset")
    if c < 0.0:
        raise ValueError("expansion factor must be >= 0")
    return c * rho_all(S)


def sample_ball_uniform(centers, radii, stream: RandomStream) -> np.ndarray:
    """Uniform draws from the balls around `centers` (shape (..., d)), with
    `radii` broadcast over the leading axes: a normalized Gaussian direction
    scaled by radius * U^(1/d) per draw. All Gaussians are drawn before all
    uniforms, so the draws depend only on the stream and the leading shape."""
    centers = np.asarray(centers, dtype=np.float64)
    lead, d = centers.shape[:-1], centers.shape[-1]
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), lead)
    if np.any(radii < 0.0):
        raise ValueError("radius must be >= 0")
    draws = stream.normal(lead + (d,))
    norms = np.sqrt(np.sum(draws**2, axis=-1, keepdims=True))
    norms[norms == 0.0] = 1.0
    draws /= norms
    draws *= stream.uniform(lead)[..., None] ** (1.0 / d)
    draws *= radii[..., None]
    draws += centers
    return draws


def point_offsets(stream: RandomStream, n: int, k: int, d: int) -> np.ndarray:
    """(n, k, d) uniform draws from the unit ball around the origin; item i
    draws from the child stream keyed by i, so its offsets do not depend on
    the other items."""
    origin = np.zeros((k, d))
    return np.stack([sample_ball_uniform(origin, 1.0, stream.child(i)) for i in range(n)])


def augment(S: LabeledDataset, spec: ExpansionSpec) -> tuple[LabeledDataset, np.ndarray]:
    """m-sample augmentation of S: m uniform draws from each expansion ball,
    each labeled by its origin. Returns the augmented dataset plus an origin
    index per row (-1 marks retained originals, which come first). Row j of
    ball i is x_i + r_i * point_offsets(...)[i, j], so ball i's rows do not
    depend on the others."""
    if S.n == 0:
        raise ValueError("cannot augment an empty dataset")
    if spec.fixed_radius is not None:
        radii = np.full(S.n, spec.fixed_radius)
    else:
        radii = expand(S, spec.c)
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
