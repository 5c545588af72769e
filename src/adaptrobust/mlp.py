"""A small fully connected ReLU network (d -> h1 -> h2 -> 1, sigmoid output)
trained with plain mini-batch gradient descent on binary cross-entropy.

Everything is float64 numpy and deterministic under a fixed seed; gradients
are exact backpropagation (validated against finite differences in the test
suite).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BatchFirst, LabeledDataset, RandomStream, as_point


@dataclass(frozen=True, eq=False)
class MlpModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float

    @property
    def dim(self) -> int:
        return self.w1.shape[0]

    @property
    def widths(self) -> tuple[int, int]:
        return self.w1.shape[1], self.w2.shape[1]

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2, self.w3, [self.b3]]
        )

    def from_flat(self, vec: np.ndarray) -> "MlpModel":
        d, (h1, h2) = self.dim, self.widths
        sizes = [d * h1, h1, h1 * h2, h2, h2, 1]
        if vec.shape != (sum(sizes),):
            raise ValueError("parameter vector has the wrong length")
        parts = np.split(np.asarray(vec, dtype=np.float64), np.cumsum(sizes)[:-1])
        return MlpModel(
            parts[0].reshape(d, h1), parts[1].copy(),
            parts[2].reshape(h1, h2), parts[3].copy(),
            parts[4].copy(), float(parts[5][0]),
        )


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1 or self.learning_rate <= 0.0:
            raise ValueError("batch size and learning rate must be positive")


def init(d: int, seed: int, h1: int = 10, h2: int = 10) -> MlpModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    stream = RandomStream(seed)

    def layer(fan_in, fan_out):
        a = 1.0 / math.sqrt(fan_in)
        return (stream.uniform((fan_in, fan_out)) * 2.0 - 1.0) * a

    return MlpModel(
        w1=layer(d, h1), b1=np.zeros(h1),
        w2=layer(h1, h2), b2=np.zeros(h2),
        w3=layer(h2, 1).ravel(), b3=0.0,
    )


def _sigmoid(o: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * o))


def _logits(model: MlpModel, X: np.ndarray):
    z1 = X @ model.w1 + model.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ model.w2 + model.b2
    a2 = np.maximum(z2, 0.0)
    o = a2 @ model.w3 + model.b3
    return z1, a1, z2, a2, o


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"expected inputs of dimension {model.dim}")
    return _sigmoid(_logits(model, X)[4])


def forward(model: MlpModel, x) -> float:
    """Network output in (0, 1) for a single point."""
    return float(forward_batch(model, as_point(x)[None, :])[0])


def bce_loss(model: MlpModel, data: LabeledDataset) -> float:
    """Mean binary cross-entropy, computed in the numerically stable logit form."""
    o = _logits(model, data.points)[4]
    y = data.labels.astype(np.float64)
    return float(np.mean(np.logaddexp(0.0, o) - y * o))


def grad(model: MlpModel, batch: LabeledDataset) -> np.ndarray:
    """Gradient of mean BCE over the batch, flattened in `MlpModel.flatten` order."""
    if batch.n == 0:
        raise ValueError("gradient needs a nonempty batch")
    X = batch.points
    y = batch.labels.astype(np.float64)
    z1, a1, z2, a2, o = _logits(model, X)
    delta = (_sigmoid(o) - y) / batch.n          # dL/do
    gw3 = a2.T @ delta
    gb3 = float(np.sum(delta))
    da2 = np.outer(delta, model.w3)
    dz2 = da2 * (z2 > 0.0)
    gw2 = a1.T @ dz2
    gb2 = np.sum(dz2, axis=0)
    da1 = dz2 @ model.w2.T
    dz1 = da1 * (z1 > 0.0)
    gw1 = X.T @ dz1
    gb1 = np.sum(dz1, axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2, gw3, [gb3]])


def training_curve(model: MlpModel, data: LabeledDataset,
                   spec: TrainSpec) -> tuple[MlpModel, list[float]]:
    """Mini-batch gradient descent; returns the final model and the full-data
    BCE recorded after every epoch."""
    if data.n == 0:
        raise ValueError("cannot train on an empty dataset")
    if not set(np.unique(data.labels)) <= {0, 1}:
        raise ValueError("the network is binary; labels must be 0/1")
    stream = RandomStream(spec.seed)
    params = model.flatten()
    history = []
    for _ in range(spec.epochs):
        perm = stream.permutation(data.n)
        for start in range(0, data.n, spec.batch_size):
            idx = perm[start:start + spec.batch_size]
            cur = model.from_flat(params)
            params = params - spec.learning_rate * grad(cur, data.subset(idx))
        history.append(bce_loss(model.from_flat(params), data))
    return model.from_flat(params), history


def train(model: MlpModel, data: LabeledDataset, spec: TrainSpec) -> MlpModel:
    return training_curve(model, data, spec)[0]


@dataclass(frozen=True, eq=False)
class MlpClassifier(BatchFirst):
    """Thresholded network output as a Classifier: label 1 iff p >= threshold."""

    model: MlpModel
    threshold: float = 0.5

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return (forward_batch(self.model, X) >= self.threshold).astype(np.int64)


def as_classifier(model: MlpModel, threshold: float = 0.5) -> MlpClassifier:
    return MlpClassifier(model, threshold)


def save_model(model: MlpModel, path) -> None:
    """Flat text format: literal header, then d,h1,h2, then one parameter per
    line with 17 significant digits (lossless for float64)."""
    h1, h2 = model.widths
    lines = ["d,h1,h2", f"{model.dim},{h1},{h2}"]
    lines += [f"{v:.17g}" for v in model.flatten()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2 or lines[0] != "d,h1,h2":
        raise ValueError(f"{path}: not a model file")
    d, h1, h2 = (int(v) for v in lines[1].split(","))
    vec = np.array([float(v) for v in lines[2:]], dtype=np.float64)
    template = MlpModel(
        w1=np.zeros((d, h1)), b1=np.zeros(h1),
        w2=np.zeros((h1, h2)), b2=np.zeros(h2),
        w3=np.zeros(h2), b3=0.0,
    )
    return template.from_flat(vec)
