"""A small fully connected ReLU network (d -> h1 -> h2 -> 1, sigmoid output)
trained with plain mini-batch gradient descent on binary cross-entropy.

Everything is float64 numpy and deterministic under a fixed seed; gradients
are exact backpropagation (validated against finite differences in the test
suite).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import BatchFirst, LabeledDataset, RandomStream, check_range, read_text_lines

# Per-layer views of one flat parameter or gradient vector; b3 has shape (1,).
_Layers = namedtuple("_Layers", "w1 b1 w2 b2 w3 b3")


def _layers(vec: np.ndarray, d: int, h1: int, h2: int) -> _Layers:
    """Views of `vec` in w1, b1, w2, b2, w3, b3 order; writing a view writes `vec`."""
    sizes = [d * h1, h1, h1 * h2, h2, h2, 1]
    if vec.shape != (sum(sizes),):
        raise ValueError("parameter vector has the wrong length")
    w1, b1, w2, b2, w3, b3 = np.split(vec, np.cumsum(sizes)[:-1])
    return _Layers(w1.reshape(d, h1), b1, w2.reshape(h1, h2), b2, w3, b3)


@dataclass(frozen=True, eq=False)
class MlpModel:
    """A d -> h1 -> h2 -> 1 network as one flat parameter vector; `layers`
    are views of it."""

    params: np.ndarray
    dim: int
    widths: tuple[int, int]
    layers: _Layers = field(init=False, repr=False)

    def __post_init__(self):
        # Copy once, so in-place updates of the caller's vector cannot reach the model.
        params = np.array(self.params, dtype=np.float64)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "layers", _layers(params, self.dim, *self.widths))


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_range("epochs", self.epochs, "[0, inf) int")
        check_range("batch_size", self.batch_size, "[1, inf) int")
        check_range("learning_rate", self.learning_rate, "(0, inf)")
        check_range("seed", self.seed, "[0, inf) int")


def init(d: int, seed: int) -> MlpModel:
    """A d -> 10 -> 10 -> 1 network: Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
    weights, zero biases."""
    check_range("d", d, "[1, inf) int")
    stream = RandomStream(seed)

    def layer(fan_in, fan_out):
        a = 1.0 / math.sqrt(fan_in)
        return (stream.uniform((fan_in, fan_out)) * 2.0 - 1.0) * a

    return MlpModel(np.concatenate([layer(d, 10).ravel(), np.zeros(10), layer(10, 10).ravel(),
                                    np.zeros(10), layer(10, 1).ravel(), [0.0]]), d, (10, 10))


def _sigmoid(o: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * o))


def _logits(P: _Layers, X: np.ndarray):
    """Forward pass through the layer views `P`."""
    z1 = X @ P.w1 + P.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ P.w2 + P.b2
    a2 = np.maximum(z2, 0.0)
    o = a2 @ P.w3 + P.b3
    return z1, a1, z2, a2, o


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"expected inputs of dimension {model.dim}")
    return _sigmoid(_logits(model.layers, X)[4])


def bce_loss(model: MlpModel, data: LabeledDataset) -> float:
    """Mean binary cross-entropy, computed in the numerically stable logit form."""
    o = _logits(model.layers, data.points)[4]
    y = data.labels.astype(np.float64)
    return float(np.mean(np.logaddexp(0.0, o) - y * o))


def _backprop(G: _Layers, P: _Layers, X: np.ndarray, y: np.ndarray) -> None:
    """Gradient of mean BCE over the rows of X, written into the views `G`.
    `np.add.reduce` is `np.sum` without its Python wrapper: the same sums."""
    z1, a1, z2, a2, o = _logits(P, X)
    delta = (_sigmoid(o) - y) / X.shape[0]       # dL/do
    np.matmul(a2.T, delta, out=G.w3)
    G.b3[0] = np.add.reduce(delta)
    dz2 = delta[:, None] * P.w3
    dz2 *= z2 > 0.0
    np.matmul(a1.T, dz2, out=G.w2)
    np.add.reduce(dz2, axis=0, out=G.b2)
    dz1 = dz2 @ P.w2.T
    dz1 *= z1 > 0.0
    np.matmul(X.T, dz1, out=G.w1)
    np.add.reduce(dz1, axis=0, out=G.b1)


def grad(model: MlpModel, batch: LabeledDataset) -> np.ndarray:
    """Gradient of mean BCE over the batch, in `MlpModel.params` order."""
    out = np.empty_like(model.params)
    _backprop(_layers(out, model.dim, *model.widths), model.layers, batch.points,
              batch.labels.astype(np.float64))
    return out


def train(model: MlpModel, data: LabeledDataset, spec: TrainSpec) -> MlpModel:
    """Mini-batch gradient descent on one flat parameter vector, updated in
    place. Parameters that leave the float range raise ValueError."""
    if not set(np.unique(data.labels)) <= {0, 1}:
        raise ValueError("the network is binary; labels must be 0/1")
    params = model.params.copy()
    grads = np.empty_like(params)
    P, G = (_layers(v, model.dim, *model.widths) for v in (params, grads))
    X, y = data.points, data.labels.astype(np.float64)
    stream = RandomStream(spec.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        for _ in range(spec.epochs):
            perm = stream.permutation(data.n)
            for start in range(0, data.n, spec.batch_size):
                idx = perm[start:start + spec.batch_size]
                _backprop(G, P, X[idx], y[idx])
                params -= spec.learning_rate * grads
    if not np.all(np.isfinite(params)):
        raise ValueError("training diverged: the network's parameters are not finite")
    return MlpModel(params, model.dim, model.widths)


@dataclass(frozen=True, eq=False)
class MlpClassifier(BatchFirst):
    """Thresholded network output as a Classifier: label 1 iff p >= 0.5. The
    test is on the sigmoid output p, not on the sign of the logit: the two
    can round differently."""

    model: MlpModel

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return (forward_batch(self.model, X) >= 0.5).astype(np.int64)


def model_lines(model: MlpModel) -> list[str]:
    """The lines of the flat text format: literal header, then d,h1,h2, then
    one parameter per line with 17 significant digits (lossless for float64)."""
    h1, h2 = model.widths
    lines = ["d,h1,h2", f"{model.dim},{h1},{h2}"]
    lines += [f"{v:.17g}" for v in model.params]
    return lines


def load_model(path) -> MlpModel:
    """Read the `model_lines` format; a malformed file raises ValueError naming
    `path`."""
    lines = [ln.strip() for ln in read_text_lines(path) if ln.strip()]
    if len(lines) < 2 or lines[0] != "d,h1,h2":
        raise ValueError(f"{path}: not a model file (no d,h1,h2 header)")
    try:
        d, h1, h2 = (int(v) for v in lines[1].split(","))
        vec = np.array([float(v) for v in lines[2:]], dtype=np.float64)
        check_range("layer size", [d, h1, h2], "[1, inf) int")
        return MlpModel(vec, d, (h1, h2))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
