import math

import numpy as np
import pytest

from adaptrobust.core import LabeledDataset, RandomStream
from adaptrobust.datagen import SHAPE_NAMES, ShapeSpec, generate
from adaptrobust.mlp import (
    MlpClassifier,
    MlpModel,
    TrainSpec,
    _epochs,
    bce_loss,
    forward_batch,
    grad,
    init,
    load_model,
    save_model,
    train,
)


def fd_gradient(model, batch, step=1e-5):
    """Central finite differences of the batch loss, coordinate by coordinate."""
    vec = model.flatten()
    out = np.empty_like(vec)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += step
        down[i] -= step
        out[i] = (bce_loss(model.from_flat(up), batch) - bce_loss(model.from_flat(down), batch)) / (2 * step)
    return out


def two_blobs(rng, n=200):
    a = rng.normal(size=(n // 2, 2)) * 0.05 + [0.2, 0.2]
    b = rng.normal(size=(n // 2, 2)) * 0.05 + [0.8, 0.8]
    pts = np.vstack([a, b])
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    return LabeledDataset(pts, labels)


# --- init ---------------------------------------------------------------------

def test_init_deterministic():
    a, b = init(2, seed=4), init(2, seed=4)
    assert np.array_equal(a.flatten(), b.flatten())
    assert not np.array_equal(a.flatten(), init(2, seed=5).flatten())


def test_init_parameter_count_d2():
    # 2*10+10 + 10*10+10 + 10*1+1 = 151
    assert init(2, seed=0).flatten().size == 151


def test_init_biases_zero_weights_bounded():
    m = init(3, seed=1)
    assert np.all(m.b1 == 0.0) and np.all(m.b2 == 0.0) and m.b3 == 0.0
    assert np.abs(m.w1).max() <= 1.0 / math.sqrt(3)
    assert np.abs(m.w2).max() <= 1.0 / math.sqrt(10)


# --- forward -------------------------------------------------------------------

def test_all_zero_weights_give_half():
    m = MlpModel(np.zeros((2, 10)), np.zeros(10), np.zeros((10, 10)), np.zeros(10),
                 np.zeros(10), 0.0)
    assert forward_batch(m, [[0.3, 0.9]]).tolist() == [0.5]


def test_hand_computed_single_unit_network():
    m = MlpModel(
        w1=np.array([[0.5]]), b1=np.array([0.2]),
        w2=np.array([[-0.3]]), b2=np.array([0.1]),
        w3=np.array([0.7]), b3=-0.05,
    )
    # manual pass: z1 = 0.5*0.8 + 0.2 = 0.6; a1 = 0.6; z2 = -0.08; a2 = 0;
    # o = -0.05; p = 1 / (1 + e^0.05)
    want = 1.0 / (1.0 + math.exp(0.05))
    assert forward_batch(m, [[0.8]])[0] == pytest.approx(want, abs=1e-12)


def test_forward_in_open_unit_interval():
    rng = np.random.default_rng(2)
    m = init(4, seed=3)
    p = forward_batch(m, rng.normal(size=(200, 4)))
    assert np.all((0.0 < p) & (p < 1.0))


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_batch(init(2, seed=0), [[1.0, 2.0, 3.0]])


# --- gradient -------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(5):
        model = init(2, seed=trial)
        batch = LabeledDataset(rng.random((8, 2)), rng.integers(0, 2, 8))
        g = grad(model, batch)
        fd = fd_gradient(model, batch)
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-8)
        assert rel.max() < 1e-4


def test_saturated_correct_predictions_have_tiny_gradient():
    m = MlpModel(np.zeros((2, 10)), np.zeros(10), np.zeros((10, 10)), np.zeros(10),
                 np.zeros(10), 40.0)
    batch = LabeledDataset(np.random.default_rng(6).random((16, 2)), np.ones(16, dtype=int))
    assert np.linalg.norm(grad(m, batch)) < 1e-6


def test_duplicated_batch_gradient_unchanged():
    rng = np.random.default_rng(7)
    model = init(2, seed=8)
    batch = LabeledDataset(rng.random((10, 2)), rng.integers(0, 2, 10))
    doubled = LabeledDataset(np.vstack([batch.points, batch.points]),
                             np.concatenate([batch.labels, batch.labels]))
    assert np.allclose(grad(model, batch), grad(model, doubled), atol=1e-12)


# --- training --------------------------------------------------------------------

def test_training_fits_separated_blobs():
    rng = np.random.default_rng(9)
    data = two_blobs(rng)
    model = train(init(2, seed=10), data, TrainSpec(epochs=200, batch_size=32,
                                                    learning_rate=0.05, seed=11))
    h = MlpClassifier(model)
    errs = np.mean(h.predict_batch(data.points) != data.labels)
    assert errs < 0.02


def test_zero_epochs_is_a_noop():
    model = init(2, seed=12)
    data = two_blobs(np.random.default_rng(13))
    out = train(model, data, TrainSpec(epochs=0, seed=14))
    assert np.array_equal(out.flatten(), model.flatten())


def test_training_bitwise_deterministic():
    data = two_blobs(np.random.default_rng(15))
    spec = TrainSpec(epochs=30, batch_size=16, learning_rate=0.1, seed=16)
    m1 = train(init(2, seed=17), data, spec)
    m2 = train(init(2, seed=17), data, spec)
    assert np.array_equal(m1.flatten(), m2.flatten())


def reference_training_curve(model, data, spec):
    """The plain loop the in-place training path must reproduce: rebuild the
    model and the batch at every step, allocate a new parameter vector."""
    stream = RandomStream(spec.seed)
    params, history = model.flatten(), []
    for _ in range(spec.epochs):
        perm = stream.permutation(data.n)
        for start in range(0, data.n, spec.batch_size):
            batch = data.subset(perm[start:start + spec.batch_size])
            params = params - spec.learning_rate * grad(model.from_flat(params), batch)
        history.append(bce_loss(model.from_flat(params), data))
    return params, history


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("epochs", [0, 1, 7])
@pytest.mark.parametrize("batch_size", [16, 64], ids=["short-last-batch", "batch-over-n"])
def test_training_matches_reference_loop_bit_for_bit(d, epochs, batch_size):
    rng = np.random.default_rng(d)
    data = LabeledDataset(rng.random((45, d)), rng.integers(0, 2, 45))  # 45 = 2*16 + 13
    model = init(d, seed=30 + d)
    spec = TrainSpec(epochs=epochs, batch_size=batch_size, learning_rate=0.5, seed=40 + d)
    want_params, want_history = reference_training_curve(model, data, spec)
    assert np.array_equal(train(model, data, spec).flatten(), want_params)
    history = [bce_loss(model.from_flat(p), data) for p in _epochs(model, data, spec)]
    assert history == want_history
    assert np.array_equal(model.flatten(), init(d, seed=30 + d).flatten())  # input untouched


@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_training_loss_decreases_after_smoothing(shape):
    data = generate(ShapeSpec(shape, 300, seed=18))
    model = init(2, seed=19)
    spec = TrainSpec(epochs=80, batch_size=32, learning_rate=0.05, seed=20)
    history = [bce_loss(model.from_flat(p), data) for p in _epochs(model, data, spec)]
    windows = [float(np.mean(history[i:i + 10])) for i in range(0, 80, 10)]
    for w1, w2 in zip(windows, windows[1:]):
        assert w2 <= w1 + 1e-3


def test_training_rejects_nonbinary_labels():
    data = LabeledDataset(np.random.default_rng(21).random((10, 2)),
                          np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]))
    with pytest.raises(ValueError, match="binary"):
        train(init(2, seed=22), data, TrainSpec(epochs=1))


# --- classifier and persistence -------------------------------------------------------

def test_threshold_rule():
    m = MlpModel(np.zeros((2, 10)), np.zeros(10), np.zeros((10, 10)), np.zeros(10),
                 np.zeros(10), 0.0)  # forward == 0.5 everywhere
    assert MlpClassifier(m).predict([0.0, 0.0]) == 1  # p >= 0.5


def test_classifier_batch_matches_single():
    m = init(2, seed=23)
    h = MlpClassifier(m)
    X = np.random.default_rng(24).random((50, 2))
    assert np.array_equal(h.predict_batch(X), [h.predict(x) for x in X])


def test_save_load_roundtrip(tmp_path):
    data = two_blobs(np.random.default_rng(25))
    model = train(init(2, seed=26), data, TrainSpec(epochs=20, seed=27))
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.flatten(), model.flatten())
    assert (loaded.dim, loaded.widths) == (model.dim, model.widths)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not,a,model\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)
