import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from adaptrobust.core import LabeledDataset, RandomStream, write_text_lines
from adaptrobust.datagen import SHAPE_NAMES, ShapeSpec, generate
from adaptrobust.mlp import (
    MlpClassifier,
    MlpModel,
    TrainSpec,
    bce_loss,
    forward_batch,
    grad,
    init,
    load_model,
    model_lines,
    train,
)


def fd_gradient(model, batch, step=1e-5):
    """Central finite differences of the batch loss, coordinate by coordinate."""
    vec = model.params
    out = np.empty_like(vec)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += step
        down[i] -= step
        out[i] = (bce_loss(MlpModel(up, model.dim, model.widths), batch)
                  - bce_loss(MlpModel(down, model.dim, model.widths), batch)) / (2 * step)
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
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, init(2, seed=5).params)


def test_init_parameter_count_d2():
    # 2*10+10 + 10*10+10 + 10*1+1 = 151
    assert init(2, seed=0).params.size == 151


def test_init_biases_zero_weights_bounded():
    L = init(3, seed=1).layers
    assert np.all(L.b1 == 0.0) and np.all(L.b2 == 0.0) and np.all(L.b3 == 0.0)
    assert np.abs(L.w1).max() <= 1.0 / math.sqrt(3)
    assert np.abs(L.w2).max() <= 1.0 / math.sqrt(10)


# --- forward -------------------------------------------------------------------

def test_all_zero_weights_give_half():
    m = MlpModel(np.zeros(151), 2, (10, 10))
    assert forward_batch(m, [[0.3, 0.9]]).tolist() == [0.5]


def test_model_copies_its_vector_and_checks_its_length():
    vec = np.zeros(151)
    m = MlpModel(vec, 2, (10, 10))
    vec[-1] = 40.0
    assert m.params[-1] == 0.0 and m.layers.b3[0] == 0.0
    with pytest.raises(ValueError, match="wrong length"):
        MlpModel(np.zeros(150), 2, (10, 10))


def test_hand_computed_single_unit_network():
    # w1, b1, w2, b2, w3, b3
    m = MlpModel(np.array([0.5, 0.2, -0.3, 0.1, 0.7, -0.05]), 1, (1, 1))
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
    m = MlpModel(np.r_[np.zeros(150), 40.0], 2, (10, 10))
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
    assert np.array_equal(out.params, model.params)


def test_training_bitwise_deterministic():
    data = two_blobs(np.random.default_rng(15))
    spec = TrainSpec(epochs=30, batch_size=16, learning_rate=0.1, seed=16)
    m1 = train(init(2, seed=17), data, spec)
    m2 = train(init(2, seed=17), data, spec)
    assert np.array_equal(m1.params, m2.params)


def reference_training_curve(model, data, spec):
    """The plain loop the in-place training path must reproduce: rebuild the
    model and the batch at every step, allocate a new parameter vector."""
    stream = RandomStream(spec.seed)
    params, history = model.params, []
    for _ in range(spec.epochs):
        perm = stream.permutation(data.n)
        for start in range(0, data.n, spec.batch_size):
            batch = data.subset(perm[start:start + spec.batch_size])
            step = grad(MlpModel(params, model.dim, model.widths), batch)
            params = params - spec.learning_rate * step
        history.append(bce_loss(MlpModel(params, model.dim, model.widths), data))
    return params, history


def stack(sets):
    """The rows of `sets` in order, as `train` takes a stack's training sets."""
    return LabeledDataset(np.concatenate([s.points for s in sets]),
                          np.concatenate([s.labels for s in sets]))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("epochs", [0, 1, 7])
@pytest.mark.parametrize("batch_size", [16, 64], ids=["short-last-batch", "batch-over-n"])
def test_training_matches_reference_loop_bit_for_bit(d, epochs, batch_size):
    # one network, then stacks of K = 1, 2, 3 with their own inits, seeds and
    # labels: each network gets the bits of the reference loop run on it alone
    rng = np.random.default_rng(d)
    sets = [LabeledDataset(rng.random((45, d)), rng.integers(0, 2, 45))  # 45 = 2*16 + 13
            for _ in range(3)]
    models = [init(d, seed=30 + d + 10 * k) for k in range(3)]
    specs = [TrainSpec(epochs=epochs, batch_size=batch_size, learning_rate=0.5,
                       seed=40 + d + 10 * k) for k in range(3)]
    want = [reference_training_curve(*args) for args in zip(models, sets, specs)]
    model, data, spec = models[0], sets[0], specs[0]
    assert np.array_equal(train(model, data, spec).params, want[0][0])
    history = [bce_loss(train(model, data, replace(spec, epochs=k)), data)
               for k in range(1, epochs + 1)]
    assert history == want[0][1]
    for K in (1, 2, 3):
        stacked = stack(sets[:K])
        rows, labels = stacked.points.copy(), stacked.labels.copy()
        out = train(tuple(models[:K]), stacked,
                    replace(spec, seed=tuple(sp.seed for sp in specs[:K])))
        assert isinstance(out, tuple) and len(out) == K
        assert all(np.array_equal(m.params, w[0]) for m, w in zip(out, want))
        assert np.array_equal(stacked.points, rows) and np.array_equal(stacked.labels, labels)
    for k, m in enumerate(models):  # inputs untouched
        assert np.array_equal(m.params, init(d, seed=30 + d + 10 * k).params)


@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_training_loss_decreases_after_smoothing(shape):
    data = generate(ShapeSpec(shape, 300, seed=18))
    model = init(2, seed=19)
    spec = TrainSpec(epochs=80, batch_size=32, learning_rate=0.05, seed=20)
    _, history = reference_training_curve(model, data, spec)
    windows = [float(np.mean(history[i:i + 10])) for i in range(0, 80, 10)]
    for w1, w2 in zip(windows, windows[1:]):
        assert w2 <= w1 + 1e-3


def test_training_rejects_nonbinary_labels():
    data = LabeledDataset(np.random.default_rng(21).random((10, 2)),
                          np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]))
    with pytest.raises(ValueError, match="binary"):
        train(init(2, seed=22), data, TrainSpec(epochs=1))
    clean = LabeledDataset(data.points, np.zeros(10, dtype=int))
    with pytest.raises(ValueError, match="binary"):  # only the second network's labels are bad
        train((init(2, seed=22), init(2, seed=23)), stack([clean, data]),
              TrainSpec(epochs=1, seed=(0, 1)))


@pytest.mark.parametrize("models, seed, match", [
    (2, 0, "expected 2 seeds"),
    (2, (0, 1, 2), "expected 2 seeds"),
    (1, (0, 1), "expected 1 seeds"),
    (3, (0, 1, 2), "do not split into 3"),  # 10 rows
    (0, (), "do not split into 0"),
], ids=["int-seed", "extra-seed", "one-network", "uneven-rows", "no-network"])
def test_stacked_training_rejects_mismatched_stacks(models, seed, match):
    data = LabeledDataset(np.random.default_rng(24).random((10, 2)), np.arange(10) % 2)
    net = init(2, seed=25) if models == 1 else tuple(init(2, seed=k) for k in range(models))
    with pytest.raises(ValueError, match=match):
        train(net, data, TrainSpec(epochs=1, seed=seed))


def test_stacked_training_takes_64_bit_seeds_and_one_network_shape():
    TrainSpec(seed=(1, 2**63, 2**64 - 1))  # no numpy dtype holds all three
    with pytest.raises(ValueError, match="seed -1"):
        TrainSpec(seed=(1, -1))
    data = LabeledDataset(np.random.default_rng(26).random((4, 2)), [0, 1, 0, 1])
    with pytest.raises(ValueError, match="one shape"):
        train((init(2, seed=0), MlpModel(np.zeros(15), 2, (2, 2))), data,
              TrainSpec(epochs=1, seed=(0, 1)))


# --- classifier and persistence -------------------------------------------------------

def test_diverging_training_raises_without_numpy_warnings():
    # the extent is 0, so the set keeps the overflow rule, but 1e200 inputs
    # overflow the products of the first layer
    data = LabeledDataset(np.full((2, 2), 1e200), np.array([0, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            train(init(2, seed=0), data, TrainSpec(epochs=5))
    # in a stack, one diverging network (inputs in range, huge weights) is enough
    data = LabeledDataset(np.random.default_rng(27).random((4, 2)), [0, 1, 0, 1])
    huge = MlpModel(np.full(151, 1e200), 2, (10, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            train((init(2, seed=0), huge), data, TrainSpec(epochs=5, seed=(0, 1)))


def test_threshold_rule():
    m = MlpModel(np.zeros(151), 2, (10, 10))  # forward == 0.5 everywhere
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
    write_text_lines(path, model_lines(model))
    loaded = load_model(path)
    assert np.array_equal(loaded.params, model.params)
    assert (loaded.dim, loaded.widths) == (model.dim, model.widths)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not,a,model\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)
