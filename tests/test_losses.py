import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust import mlp
from adaptrobust.augment import ExpansionSpec, augment, point_offsets
from adaptrobust.core import BatchFirst, LabeledDataset, RandomStream
from adaptrobust.datagen import ShapeSpec, generate, split, SplitSpec
from adaptrobust.losses import (
    adaptive_robust_empirical,
    adaptive_robust_testtime,
    binary_loss,
    disagreement_mass,
    probe_flags,
    robust_loss_fixed_grid,
)
from adaptrobust.margin import NearestSetClassifier
from adaptrobust.neighbors import NnClassifier, rho, rho_all
from adaptrobust.scenarios import TwoRectangles


class Pointwise(BatchFirst):
    """A classifier from a function of one point; the batch is a loop over rows."""

    def __init__(self, fn):
        self.fn = fn

    def predict_batch(self, X):
        return np.array([self.fn(x) for x in X], dtype=np.int64)


class RowCounter(BatchFirst):
    """`h`, counting the rows it classifies."""

    def __init__(self, h):
        self.h, self.rows = h, 0

    def predict_batch(self, X):
        self.rows += len(X)
        return self.h.predict_batch(X)


class BatchSensitive(BatchFirst):
    """Label 1 for every row of a batch of more than `size` rows, else 0, as a
    network whose logits round with the rows that share its batch; counts the
    rows it classifies."""

    def __init__(self, size):
        self.size, self.rows = size, 0

    def predict_batch(self, X):
        self.rows += len(X)
        return np.full(len(X), int(len(X) > self.size), dtype=np.int64)


CONST0 = Pointwise(lambda x: 0)
CONST1 = Pointwise(lambda x: 1)


def dataset(points, labels):
    return LabeledDataset(np.asarray(points, dtype=float), np.asarray(labels))


def random_dataset(rng, n, d):
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    return LabeledDataset(rng.random((n, d)), labels)


# --- binary ---------------------------------------------------------------------

def test_binary_perfect_predictor():
    D = dataset([[0.0], [1.0]], [0, 0])
    assert binary_loss(CONST0, D).value == 0.0


def test_binary_constant_on_balanced_data():
    D = dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
    assert binary_loss(CONST0, D).value == 0.5


def test_binary_matches_count_oracle():
    rng = np.random.default_rng(0)
    D = random_dataset(rng, 100, 2)
    h = Pointwise(lambda x: int(x[0] + x[1] > 1.0))
    wrong = sum(1 for i in range(D.n) if h.predict(D.points[i]) != D.labels[i])
    assert binary_loss(h, D).value == wrong / D.n


# --- fixed-radius robust -----------------------------------------------------------

def test_r0_equals_binary_exactly():
    rng = np.random.default_rng(1)
    D = random_dataset(rng, 80, 2)
    h = Pointwise(lambda x: int(x[0] > 0.5))
    rep = robust_loss_fixed_grid(h, D, [0.0], probes=50, stream=RandomStream(2))[0]
    assert rep.value == binary_loss(h, D).value


def test_fixed_loss_never_probes_a_radius_0_ball():
    # the open radius-0 ball is empty: probing x itself in a larger batch would
    # flip every row of a batch-sensitive classifier
    D = dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 0])
    h = BatchSensitive(D.n)
    assert binary_loss(h, D).value == 0.0
    h.rows = 0
    reps = robust_loss_fixed_grid(h, D, [0.0, 0.5], probes=10, stream=RandomStream(2))
    assert [rep.value for rep in reps] == [0.0, 1.0]
    assert h.rows == D.n + D.n * 10  # the labels, then one probe chunk per row at r = 0.5


def test_testtime_never_probes_a_zero_radius_ball():
    # the first test point lies on a reference point of another label: rho = 0
    ref = dataset([[0.0], [1.0]], [1, 0])
    T = dataset([[0.0], [1.0]], [0, 0])
    h = BatchSensitive(T.n)
    rep = adaptive_robust_testtime(h, T, ref, factor=0.5, probes=10, stream=RandomStream(3))
    assert rep.value == 0.5 and h.rows == T.n + 10


def test_two_close_points_with_large_radius_lose_everywhere():
    # both points sit within r of the other's label region, so any probe on the
    # segment flips them; the pointwise-correct threshold gets full robust loss
    D = dataset([[0.0], [0.5]], [0, 1])
    h = Pointwise(lambda x: int(x[0] >= 0.25))
    assert binary_loss(h, D).value == 0.0
    rep = robust_loss_fixed_grid(h, D, [1.0], probes=200, stream=RandomStream(3))[0]
    assert rep.value == 1.0


def test_threshold_probe_estimate_vs_analytic_margin():
    rng = np.random.default_rng(4)
    t, r = 0.5, 0.2
    pts = rng.random((400, 1))
    h = Pointwise(lambda x: int(x[0] >= t))
    labels = np.array([h.predict(p) for p in pts])  # pointwise-correct labels
    D = LabeledDataset(pts, labels)
    rep = robust_loss_fixed_grid(h, D, [r], probes=200, stream=RandomStream(5))[0]
    analytic = np.mean(np.abs(pts[:, 0] - t) < r)
    assert rep.value <= analytic + 1e-12  # probes never overestimate
    assert analytic - rep.value <= 0.01   # >= 99% per-point agreement


def test_fixed_dominates_binary_and_grid_is_monotone():
    rng = np.random.default_rng(6)
    D = random_dataset(rng, 150, 2)
    h = NnClassifier(random_dataset(rng, 60, 2))
    stream = RandomStream(7)
    reports = robust_loss_fixed_grid(h, D, [0.02, 0.05, 0.1, 0.2], probes=100, stream=stream)
    b = binary_loss(h, D).value
    values = [rep.value for rep in reports]
    assert all(v >= b for v in values)
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


def test_fixed_deterministic_given_seed():
    rng = np.random.default_rng(8)
    D = random_dataset(rng, 60, 3)
    h = NnClassifier(random_dataset(rng, 30, 3))
    r1 = robust_loss_fixed_grid(h, D, [0.1], probes=64, stream=RandomStream(9))[0].value
    r2 = robust_loss_fixed_grid(h, D, [0.1], probes=64, stream=RandomStream(9))[0].value
    assert r1 == r2


@pytest.mark.parametrize("radii", [[0.1, 0.1], [], [0.1, math.inf]],
                         ids=["repeated", "empty", "infinite"])
def test_fixed_grid_takes_the_one_radius_grid_rule(radii):
    # the margin profile's rule: a repeated radius would give a duplicate report
    D = dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError, match="^radius grid must be"):
        robust_loss_fixed_grid(CONST0, D, radii, stream=RandomStream(0))


@pytest.mark.parametrize("loss, name", [
    (lambda h, D, v: robust_loss_fixed_grid(h, D, [0.5, v], stream=RandomStream(0)), "r"),
    (lambda h, D, v: adaptive_robust_testtime(h, D, D, factor=v, stream=RandomStream(0)),
     "factor"),
    (lambda h, D, v: adaptive_robust_empirical(h, D, c=v, stream=RandomStream(0)), "c"),
], ids=["fixed", "testtime", "empirical"])
def test_probe_losses_refuse_a_radius_whose_probes_overflow(loss, name):
    # probes ~1e300 from the unit square have squared distances that overflow
    D = dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 0, 1, 1])
    with pytest.raises(ValueError, match=rf"^{name} 1e\+300: the points are too far apart"):
        loss(NnClassifier(D), D, 1e300)
    loss(NnClassifier(D), D, 1e100)  # far, but in range


# --- adaptive empirical ---------------------------------------------------------------

def test_nn_on_own_sample_has_zero_adaptive_loss_at_half():
    # open balls of radius rho/2 cannot reach a wrong 1-NN region
    rng = np.random.default_rng(10)
    for trial in range(50):
        d = int(rng.choice([1, 2, 5]))
        S = random_dataset(rng, int(rng.integers(5, 50)), d)
        h = NnClassifier(S)
        rep = adaptive_robust_empirical(h, S, c=0.5, probes=100,
                                        stream=RandomStream(int(rng.integers(1 << 30))))
        assert rep.value == 0.0


def test_constant_on_homogeneous_sample():
    S = dataset([[0.1, 0.1], [0.9, 0.9], [0.4, 0.6]], [1, 1, 1])
    rep = adaptive_robust_empirical(CONST1, S, c=0.5, probes=50, stream=RandomStream(11))
    assert rep.value == 0.0


def test_flip_inside_one_ball_counts_exactly_once():
    rng = np.random.default_rng(12)
    pts = np.column_stack([np.arange(10, dtype=float), np.zeros(10)])
    S = LabeledDataset(pts, np.arange(10) % 2)
    rhos = rho_all(S)
    nn = NnClassifier(S)
    target = 3

    def flipped(x):
        gap = np.sqrt(np.sum((x - pts[target]) ** 2))
        if 0.0 < gap < 0.5 * rhos[target]:
            return 1 - int(S.labels[target])
        return nn.predict(x)

    h = Pointwise(flipped)
    rep = adaptive_robust_empirical(h, S, c=0.5, probes=100, stream=RandomStream(13))
    assert rep.value == pytest.approx(1 / 10)


def test_adaptive_empirical_dominates_binary():
    rng = np.random.default_rng(14)
    S = random_dataset(rng, 100, 2)
    h = NnClassifier(random_dataset(rng, 40, 2))
    b = binary_loss(h, S).value
    for c in (0.25, 0.5, 1.0, 2.0):
        assert adaptive_robust_empirical(h, S, c=c, probes=50, stream=RandomStream(15)).value >= b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), st.floats(0.01, 3.0))
def test_fixed_grid_is_monotone_and_losses_dominate_binary(seed, d, radii, c):
    rng = np.random.default_rng(seed)
    S = random_dataset(rng, 30, d)
    h = NnClassifier(random_dataset(rng, 12, d))
    b = binary_loss(h, S).value
    reports = robust_loss_fixed_grid(h, S, sorted(set(radii)), probes=8, stream=RandomStream(seed))
    values = [rep.value for rep in reports]
    assert values[0] >= b and values == sorted(values)
    assert adaptive_robust_empirical(h, S, c=c, probes=8, stream=RandomStream(seed)).value >= b


def test_adaptive_empirical_rejects_bad_args():
    S = dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError):
        adaptive_robust_empirical(CONST0, S, c=0.0, stream=RandomStream(0))
    with pytest.raises(ValueError):
        adaptive_robust_empirical(CONST0, S, c=0.5, probes=0, stream=RandomStream(0))


# --- adaptive test-time ------------------------------------------------------------------

def test_testtime_zero_for_widely_margined_predictor():
    ref = dataset([[0.0, 0.0], [10.0, 0.0]], [0, 1])
    test = dataset([[0.5, 0.0], [9.5, 0.0]], [0, 1])
    h = NearestSetClassifier(np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]]))
    rep = adaptive_robust_testtime(h, test, ref, factor=0.5, probes=10, stream=RandomStream(16))
    assert rep.value == 0.0


def test_testtime_dominates_binary():
    rng = np.random.default_rng(17)
    ref = random_dataset(rng, 50, 2)
    test = random_dataset(rng, 100, 2)
    h = NnClassifier(ref)
    b = binary_loss(h, test).value
    rep = adaptive_robust_testtime(h, test, ref, stream=RandomStream(18))
    assert rep.value >= b > 0.0


def test_testtime_single_class_ref_errors():
    ref = dataset([[0.0], [1.0]], [0, 0])
    test = dataset([[0.5]], [0])
    with pytest.raises(ValueError, match="two classes"):
        adaptive_robust_testtime(CONST0, test, ref, stream=RandomStream(0))


def test_testtime_rejects_a_nonpositive_factor():
    S = dataset([[0.0], [1.0]], [0, 1])
    for factor in (0.0, -0.5):
        with pytest.raises(ValueError, match="factor"):
            adaptive_robust_testtime(CONST0, S, S, factor=factor, stream=RandomStream(0))


def test_testtime_estimator_stability_across_probe_seeds():
    ds = generate(ShapeSpec("circles", 1250, seed=19))
    train, test = split(ds, SplitSpec(0.8, seed=20))
    h = NnClassifier(train)
    r1 = adaptive_robust_testtime(h, test, train, stream=RandomStream(21)).value
    r2 = adaptive_robust_testtime(h, test, train, stream=RandomStream(22)).value
    assert abs(r1 - r2) < 0.02


# --- disagreement ----------------------------------------------------------------------

def uniform_square_sampler(stream, n):
    return stream.uniform((n, 2))


def test_disagreement_identical_functions():
    assert disagreement_mass(CONST0, CONST0, uniform_square_sampler, 1000, RandomStream(23)) == 0.0


def test_disagreement_complementary_constants():
    assert disagreement_mass(CONST0, CONST1, uniform_square_sampler, 1000, RandomStream(24)) == 1.0


def test_disagreement_two_rectangles_half():
    sc = TwoRectangles(0.2)
    est = disagreement_mass(sc.bayes, sc.robust_bayes, sc.sampler, 100_000, RandomStream(25))
    assert abs(est - 0.5) < 0.01


def test_report_csv_row_fields():
    rng = np.random.default_rng(26)
    D = random_dataset(rng, 10, 2)
    rep = binary_loss(CONST0, D)
    assert rep.csv_row().split(",")[0] == "binary"
    assert rep.csv_row().count(",") == 4


# --- pruned probing ----------------------------------------------------------------------

def unpruned_probe_wrong(h, X, offsets, radii, targets):
    """Every probe row of every item in one call: the reference the pruned
    path must match bit for bit."""
    n, k, d = offsets.shape
    if k == 0:
        return np.zeros(n, dtype=bool)
    Z = X[:, None, :] + radii[:, None, None] * offsets
    pred = h.predict_batch(Z.reshape(n * k, d)).reshape(n, k)
    return np.any(pred != targets[:, None], axis=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 25))
def test_probe_flags_match_the_unpruned_loop(seed, d, k):
    rng = np.random.default_rng(seed)
    S = random_dataset(rng, 40, d)
    nn = NnClassifier(random_dataset(rng, 15, d))
    offsets = point_offsets(RandomStream(seed), S.n, k, d)
    radii = rng.random(S.n) * 0.5
    todo = rng.random(S.n) < 0.7
    # a few-epoch network, whose logits can round differently with the batch rows
    net = mlp.train(mlp.init(d, seed=seed), S, mlp.TrainSpec(epochs=3, batch_size=8,
                                                            learning_rate=0.5, seed=seed))
    # the certificate speaks for rows whose 1-NN label is their target
    pred, _, safe = nn.opposite_witness(S.points)
    safe = np.where(pred == S.labels, safe, -np.inf)
    for h, s in ((nn, safe), (mlp.MlpClassifier(net), np.full(S.n, -np.inf))):
        want = unpruned_probe_wrong(h, S.points, offsets, radii, S.labels) & todo
        counted = RowCounter(h)
        got = probe_flags(counted, S.points, offsets, radii, S.labels, todo, s)
        assert got.tobytes() == want.tobytes()
        assert counted.rows <= todo.sum() * k and (counted.rows < S.n * k or k == 0)


def count_nn_rows(monkeypatch):
    """[rows], filled by later `NnClassifier.predict_batch` calls."""
    rows, predict = [0], NnClassifier.predict_batch

    def counted(self, X):
        rows[0] += len(X)
        return predict(self, X)

    monkeypatch.setattr(NnClassifier, "predict_batch", counted)
    return rows


def test_nn_certificate_settles_its_own_half_adaptive_balls(monkeypatch):
    S, T = split(generate(ShapeSpec("sfigure", 1000, seed=3)), SplitSpec(0.8, seed=4))
    aug, _ = augment(S, ExpansionSpec(c=0.5, m=4, seed=5))
    rows = count_nn_rows(monkeypatch)
    h = NnClassifier(S)
    rep = adaptive_robust_empirical(h, S, c=0.5, probes=10, stream=RandomStream(6))
    assert rep.value == 0.0 and rows == [0]  # every probe row lies inside a certified radius
    uncertified = RowCounter(h)  # hides `opposite_witness`
    assert adaptive_robust_empirical(uncertified, S, c=0.5, probes=10,
                                     stream=RandomStream(6)).value == 0.0
    assert uncertified.rows == S.n * 11
    h, rows[0] = NnClassifier(aug), 0
    rep = adaptive_robust_testtime(h, T, S, factor=0.5, probes=10, stream=RandomStream(7))
    certified = rows[0]
    assert 0 < certified < T.n * 10
    uncertified = RowCounter(h)
    assert adaptive_robust_testtime(uncertified, T, S, factor=0.5, probes=10,
                                    stream=RandomStream(7)).value == rep.value
    assert certified < uncertified.rows - T.n  # its first T.n rows label the centres


def test_pruned_loss_grids_match_the_unpruned_loop():
    rng = np.random.default_rng(27)
    S, T = random_dataset(rng, 120, 2), random_dataset(rng, 80, 2)
    h = NnClassifier(random_dataset(rng, 40, 2))
    radii, cs = [0.0, 0.01, 0.05, 0.1, 0.3], [0.25, 0.5, 1.0, 2.0]

    def unpruned_grid(D, scales, stream, probes):
        flags = h.predict_batch(D.points) != D.labels
        offsets = point_offsets(stream, D.n, probes, D.dim)
        out = []
        for s in scales:
            flags = flags | unpruned_probe_wrong(h, D.points, offsets, s, D.labels)
            out.append(float(np.mean(flags)))
        return out

    got = [r.value for r in robust_loss_fixed_grid(h, T, radii, probes=30,
                                                   stream=RandomStream(1))]
    assert got == unpruned_grid(T, [np.full(T.n, r) for r in radii], RandomStream(1), 30)
    for c in cs:
        got = adaptive_robust_empirical(h, S, c=c, probes=25, stream=RandomStream(2))
        assert [got.value] == unpruned_grid(S, [c * rho_all(S)], RandomStream(2), 25)
    got = adaptive_robust_testtime(h, T, S, factor=0.5, probes=10, stream=RandomStream(3))
    want = unpruned_grid(T, [0.5 * rho(S, T.points, T.labels)], RandomStream(3), 10)
    assert [got.value] == want
