import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust import neighbors
from adaptrobust.core import LabeledDataset, sq_dists_to
from adaptrobust.losses import probe_flags
from adaptrobust.neighbors import GridIndex, NnClassifier, rho, rho_all


# --- brute-force oracles -----------------------------------------------------

def oracle_rho(S, x, y):
    best = None
    for i in range(S.n):
        if int(S.labels[i]) != y:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(S.points[i], x)))
            best = d if best is None else min(best, d)
    return S.diameter_bound if best is None else best


def scan_rho(S, x, y):
    """The defining scan for one point: the reference the batched radii are
    compared with bit for bit (same `sq_dists_to` arithmetic)."""
    mask = S.labels != y
    if not np.any(mask):
        return S.diameter_bound
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(sq_dists_to(S.points[mask].T, x[:, None]).min()))


def oracle_nn(S, x):
    best_i, best_d2 = 0, math.inf
    for i in range(S.n):
        d2 = float(np.sum((S.points[i] - x) ** 2))
        if d2 < best_d2:
            best_i, best_d2 = i, d2
    return int(S.labels[best_i]), best_i, best_d2


def random_dataset(rng, n, d, classes=2):
    pts = rng.random((n, d))
    labels = rng.integers(0, classes, n)
    labels[0], labels[1] = 0, 1  # keep both classes present
    return LabeledDataset(pts, labels)


# --- rho ----------------------------------------------------------------------

def test_rho_nearest_opposite():
    S = LabeledDataset(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), np.array([0, 1, 1]))
    assert rho(S, [[0.0, 0.0], [3.0, 0.0]], [0, 1]).tolist() == [1.0, 3.0]


def test_rho_single_class_sentinel():
    S = LabeledDataset(np.array([[0.2, 0.2], [0.8, 0.8]]), np.array([0, 0]))
    assert rho(S, [[0.5, 0.5]], [0])[0] == pytest.approx(math.sqrt(2))


def test_rho_matches_bruteforce_exactly():
    rng = np.random.default_rng(0)
    S = random_dataset(rng, 200, 3)
    for _ in range(50):
        x = rng.random(3)
        y = int(rng.integers(0, 2))
        assert rho(S, x[None, :], [y])[0] == scan_rho(S, x, y) == oracle_rho(S, x, y)


def test_rho_empty_dataset_errors():
    # rho is never asked about an empty dataset: the constructor rejects one
    with pytest.raises(ValueError, match="at least one point"):
        LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_rho_all_matches_pointwise_rho():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5, 10):
        S = random_dataset(rng, 120, d)
        rhos = rho_all(S)
        for i in range(S.n):
            assert rhos[i] == scan_rho(S, S.points[i], int(S.labels[i]))


@st.composite
def lattice_dataset(draw):
    """Points on a half-step lattice (so duplicates and exact ties occur),
    with 0/1 labels that may make a duplicate disagree with itself."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 15))
    coords = draw(st.lists(st.integers(0, 2), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return LabeledDataset(np.array(coords, dtype=np.float64).reshape(n, d) / 2.0,
                          np.array(labels))


@settings(max_examples=200, deadline=None)
@given(lattice_dataset())
def test_rho_all_is_pointwise_rho_bit_for_bit(S):
    subsets = [S] + [S.subset(S.labels == y) for y in (0, 1) if np.any(S.labels == y)]
    for T in subsets:  # the per-class subsets are single-class data
        rhos = rho_all(T)
        assert [scan_rho(T, T.points[i], int(T.labels[i])) for i in range(T.n)] == rhos.tolist()


@st.composite
def rho_batch_case(draw):
    """Lattice data with up to three labels and lattice queries around it."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 15))
    coords = draw(st.lists(st.integers(0, 2), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    m = draw(st.integers(0, 20))
    queries = draw(st.lists(st.integers(-2, 4), min_size=m * d, max_size=m * d))
    ys = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    S = LabeledDataset(np.array(coords, dtype=np.float64).reshape(n, d) / 2.0,
                       np.array(labels))
    return S, np.array(queries, dtype=np.float64).reshape(m, d) / 2.0, np.array(ys)


@settings(max_examples=200, deadline=None)
@given(rho_batch_case())
def test_batched_rho_is_per_item_scan(case):
    S, X, Y = case
    got = rho(S, X, Y)
    assert isinstance(got, np.ndarray) and got.shape == (X.shape[0],)
    assert got.tolist() == [scan_rho(S, x, int(y)) for x, y in zip(X, Y)]


def test_batched_rho_rejects_mismatched_labels():
    S = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="mismatch"):
        rho(S, [0.0], 0)  # one point is a one-row batch
    with pytest.raises(ValueError, match="one label per query"):
        rho(S, np.zeros((3, 1)), np.array([0, 1]))
    with pytest.raises(ValueError, match="mismatch"):
        rho(S, np.zeros((3, 2)), np.array([0, 1, 0]))


def test_rho_is_one_lipschitz():
    rng = np.random.default_rng(2)
    for d in (1, 2, 5, 10):
        S = random_dataset(rng, 60, d)
        xs = rng.random((2500, d))
        xs2 = xs + rng.normal(size=xs.shape) * 0.1
        zeros = np.zeros(len(xs), dtype=np.int64)
        gap = np.abs(rho(S, xs, zeros) - rho(S, xs2, zeros))
        assert np.all(gap <= np.sqrt(np.sum((xs - xs2) ** 2, axis=1)) + 1e-12)


def test_rho_positive_at_own_points_without_conflicting_duplicates():
    rng = np.random.default_rng(3)
    S = random_dataset(rng, 100, 2)
    assert np.all(rho(S, S.points, S.labels) > 0.0)


# --- 1-NN ----------------------------------------------------------------------

def test_nn_predict_training_point_returns_own_label():
    rng = np.random.default_rng(4)
    S = random_dataset(rng, 50, 2)
    h = NnClassifier(S)
    for i in range(S.n):
        assert h.predict(S.points[i]) == int(S.labels[i])


def test_nn_predict_1d():
    S = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    assert NnClassifier(S).predict([0.4]) == 0


def test_nn_predict_matches_bruteforce():
    rng = np.random.default_rng(5)
    S = random_dataset(rng, 500, 4)
    h = NnClassifier(S)
    for x in rng.random((120, 4)):
        assert h.predict(x) == oracle_nn(S, x)[0]


def test_nn_tie_breaks_to_smallest_index():
    S = LabeledDataset(np.array([[0.5], [0.5], [0.9]]), np.array([1, 0, 0]))
    assert NnClassifier(S).predict([0.5]) == 1  # index 0 wins the tie


def test_nn_rejects_query_dimension_mismatch():
    h = NnClassifier(LabeledDataset(np.zeros((2, 2)), np.array([0, 1])))
    with pytest.raises(ValueError, match="mismatch"):
        h.predict([0.0])


def test_nn_training_error_zero_without_conflicts():
    rng = np.random.default_rng(6)
    S = random_dataset(rng, 200, 2)
    h = NnClassifier(S)
    assert np.array_equal(h.predict_batch(S.points), S.labels)


def test_nn_classifier_batch_equals_loop():
    rng = np.random.default_rng(7)
    S = random_dataset(rng, 150, 3)
    h = NnClassifier(S)
    X = rng.random((60, 3))
    assert np.array_equal(h.predict_batch(X), [h.predict(x) for x in X])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nn_predict_batch_equals_bruteforce(d):
    rng = np.random.default_rng(10 + d)
    S = random_dataset(rng, 500, d)
    queries = np.vstack([
        rng.random((100, d)),            # inside the bounding box
        rng.random((20, d)) * 3.0 - 1.0, # partly outside
        S.points[rng.integers(0, 500, 20)],  # exact hits
    ])
    want = [oracle_nn(S, q)[0] for q in queries]
    assert np.array_equal(NnClassifier(S).predict_batch(queries), want)


def test_nn_tie_order_across_equidistant_clusters():
    pts = np.array([[0.25, 0.25]] * 4 + [[0.75, 0.75]] * 64 + [[0.25, 0.75]] * 64)
    labels = np.array([1] * 4 + [0] * 128)
    h = NnClassifier(LabeledDataset(pts, labels))
    assert h.predict([0.25, 0.25]) == 1
    # equidistant from all three clusters; the smallest global index (0) wins
    assert np.array_equal(h.predict_batch(np.array([[0.5, 0.5], [0.5, 0.5]])), [1, 1])


# --- the 1-NN certificate ------------------------------------------------------

def certificate_case(name):
    """(training set, queries, rows expected uncertified) for each kind of
    labelling the certificate must hold on."""
    rng = np.random.default_rng(31)
    if name == "ties":  # a lattice: lattice queries and midpoints tie exactly
        pts = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float) / 4
        S = LabeledDataset(pts, rng.integers(0, 2, 25))
        X = np.vstack([pts, pts[:-1] + [0.125, 0.0], pts + [0.125, 0.125], rng.random((60, 2))])
        return S, X, None
    if name == "duplicates":  # each of the first 8 points again, with the other label
        pts, labels = rng.random((40, 2)), rng.integers(0, 2, 40)
        S = LabeledDataset(np.vstack([pts, pts[:8]]), np.concatenate([labels, 1 - labels[:8]]))
        return S, np.vstack([pts, rng.random((60, 2))]), np.arange(8)
    if name == "four-labels":
        S = LabeledDataset(rng.random((60, 2)), rng.integers(0, 4, 60))
        return S, np.vstack([S.points, rng.random((60, 2))]), None
    S = LabeledDataset(rng.random((30, 2)), np.zeros(30, dtype=int))  # one class
    return S, np.vstack([S.points, rng.random((60, 2))]), None


def worst_directions(S, X, labels):
    """(m, k, d) unit offsets per query: toward its nearest point of another
    label (when there is one), away from its nearest point, and +-e_1."""
    d2 = np.sum((X[:, None, :] - S.points[None, :, :]) ** 2, axis=2)
    own = S.points[np.argmin(d2, axis=1)]
    dirs = [X - own, np.tile([1.0, 0.0], (len(X), 1)), np.tile([-1.0, 0.0], (len(X), 1))]
    opposite = S.labels[None, :] != labels[:, None]
    if opposite.any():
        dirs.append(S.points[np.argmin(np.where(opposite, d2, np.inf), axis=1)] - X)
    U = np.stack(dirs, axis=1)
    norms = np.sqrt(np.sum(U**2, axis=2, keepdims=True))
    return np.where(norms > 0.0, U / np.where(norms > 0.0, norms, 1.0), [1.0, 0.0])


@pytest.mark.parametrize("name", ["ties", "duplicates", "four-labels", "one-class"])
def test_nn_certified_radius_holds_on_its_sphere(name):
    S, X, uncertified = certificate_case(name)
    h = NnClassifier(S)
    labels, _, safe = h.opposite_witness(X)
    assert np.array_equal(labels, h.predict_batch(X))
    if uncertified is not None:  # a query on two points with different labels
        assert np.all(safe[uncertified] < 0.0)
    rows = safe > 0.0
    assert rows.sum() > len(X) // 2
    U = worst_directions(S, X, labels)[rows]
    # at exactly the certified norm, and one ulp above it
    for r in (safe[rows], np.nextafter(safe[rows], np.inf)):
        for j in range(U.shape[1]):
            Z = X[rows] + r[:, None] * U[:, j]
            assert np.array_equal(h.predict_batch(Z), labels[rows])


@pytest.mark.parametrize("name", ["ties", "duplicates", "four-labels", "one-class"])
def test_witness_is_the_nearest_point_of_another_label(name):
    S, X, _ = certificate_case(name)
    h = NnClassifier(S)
    labels, W, _ = h.opposite_witness(X)
    # the reference: a scan per query; argmin takes the smallest index
    d2 = np.sum((X[:, None, :] - S.points[None, :, :]) ** 2, axis=2)
    other = S.labels[None, :] != labels[:, None]
    found = other.any(axis=1)
    want = S.points[np.argmin(np.where(other, d2, np.inf), axis=1)]
    assert W[found].tobytes() == want[found].tobytes()
    assert W[~found].tobytes() == X[~found].tobytes()
    dist = np.sqrt(np.sum((W - X) ** 2, axis=1))
    assert dist[found].tobytes() == rho(S, X, labels)[found].tobytes()
    if name != "duplicates":  # a duplicate with a smaller index can give W the row's label
        assert np.all(h.predict_batch(W[found]) != labels[found])


@pytest.mark.parametrize("name", ["ties", "duplicates", "four-labels", "one-class"])
def test_probe_flags_skip_the_certified_norm_and_probe_one_ulp_above(name):
    S, X, _ = certificate_case(name)
    h = NnClassifier(S)
    labels, _, safe = h.opposite_witness(X)
    offsets, todo = worst_directions(S, X, labels), safe > 0.0
    n, k, _ = offsets.shape
    for radii, evaluated in ((np.maximum(safe, 0.0), 0),
                             (np.nextafter(np.maximum(safe, 0.0), np.inf), todo.sum() * k)):
        want = np.any(h.predict_batch((X[:, None] + radii[:, None, None] * offsets)
                                      .reshape(n * k, 2)).reshape(n, k) != labels[:, None], axis=1)
        rows = [0]

        class Counted:
            def predict_batch(self, Z):
                rows[0] += len(Z)
                return h.predict_batch(Z)

        got = probe_flags(Counted(), X, offsets, radii, labels, todo, safe)
        assert got.tobytes() == (want & todo).tobytes()
        assert not got.any() and rows[0] == evaluated


# --- the grid index ----------------------------------------------------------

def scan_nearest(P, Q):
    """The reference: one scan per query; argmin takes the smallest index."""
    d2, idx = [], []
    for q in Q:
        row = sq_dists_to(P.T, q[:, None])
        idx.append(int(np.argmin(row)))
        d2.append(row[idx[-1]])
    return np.array(d2, dtype=np.float64), idx




@st.composite
def index_case(draw):
    d = draw(st.integers(1, 10))  # past the 3 gridded axes and an 8-term sum
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["lattice", "uniform", "flat", "zero-extent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":  # duplicates and exact distance ties
        P = rng.integers(0, 3, (n, d)) / 2.0
    elif kind == "uniform":
        P = rng.random((n, d)) * 2.0 - 1.0
    elif kind == "flat":  # some coordinates constant
        P = rng.random((n, d))
        P[:, rng.random(d) < 0.5] = 0.25
    else:  # every point the same
        P = np.repeat(rng.random((1, d)), n, axis=0)
    Q = np.vstack([
        rng.integers(-1, 4, (6, d)) / 2.0,
        rng.random((6, d)) * 3.0 - 1.0,
        P[rng.integers(0, n, 4)],
        rng.random((2, d)) * 2e3 - 1e3,  # far outside the bounding box
    ])
    return P, Q


# shell budgets: ring by ring, the default, and one pass over the whole grid
BUDGETS = [1, neighbors._SHELL_BUDGET, 2**40]


def index_nearest(P, Q, budget, piece=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_SHELL_BUDGET", budget)
        if piece:
            mp.setattr(neighbors, "_PIECE", piece)
        return GridIndex(P).nearest(Q)


@settings(max_examples=300, deadline=None)
@given(index_case())
def test_grid_index_matches_scan_bit_for_bit(case):
    P, Q = case
    want_d2, want_idx = scan_nearest(P, Q)
    for budget in BUDGETS:
        for piece in (None, 64):  # the default pieces, then every shell split small
            d2, idx = index_nearest(P, Q, budget, piece)
            assert idx.tolist() == want_idx
            assert d2.tobytes() == want_d2.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
def test_grid_index_on_clustered_data_matches_scan(d):
    rng = np.random.default_rng(20 + d)
    centers = rng.random((8, d))
    P = centers[rng.integers(0, 8, 3000)] + rng.normal(scale=0.01, size=(3000, d))
    Q = np.vstack([rng.random((300, d)) * 1.4 - 0.2, P[:50]])
    want_d2, want_idx = scan_nearest(P, Q)
    for budget in BUDGETS:
        d2, idx = index_nearest(P, Q, budget)
        assert idx.tolist() == want_idx and d2.tobytes() == want_d2.tobytes()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_far_queries_across_wide_shells_match_scan(m, budget):
    # Two concentric rings and m queries in the empty annulus between them,
    # so a query crosses many empty rings of cells. The first query has an
    # exact tie at squared distance 10000: offset (100, 0), Chebyshev 100,
    # holds the smaller index and lies farther out than offset (60, 80).
    rng = np.random.default_rng(m)
    angles = rng.random((2, 2000)) * 2.0 * np.pi
    rings = np.concatenate([np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
                            for r, t in zip((100.0, 400.0), angles)])
    P = np.vstack([[[350.0, 0.0]], rings, [[310.0, 80.0]]])
    Q = np.array([[250.0, 0.0], [0.0, -250.0], [-180.0, 170.0]])[:m]
    want_d2, want_idx = scan_nearest(P, Q)
    assert want_idx[0] == 0 and want_d2[0] == 10000.0 == sq_dists_to(P[-1:].T, Q[:1].T)[0]
    d2, idx = index_nearest(P, Q, budget)
    assert idx.tolist() == want_idx and d2.tobytes() == want_d2.tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 10])
@pytest.mark.parametrize("n", [1, 30])
def test_grid_with_no_gridded_axis_matches_scan(n, d):
    # one point, or n copies of one point: zero extent on every axis, so the
    # grid has no gridded axis and the distance bounds see (k, 0) gaps
    P = np.repeat(np.random.default_rng(d).random((1, d)), n, axis=0)
    Q = np.vstack([P[:1], np.random.default_rng(n).random((20, d)) * 4.0 - 2.0])
    index = GridIndex(P)
    assert index._axes.size == 0
    want_d2, want_idx = scan_nearest(P, Q)
    d2, idx = index.nearest(Q)
    assert idx.tolist() == want_idx and d2.tobytes() == want_d2.tobytes()


def _hung(signum, frame):
    raise TimeoutError("the index query did not stop")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.0, 1e11])
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e200, 1e300])
def test_grid_index_at_extreme_scales_matches_scan(scale, offset, d):
    # From 1e200 up, squared distances overflow to inf; a query whose
    # distances are all inf stops only once its block covers the grid. The
    # alarm turns a query that never stops into a failure.
    rng = np.random.default_rng(d)
    P = offset + scale * rng.random((200, d))
    Q = offset + scale * (rng.random((40, d)) * 1.4 - 0.2)
    Q = np.vstack([Q, P[rng.integers(0, 200, 10)]])  # with exact hits
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(20)
    try:
        with np.errstate(over="ignore", under="ignore"):
            want_d2, want_idx = scan_nearest(P, Q)
            d2, idx = GridIndex(P).nearest(Q)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert idx.tolist() == want_idx and d2.tobytes() == want_d2.tobytes()


def test_grid_index_rejects_bad_input():
    with pytest.raises(ValueError):
        GridIndex(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="finite"):
        GridIndex(np.array([[0.0, np.inf]]))
    index = GridIndex(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        index.nearest(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="finite"):
        index.nearest(np.array([[np.nan, 0.0]]))
    d2, idx = index.nearest(np.zeros((0, 2)))
    assert d2.shape == idx.shape == (0,)
