import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust import margin
from adaptrobust.core import LabeledDataset, RandomStream, sq_dists_to
from adaptrobust.datagen import manifold_sampler, shape_geometry
from adaptrobust.margin import (
    MarginProfile,
    NearestSetClassifier,
    _flip_distances_batch,
    canonical_bayes,
    inverse_phi,
    margin_profile,
    nn_sample_bound,
)
from adaptrobust.neighbors import NnClassifier
from adaptrobust.scenarios import HalfspaceClassifier, scenario_two_rectangles


class Threshold1D:
    """1-D threshold with exact batch path, for profile tests."""

    def __init__(self, t):
        self.t = t

    def predict(self, x):
        return int(x[0] >= self.t)

    def predict_batch(self, X):
        return (np.asarray(X)[:, 0] >= self.t).astype(np.int64)


# --- canonical bayes -------------------------------------------------------------

def test_support_point_gets_its_own_label():
    h = canonical_bayes(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert h.predict([0.0, 0.0]) == 0
    assert h.predict([2.0, 0.0]) == 1


def test_nearer_set_wins():
    h = canonical_bayes(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert h.predict([0.5, 0.0]) == 0
    assert h.predict([1.5, 0.0]) == 1
    assert h.predict([1.0, 0.0]) == 0  # exact tie -> label 0


def test_dense_circle_supports_match_radius_midpoint_rule():
    geom = shape_geometry("circles")
    h = canonical_bayes(geom.class_support(0, 10000), geom.class_support(1, 10000))
    rng = np.random.default_rng(0)
    X = rng.random((10_000, 2))
    raw = geom.from_unit(X)
    want = (np.sqrt(raw[:, 0] ** 2 + raw[:, 1] ** 2) >= 1.5).astype(np.int64)
    assert np.array_equal(h.predict_batch(X), want)


def test_swapped_supports_flip_predictions():
    rng = np.random.default_rng(1)
    s0, s1 = rng.random((40, 2)), rng.random((40, 2)) + 2.0
    h = canonical_bayes(s0, s1)
    h_swapped = canonical_bayes(s1, s0)
    X = rng.random((300, 2)) * 3.0
    assert np.array_equal(h.predict_batch(X), 1 - h_swapped.predict_batch(X))


def test_batch_equals_single_point_predictions():
    rng = np.random.default_rng(2)
    h = canonical_bayes(rng.random((30, 3)), rng.random((30, 3)) + 0.5)
    X = rng.random((100, 3)) * 1.5
    assert np.array_equal(h.predict_batch(X), [h.predict(x) for x in X])


def min_d2_scan(X, support):
    """Squared distance from each row of X to its nearest support point, by a
    chunked scan."""
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], 64):
        diff = X[start:start + 64, None, :] - support[None, :, :]
        out[start:start + 64] = np.sum(diff**2, axis=2).min(axis=1)
    return out


def two_scan_predict(support0, support1, X):
    """The nearest-set rule by definition: one scan per support, label 0 when
    d0 <= d1 (exact ties go to 0)."""
    return np.where(min_d2_scan(X, support0) <= min_d2_scan(X, support1), 0, 1)


def two_scan_witness(support0, support1, x):
    """The nearest point of the support opposite to x's nearest-set label;
    argmin takes the smallest index."""
    d0, d1 = sq_dists_to(support0, x), sq_dists_to(support1, x)
    if d0.min() <= d1.min():
        return support1[int(np.argmin(d1))]
    return support0[int(np.argmin(d0))]


def check_against_two_scans(s0, s1, X):
    h = canonical_bayes(s0, s1)
    assert np.array_equal(h.predict_batch(X), two_scan_predict(s0, s1, X))
    want = np.array([two_scan_witness(s0, s1, x) for x in X]).reshape(X.shape)
    assert h.opposite_witness(X)[0].tobytes() == want.tobytes()


def test_circles_predict_batch_matches_two_scans():
    geom = shape_geometry("circles")
    s0, s1 = geom.class_support(0, 10000), geom.class_support(1, 10000)
    rng = np.random.default_rng(3)
    angle = rng.random(500) * 2 * math.pi
    X = np.vstack([
        rng.random((1500, 2)) * 1.5 - 0.25,  # in and around the unit square
        0.5 + 0.375 * np.column_stack([np.cos(angle), np.sin(angle)]),  # midpoint circle
        s0[rng.integers(0, 10000, 100)], s1[rng.integers(0, 10000, 100)],
        rng.random((20, 2)) * 200.0 - 100.0,  # far outside
    ])
    check_against_two_scans(s0, s1, X)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_clustered_supports_match_two_scans(d):
    rng = np.random.default_rng(40 + d)
    centers = rng.random((6, d))
    s0 = centers[rng.integers(0, 3, 1500)] + rng.normal(scale=0.05, size=(1500, d))
    s1 = centers[rng.integers(3, 6, 1500)] + rng.normal(scale=0.05, size=(1500, d))
    X = np.vstack([rng.random((400, d)), s0[:30], s1[:30]])
    check_against_two_scans(s0, s1, X)


@st.composite
def lattice_supports(draw):
    """Two supports and queries on a quarter-step lattice in 1-4 dimensions."""
    d = draw(st.integers(1, 4))
    rows = st.lists(st.lists(st.integers(0, 4).map(lambda v: v / 4.0), min_size=d, max_size=d),
                    min_size=1, max_size=12)
    return tuple(np.array(draw(rows), dtype=np.float64).reshape(-1, d) for _ in range(3))


@settings(max_examples=150, deadline=None)
@given(lattice_supports())
def test_lattice_predict_batch_matches_two_scans(case):
    s0, s1, X = case
    X = np.vstack([X, s0, s1])  # points shared by both supports tie exactly
    check_against_two_scans(s0, s1, X)


def test_empty_support_errors():
    with pytest.raises(ValueError):
        canonical_bayes(np.zeros((0, 2)), np.array([[1.0, 1.0]]))


# --- membership -----------------------------------------------------------------

def fixed_points(*xs):
    """A sampler that always returns the given 1-D points."""
    return lambda stream, n: np.array([[x] for x in xs])


def test_membership_r0_is_false():
    # a point on the boundary itself is not in the radius-0 margin
    prof = margin_profile(fixed_points(0.0), Threshold1D(0.0), [0.0], N=1, probes=10,
                          stream=RandomStream(3), witness_fn=lambda x: np.array([-1.0]))
    assert prof.values[0] == 0.0


def test_membership_threshold_with_witness():
    h = Threshold1D(0.0)
    witness = lambda x: np.array([-1.0])
    prof = margin_profile(fixed_points(0.3), h, [0.5], N=1, probes=0,
                          stream=RandomStream(4), witness_fn=witness)
    assert prof.values[0] == 1.0
    prof = margin_profile(fixed_points(0.7), h, [0.5], N=1, probes=50,
                          stream=RandomStream(4), witness_fn=witness)
    assert prof.values[0] == 0.0


def test_flip_distance_locates_the_boundary():
    h = Threshold1D(0.25)
    X = np.array([[0.9], [0.9], [0.9]])
    W = np.array([[-1.0], [0.5], [0.9]])  # flipped, same-label, coincident witness
    d = _flip_distances_batch(h, X, W, h.predict_batch(X), np.linspace(0.0, 1.0, 100_001))
    assert d[0] == pytest.approx(0.65, abs=1e-5)
    assert d[1] == math.inf and d[2] == math.inf


# --- profile --------------------------------------------------------------------

def uniform_1d(stream, n):
    return stream.uniform((n, 1))


def test_threshold_profile_matches_closed_form():
    t = 0.5
    h = Threshold1D(t)
    radii = [0.05, 0.1, 0.2, 0.4]
    prof = margin_profile(uniform_1d, h, radii, N=100_000, probes=20,
                          stream=RandomStream(5),
                          witness_fn=lambda x: np.array([2 * t - x[0]]))
    for r, v in zip(prof.radii, prof.values):
        closed = min(t + r, 1.0) - max(t - r, 0.0)
        assert abs(v - closed) < 0.02


def test_two_rectangle_slab_formula():
    sc = scenario_two_rectangles(0.2)
    h = sc.bayes
    prof = margin_profile(sc.sampler, h, [0.1, 0.2], N=100_000, probes=0,
                          stream=RandomStream(6),
                          witness_fn=lambda x: np.array([x[0], -x[1]]))
    for r, v in zip(prof.radii, prof.values):
        assert abs(v - sc.margin_slab_mass(r)) < 0.01


def test_circles_profile_is_zero_below_the_gap():
    geom = shape_geometry("circles")
    h = canonical_bayes(geom.class_support(0, 2000), geom.class_support(1, 2000))
    # normalized gap between the circles is 0.25; probe well below it
    prof = margin_profile(manifold_sampler("circles"), h, [0.025], N=400, probes=20,
                          stream=RandomStream(7))
    assert prof.values[0] == 0.0


def test_profile_is_one_beyond_the_diameter():
    geom = shape_geometry("circles")
    h = canonical_bayes(geom.class_support(0, 1000), geom.class_support(1, 1000))
    prof = margin_profile(manifold_sampler("circles"), h, [math.sqrt(2.0)], N=300, probes=10,
                          stream=RandomStream(8))
    assert prof.values[0] == 1.0


def test_profile_monotone_and_zero_at_zero():
    h = Threshold1D(0.5)
    prof = margin_profile(uniform_1d, h, [0.0, 0.05, 0.1, 0.3], N=5000, probes=20,
                          stream=RandomStream(9),
                          witness_fn=lambda x: np.array([1.0 - x[0]]))
    assert prof.values[0] == 0.0
    assert np.all(np.diff(prof.values) >= 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        MarginProfile(np.array([0.1, 0.1]), np.array([0.0, 0.0]), 0, 0)
    with pytest.raises(ValueError):
        MarginProfile(np.array([0.1, 0.2]), np.array([0.5, 0.2]), 0, 0)


# --- inverse and the sample bound ---------------------------------------------------

def step_profile():
    return MarginProfile(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.05, 0.2]), 0, 0)


def test_inverse_epsilon_one_returns_last_radius():
    assert inverse_phi(step_profile(), 1.0) == pytest.approx(0.3)


def test_inverse_epsilon_zero_on_positive_profile():
    prof = MarginProfile(np.array([0.1, 0.2]), np.array([0.01, 0.5]), 0, 0)
    assert inverse_phi(prof, 0.0) == 0.0


def test_inverse_step_table():
    assert inverse_phi(step_profile(), 0.1) == pytest.approx(0.2)


def test_inverse_profile_consistency():
    h = Threshold1D(0.5)
    prof = margin_profile(uniform_1d, h, [0.02, 0.05, 0.1, 0.2, 0.45], N=4000, probes=20,
                          stream=RandomStream(10),
                          witness_fn=lambda x: np.array([1.0 - x[0]]))
    for eps in np.linspace(0.0, 1.0, 100):
        r_star = inverse_phi(prof, eps)
        if r_star > 0.0:
            v = prof.values[np.where(prof.radii == r_star)[0][0]]
            assert v <= eps


def test_sample_bound_values():
    # independent re-evaluation of the formula
    assert nn_sample_bound(1, 1.0, 1.0, 1.0) == pytest.approx(3.0 / math.e, rel=1e-12)
    want = (3.0**2 * 2.0**1.0) / (math.e * 0.1**2 * 0.1 * 0.1)
    assert nn_sample_bound(2, 0.1, 0.1, 0.1) == pytest.approx(want, rel=1e-12)


def test_sample_bound_linear_in_inverse_delta():
    assert nn_sample_bound(3, 0.1, 0.1, 0.2) == pytest.approx(
        nn_sample_bound(3, 0.1, 0.2, 0.2) * 2.0
    )


def test_sample_bound_rejects_zero_radius():
    with pytest.raises(ValueError):
        nn_sample_bound(2, 0.1, 0.1, 0.0)


def test_profile_csv_roundtrip(tmp_path):
    prof = step_profile()
    path = tmp_path / "profile.csv"
    prof.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r,phi_hat"
    assert len(lines) == 4


# --- pruned profile against the unpruned loop ------------------------------------

def reference_flips(h, X, W, preds, steps=30):
    """The witness bisection with every row run for all 30 steps."""
    diff = W - X
    total = np.sqrt(np.sum(diff**2, axis=1))
    valid = total > 0.0
    valid[valid] = h.predict_batch(W[valid]) != preds[valid]
    out = np.full(X.shape[0], math.inf)
    idx = np.where(valid)[0]
    if idx.size == 0:
        return out
    xs, dirs = X[idx], diff[idx] / total[idx, None]
    lo, hi, base = np.zeros(idx.size), total[idx].copy(), preds[idx]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = h.predict_batch(xs + mid[:, None] * dirs) == base
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    out[idx] = hi
    return out


def reference_profile(sampler, h, radii, N, probes, stream, witness=None):
    """margin_profile with every probe row and bisection step evaluated, the
    reference for the pruned estimator; `witness(X)` gives witness rows."""
    radii = np.asarray(radii, dtype=np.float64)
    X = np.asarray(sampler(stream.child(0), N), dtype=np.float64)
    preds = h.predict_batch(X)
    flips = np.full(N, math.inf) if witness is None else reference_flips(h, X, witness(X), preds)
    member = np.zeros(N, dtype=bool)
    values = []
    if probes > 0:
        origin = np.broadcast_to(0.0, (N, probes, X.shape[1]))
        offsets = margin.sample_ball_uniform(origin, 1.0, stream.child(1))
    for r in radii:
        if r > 0.0 and probes > 0:
            Z = X[:, None, :] + r * offsets
            pred = h.predict_batch(Z.reshape(N * probes, X.shape[1])).reshape(N, probes)
            member = member | np.any(pred != preds[:, None], axis=1)
        values.append(np.mean(member | (flips < r)))
    return np.maximum.accumulate(np.array(values))


def with_axis_probes(draw):
    """A ball sampler whose first 2 d probes per row are the unit vectors +-e_k:
    exactly on the sphere, where the certificate's slack matters."""
    def sample(centers, radii, stream):
        out = draw(centers, radii, stream)
        d = out.shape[-1]
        m = min(out.shape[-2], 2 * d)
        out[..., :m, :] = np.vstack([np.eye(d), -np.eye(d)])[:m]
        return out
    return sample


def pruned_and_reference(s0, s1, X, radii, probes, seed):
    h = canonical_bayes(s0, s1)
    points = lambda stream, n: X
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(margin, "sample_ball_uniform", with_axis_probes(margin.sample_ball_uniform))
        got = margin_profile(points, h, radii, len(X), probes, stream=RandomStream(seed))
        want = reference_profile(
            points, h, radii, len(X), probes, RandomStream(seed),
            lambda X: np.array([two_scan_witness(s0, s1, x) for x in X]))
    return got, want


def test_certificate_keeps_a_probe_on_the_sphere():
    # x sits on support1 and the opposite support is 0.5 away along the axis:
    # the gap certifies radii below 0.25 only, since the probe x + 0.25 * e_1
    # lands on the exact tie, which goes to label 0 and flips x
    s0, s1 = np.array([[0.5]]), np.array([[0.0]])
    got, want = pruned_and_reference(s0, s1, np.array([[0.0]]), [0.1, 0.25, 0.3], 2, 0)
    assert want.tolist() == [0.0, 1.0, 1.0]
    assert got.values.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(lattice_supports(), st.integers(0, 2**31 - 1))
def test_pruned_profile_matches_the_unpruned_loop(case, seed):
    s0, s1, X = case
    X = np.vstack([X, s0, s1])  # duplicates, and points on both supports tie
    d0, d1 = np.sqrt(min_d2_scan(X, s0)), np.sqrt(min_d2_scan(X, s1))
    # radii on every row's certificate boundary (d_opp - d_own) / 2, plus a few
    half_gaps = np.abs(d1 - d0) / 2.0
    radii = np.unique(np.concatenate([half_gaps[half_gaps > 0.0], [0.0, 0.25, 0.5, 2.0]]))
    got, want = pruned_and_reference(s0, s1, X, radii, 2 * X.shape[1] + 3, seed)
    assert got.values.tobytes() == want.tobytes()


def test_pruned_circles_profile_matches_the_unpruned_loop():
    geom = shape_geometry("circles")
    h = canonical_bayes(geom.class_support(0, 1000), geom.class_support(1, 1000))
    sampler = manifold_sampler("circles")
    radii = [0.01, 0.05, 0.1, 0.124, 0.125, 0.126, 0.2, 0.5]
    got = margin_profile(sampler, h, radii, N=200, probes=30, stream=RandomStream(11))
    want = reference_profile(sampler, h, radii, 200, 30, RandomStream(11),
                             lambda X: h.opposite_witness(X)[0])
    assert got.values.tobytes() == want.tobytes()
    assert got.evaluated_probes < got.nominal_probes


def uniform_2d(stream, n):
    return stream.uniform((n, 2))


def test_pruned_generic_profiles_match_the_unpruned_loop():
    rng = np.random.default_rng(12)
    s0, s1 = rng.random((60, 2)), rng.random((60, 2)) + [0.3, 0.0]
    nn = NnClassifier(LabeledDataset(np.vstack([s0, s1]), np.repeat([0, 1], 60)))
    radii = [0.02, 0.05, 0.1, 0.3]
    witness = lambda x: 1.0 - x
    for h in (nn, Threshold1D(0.6)):
        for w in (None, witness):
            got = margin_profile(uniform_2d, h, radii, N=150, probes=25,
                                 stream=RandomStream(13), witness_fn=w)
            want = reference_profile(uniform_2d, h, radii, 150, 25, RandomStream(13),
                                     w and (lambda X: np.array([witness(x) for x in X])))
            assert got.values.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(lattice_supports())
def test_grid_stop_decides_like_the_full_bisection(case):
    s0, s1, X = case
    X = np.vstack([X, s0, s1])
    h = canonical_bayes(s0, s1)
    W, preds = h.opposite_witness(X)[0], h.predict_batch(X)
    full = reference_flips(h, X, W, preds)
    # grid radii at the exact flip distances make `flips < r` a tie
    radii = np.unique(np.concatenate([full[np.isfinite(full)], [0.0, 0.1, 0.25, 1.0]]))
    got = _flip_distances_batch(h, X, W, preds, radii)
    assert np.array_equal(got[:, None] < radii, full[:, None] < radii)


def test_certified_radius_holds_on_its_sphere():
    geom = shape_geometry("circles")
    h = canonical_bayes(geom.class_support(0, 500), geom.class_support(1, 500))
    rng = np.random.default_rng(14)
    X = rng.random((400, 2))
    W, safe = h.opposite_witness(X)
    labels = h.predict_batch(X)
    rows = safe > 0.0
    assert rows.sum() > 300
    toward = (W - X) / np.sqrt(np.sum((W - X) ** 2, axis=1))[:, None]
    for u in (toward, [1.0, 0.0], [0.0, -1.0], -toward):
        Z = X[rows] + safe[rows, None] * np.broadcast_to(u, X.shape)[rows]
        assert np.array_equal(h.predict_batch(Z), labels[rows])


def test_profile_counts_nominal_and_evaluated_probes():
    geom = shape_geometry("circles")
    h = canonical_bayes(geom.class_support(0, 1000), geom.class_support(1, 1000))
    grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    prof = margin_profile(manifold_sampler("circles"), h, grid, N=50, probes=20,
                          stream=RandomStream(15))
    # every ball below the 0.125 gap is certified, every larger one decided
    # by the witness flip
    assert (prof.nominal_probes, prof.evaluated_probes) == (6000, 0)
    rng = np.random.default_rng(16)
    pts, labels = rng.random((200, 2)), rng.integers(0, 2, 200)
    h = canonical_bayes(pts[labels == 0], pts[labels == 1])
    prof = margin_profile(uniform_2d, h, [0.0] + grid, N=100, probes=30,
                          stream=RandomStream(17))
    assert (prof.nominal_probes, prof.evaluated_probes) == (18000, 1940)
