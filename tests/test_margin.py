import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust.core import RandomStream, sq_dists_to
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
    assert h.opposite_witness(X).tobytes() == want.tobytes()


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
    d = _flip_distances_batch(h, X, W, h.predict_batch(X))
    assert d[0] == pytest.approx(0.65, abs=1e-6)
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
