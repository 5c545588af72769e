import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust import margin, neighbors
from adaptrobust.core import LabeledDataset, RandomStream, sq_dists_to, write_text_lines
from adaptrobust.datagen import manifold_sampler, shape_geometry
from adaptrobust import losses
from adaptrobust.losses import _flip_distances, probe_flags
from adaptrobust.margin import (
    MarginProfile,
    NearestSetClassifier,
    inverse_phi,
    margin_profile,
    nn_sample_bound,
)
from adaptrobust.neighbors import NnClassifier
from adaptrobust.scenarios import HalfspaceClassifier, TwoRectangles


class Threshold1D:
    """1-D threshold with exact batch path, for profile tests."""

    def __init__(self, t):
        self.t = t

    def predict(self, x):
        return int(x[0] >= self.t)

    def predict_batch(self, X):
        return (np.asarray(X)[:, 0] >= self.t).astype(np.int64)


class Witnessed:
    """h, supplying `witness(X)` as its witnesses with no certified radius."""

    def __init__(self, h, witness):
        self.h, self.witness = h, witness

    def predict_batch(self, X):
        return self.h.predict_batch(X)

    def opposite_witness(self, X):
        return self.h.predict_batch(X), self.witness(X), np.full(X.shape[0], -math.inf)


class Hidden:
    """h with only `predict_batch`: no witness and no certified radius."""

    def __init__(self, h):
        self.h = h

    def predict_batch(self, X):
        return self.h.predict_batch(X)


# --- canonical bayes -------------------------------------------------------------

def test_support_point_gets_its_own_label():
    h = NearestSetClassifier(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert h.predict([0.0, 0.0]) == 0
    assert h.predict([2.0, 0.0]) == 1


def test_nearer_set_wins():
    h = NearestSetClassifier(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert h.predict([0.5, 0.0]) == 0
    assert h.predict([1.5, 0.0]) == 1
    assert h.predict([1.0, 0.0]) == 0  # exact tie -> label 0


def test_dense_circle_supports_match_radius_midpoint_rule():
    geom = shape_geometry("circles")
    h = NearestSetClassifier(geom.class_support(0, 10000), geom.class_support(1, 10000))
    rng = np.random.default_rng(0)
    X = rng.random((10_000, 2))
    raw = X * (geom.hi - geom.lo) + geom.lo
    want = (np.sqrt(raw[:, 0] ** 2 + raw[:, 1] ** 2) >= 1.5).astype(np.int64)
    assert np.array_equal(h.predict_batch(X), want)


def test_few_far_witness_queries_cross_wide_shells(monkeypatch):
    # A witness query on the circles supports crosses about 16 empty rings of
    # cells; one ring per pass took 33 passes for these 8 samples (joint
    # index, then both class indexes). With few queries active a pass covers
    # many rings, so at most half as many passes remain. `opposite_witness`
    # scans the class supports for so few queries, so each class index is
    # queried here directly, with the samples of the other label.
    geom = shape_geometry("circles")
    support = [geom.class_support(0, 10000), geom.class_support(1, 10000)]
    h = NearestSetClassifier(*support)
    X = manifold_sampler("circles")(RandomStream(0), 8)
    other = [neighbors.GridIndex(support[1]), neighbors.GridIndex(support[0])]
    passes, builds = [], []
    visit, init = neighbors.GridIndex._visit_shell, neighbors.GridIndex.__init__
    monkeypatch.setattr(neighbors.GridIndex, "_visit_shell",
                        lambda self, *args: passes.append(1) or visit(self, *args))
    monkeypatch.setattr(neighbors.GridIndex, "__init__",
                        lambda self, P: builds.append(1) or init(self, P))
    labels, _, _ = h.opposite_witness(X)
    assert not builds  # no per-label index: both class lookups are scans
    for y in (0, 1):
        other[y].nearest(X[labels == y])
    assert len(passes) <= 16


def test_swapped_supports_flip_predictions():
    rng = np.random.default_rng(1)
    s0, s1 = rng.random((40, 2)), rng.random((40, 2)) + 2.0
    h = NearestSetClassifier(s0, s1)
    h_swapped = NearestSetClassifier(s1, s0)
    X = rng.random((300, 2)) * 3.0
    assert np.array_equal(h.predict_batch(X), 1 - h_swapped.predict_batch(X))


def test_batch_equals_single_point_predictions():
    rng = np.random.default_rng(2)
    h = NearestSetClassifier(rng.random((30, 3)), rng.random((30, 3)) + 0.5)
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
    d0, d1 = sq_dists_to(support0.T, x[:, None]), sq_dists_to(support1.T, x[:, None])
    if d0.min() <= d1.min():
        return support1[int(np.argmin(d1))]
    return support0[int(np.argmin(d0))]


def check_against_two_scans(s0, s1, X):
    h = NearestSetClassifier(s0, s1)
    assert np.array_equal(h.predict_batch(X), two_scan_predict(s0, s1, X))
    want = np.array([two_scan_witness(s0, s1, x) for x in X]).reshape(X.shape)
    assert h.opposite_witness(X)[1].tobytes() == want.tobytes()


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
    for s0, s1 in [
        (np.zeros((0, 2)), np.ones((1, 2))),     # first support empty
        (np.ones((1, 2)), np.zeros((0, 2))),     # second support empty
        (np.zeros(2), np.ones(2)),               # 1-D supports
        (np.zeros((1, 2)), np.ones(2)),          # a 1-D second support
        (np.zeros((1, 2)), np.ones((1, 3))),     # mismatched dimensions
    ]:
        with pytest.raises(ValueError, match="supports must be nonempty"):
            NearestSetClassifier(s0, s1)


# --- membership -----------------------------------------------------------------

def fixed_points(*xs):
    """A sampler that always returns the given 1-D points."""
    return lambda stream, n: np.array([[x] for x in xs])


def test_membership_r0_is_false():
    # a point on the boundary itself is not in the radius-0 margin
    h = Witnessed(Threshold1D(0.0), lambda X: np.full_like(X, -1.0))
    prof = margin_profile(fixed_points(0.0), h, [0.0], N=1, probes=10, stream=RandomStream(3))
    assert prof.values[0] == 0.0


def test_membership_threshold_with_witness():
    h = Witnessed(Threshold1D(0.0), lambda X: np.full_like(X, -1.0))
    prof = margin_profile(fixed_points(0.3), h, [0.5], N=1, probes=0, stream=RandomStream(4))
    assert prof.values[0] == 1.0
    prof = margin_profile(fixed_points(0.7), h, [0.5], N=1, probes=50, stream=RandomStream(4))
    assert prof.values[0] == 0.0


def test_flip_distance_locates_the_boundary():
    h = Threshold1D(0.25)
    X = np.array([[0.9], [0.9], [0.9]])
    W = np.array([[-1.0], [0.5], [0.9]])  # flipped, same-label, coincident witness
    radii = np.linspace(0.0, 1.0, 100_001)[:, None]
    d = _flip_distances(h, X, W, h.predict_batch(X), np.repeat(radii, 3, axis=1))
    assert d[0] == pytest.approx(0.65, abs=1e-5)
    assert d[1] == math.inf and d[2] == math.inf
    none = _flip_distances(h, X[1:], W[1:], h.predict_batch(X[1:]), np.repeat(radii, 2, axis=1))
    assert none.tolist() == [math.inf, math.inf]  # no row to bisect


# --- profile --------------------------------------------------------------------

def uniform_1d(stream, n):
    return stream.uniform((n, 1))


def test_threshold_profile_matches_closed_form():
    t = 0.5
    h = Witnessed(Threshold1D(t), lambda X: 2 * t - X)
    radii = [0.05, 0.1, 0.2, 0.4]
    prof = margin_profile(uniform_1d, h, radii, N=100_000, probes=20,
                          stream=RandomStream(5))
    for r, v in zip(prof.radii, prof.values):
        closed = min(t + r, 1.0) - max(t - r, 0.0)
        assert abs(v - closed) < 0.02


def test_two_rectangle_slab_formula():
    sc = TwoRectangles(0.2)
    h = Witnessed(sc.bayes, lambda X: X * [1.0, -1.0])
    prof = margin_profile(sc.sampler, h, [0.1, 0.2], N=100_000, probes=0,
                          stream=RandomStream(6))
    for r, v in zip(prof.radii, prof.values):
        assert abs(v - sc.margin_slab_mass(r)) < 0.01


def test_circles_profile_is_zero_below_the_gap():
    geom = shape_geometry("circles")
    h = NearestSetClassifier(geom.class_support(0, 2000), geom.class_support(1, 2000))
    # normalized gap between the circles is 0.25; probe well below it
    prof = margin_profile(manifold_sampler("circles"), h, [0.025], N=400, probes=20,
                          stream=RandomStream(7))
    assert prof.values[0] == 0.0


def test_profile_is_one_beyond_the_diameter():
    geom = shape_geometry("circles")
    h = NearestSetClassifier(geom.class_support(0, 1000), geom.class_support(1, 1000))
    prof = margin_profile(manifold_sampler("circles"), h, [math.sqrt(2.0)], N=300, probes=10,
                          stream=RandomStream(8))
    assert prof.values[0] == 1.0


def test_profile_monotone_and_zero_at_zero():
    h = Witnessed(Threshold1D(0.5), lambda X: 1.0 - X)
    prof = margin_profile(uniform_1d, h, [0.0, 0.05, 0.1, 0.3], N=5000, probes=20,
                          stream=RandomStream(9))
    assert prof.values[0] == 0.0
    assert np.all(np.diff(prof.values) >= 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        MarginProfile(np.array([0.1, 0.1]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        MarginProfile(np.array([0.1, 0.2]), np.array([0.5, 0.2]))
    with pytest.raises(ValueError, match=">= 0"):
        MarginProfile(np.array([-1.0, 0.1]), np.array([0.1, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        MarginProfile([0.1, math.inf], [0.1, 0.5])


def test_profile_rejects_a_negative_probe_count_before_sampling():
    def sampler(stream, n):
        raise AssertionError("sampled before the probe count was checked")

    with pytest.raises(ValueError, match="probe"):
        margin_profile(sampler, Threshold1D(0.0), [0.1], N=4, probes=-1, stream=RandomStream(0))


# --- inverse and the sample bound ---------------------------------------------------

def step_profile():
    return MarginProfile(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.05, 0.2]))


def test_inverse_epsilon_one_returns_last_radius():
    assert inverse_phi(step_profile(), 1.0) == pytest.approx(0.3)


def test_inverse_epsilon_zero_on_positive_profile():
    prof = MarginProfile(np.array([0.1, 0.2]), np.array([0.01, 0.5]))
    assert inverse_phi(prof, 0.0) == 0.0


def test_inverse_step_table():
    assert inverse_phi(step_profile(), 0.1) == pytest.approx(0.2)


def test_inverse_profile_consistency():
    h = Witnessed(Threshold1D(0.5), lambda X: 1.0 - X)
    prof = margin_profile(uniform_1d, h, [0.02, 0.05, 0.1, 0.2, 0.45], N=4000, probes=20,
                          stream=RandomStream(10))
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


@pytest.mark.parametrize("args, want", [
    ((400, 0.05, 0.05, 0.5), math.inf),   # d ** (d / 2) overflows
    ((200, 0.05, 0.05, 0.01), math.inf),  # r_eps ** d underflows to 0
    ((40, 0.05, 0.05, 1e10), 0.0),        # r_eps ** d overflows
])
def test_sample_bound_is_inf_above_the_float_range_and_zero_below(args, want):
    assert nn_sample_bound(*args) == want


def test_sample_bound_is_finite_when_only_a_part_overflows():
    # 3^200 * 200^100 overflows to inf, but the bound itself is about 5e127
    want = math.exp(200 * math.log(3.0 * math.sqrt(200) / 10.0) - 1.0 - 2 * math.log(0.05))
    assert nn_sample_bound(200, 0.05, 0.05, 10.0) == pytest.approx(want, rel=1e-12)


def test_sample_bound_rejects_zero_radius():
    with pytest.raises(ValueError):
        nn_sample_bound(2, 0.1, 0.1, 0.0)


def test_profile_csv_roundtrip(tmp_path):
    prof = step_profile()
    path = tmp_path / "profile.csv"
    write_text_lines(path, prof.csv_lines())
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
        s = stream.child(1)
        offsets = margin.unit_ball(s.normal((N, probes, X.shape[1])), s.uniform((N, probes)))
    for r in radii:
        if r > 0.0 and probes > 0:
            Z = X[:, None, :] + r * offsets
            pred = h.predict_batch(Z.reshape(N * probes, X.shape[1])).reshape(N, probes)
            member = member | np.any(pred != preds[:, None], axis=1)
        values.append(np.mean(member | (flips < r)))
    return np.maximum.accumulate(np.array(values))


def with_axis_probes(draw):
    """A ball primitive whose first 2 d probes per row are the unit vectors +-e_k:
    exactly on the sphere, where the certificate's slack matters."""
    def sample(gauss, u):
        out = draw(gauss, u)
        d = out.shape[-1]
        m = min(out.shape[-2], 2 * d)
        out[..., :m, :] = np.vstack([np.eye(d), -np.eye(d)])[:m]
        return out
    return sample


def pruned_and_reference(s0, s1, X, radii, probes, seed):
    h = NearestSetClassifier(s0, s1)
    points = lambda stream, n: X
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(margin, "unit_ball", with_axis_probes(margin.unit_ball))
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


def count_probe_rows(monkeypatch):
    """[nominal, evaluated], filled by later `margin_profile` calls: the probe
    rows it hands to `probe_flags` (every sample point at every probed radius)
    and the ones `probe_flags` classifies."""
    counts = [0, 0]

    class Counted:
        def __init__(self, h):
            self.h = h

        def predict_batch(self, X):
            counts[1] += len(X)
            return self.h.predict_batch(X)

    def counted(h, X, offsets, *rest):
        counts[0] += offsets.shape[0] * offsets.shape[1]
        return probe_flags(Counted(h), X, offsets, *rest)

    monkeypatch.setattr(losses, "probe_flags", counted)
    return counts


def test_pruned_circles_profile_matches_the_unpruned_loop(monkeypatch):
    geom = shape_geometry("circles")
    h = NearestSetClassifier(geom.class_support(0, 1000), geom.class_support(1, 1000))
    sampler = manifold_sampler("circles")
    radii = [0.01, 0.05, 0.1, 0.124, 0.125, 0.126, 0.2, 0.5]
    want = reference_profile(sampler, h, radii, 200, 30, RandomStream(11),
                             lambda X: h.opposite_witness(X)[1])
    counts = count_probe_rows(monkeypatch)
    got = margin_profile(sampler, h, radii, N=200, probes=30, stream=RandomStream(11))
    assert got.values.tobytes() == want.tobytes()
    assert counts[1] < counts[0]


def uniform_2d(stream, n):
    return stream.uniform((n, 2))


def test_pruned_generic_profiles_match_the_unpruned_loop():
    rng = np.random.default_rng(12)
    s0, s1 = rng.random((60, 2)), rng.random((60, 2)) + [0.3, 0.0]
    nn = NnClassifier(LabeledDataset(np.vstack([s0, s1]), np.repeat([0, 1], 60)))
    radii = [0.02, 0.05, 0.1, 0.3]
    witness = lambda X: 1.0 - X
    for h in (nn, Threshold1D(0.6)):
        for g, w in ((Hidden(h), None), (Witnessed(h, witness), witness)):
            got = margin_profile(uniform_2d, g, radii, N=150, probes=25,
                                 stream=RandomStream(13))
            want = reference_profile(uniform_2d, h, radii, 150, 25, RandomStream(13), w)
            assert got.values.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(lattice_supports())
def test_grid_stop_decides_like_the_full_bisection(case):
    s0, s1, X = case
    X = np.vstack([X, s0, s1])
    h = NearestSetClassifier(s0, s1)
    W, preds = h.opposite_witness(X)[1], h.predict_batch(X)
    full = reference_flips(h, X, W, preds)
    # grid radii at the exact flip distances make `flips < r` a tie
    radii = np.unique(np.concatenate([full[np.isfinite(full)], [0.0, 0.1, 0.25, 1.0]]))
    got = _flip_distances(h, X, W, preds, np.repeat(radii[:, None], len(X), axis=1))
    assert np.array_equal(got[:, None] < radii, full[:, None] < radii)
    # a grid per row: its own flip distance and its neighbour's (ties), and
    # the shared radii stretched by a factor of the row's own
    own = np.where(np.isfinite(full), full, 0.5)
    R = np.vstack([own, np.roll(own, 1),
                   np.outer([0.1, 0.25, 1.0], 1.0 + np.arange(len(X)) / len(X))])
    got = _flip_distances(h, X, W, preds, R)
    assert np.array_equal(got < R, full < R)


def test_certified_radius_holds_on_its_sphere():
    geom = shape_geometry("circles")
    h = NearestSetClassifier(geom.class_support(0, 500), geom.class_support(1, 500))
    rng = np.random.default_rng(14)
    X = rng.random((400, 2))
    _, W, safe = h.opposite_witness(X)
    labels = h.predict_batch(X)
    rows = safe > 0.0
    assert rows.sum() > 300
    toward = (W - X) / np.sqrt(np.sum((W - X) ** 2, axis=1))[:, None]
    for u in (toward, [1.0, 0.0], [0.0, -1.0], -toward):
        Z = X[rows] + safe[rows, None] * np.broadcast_to(u, X.shape)[rows]
        assert np.array_equal(h.predict_batch(Z), labels[rows])


def test_profile_counts_nominal_and_evaluated_probes(monkeypatch):
    geom = shape_geometry("circles")
    h = NearestSetClassifier(geom.class_support(0, 1000), geom.class_support(1, 1000))
    grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    counts = count_probe_rows(monkeypatch)
    margin_profile(manifold_sampler("circles"), h, grid, N=50, probes=20,
                   stream=RandomStream(15))
    # every ball below the 0.125 gap is certified, every larger one decided
    # by the witness flip
    assert counts == [6000, 0]
    rng = np.random.default_rng(16)
    pts, labels = rng.random((200, 2)), rng.integers(0, 2, 200)
    h = NearestSetClassifier(pts[labels == 0], pts[labels == 1])
    counts[:] = [0, 0]
    margin_profile(uniform_2d, h, [0.0] + grid, N=100, probes=30, stream=RandomStream(17))
    assert counts == [18000, 1162]


# --- 1-NN, witnessed ----------------------------------------------------------------

@pytest.mark.parametrize("shape", ["circles", "sines"])
def test_nn_profile_over_both_supports_is_the_nearest_set_profile(shape):
    # for two labels 1-NN is the nearest-set rule, witnesses and certificate too
    geom = shape_geometry(shape)
    s0, s1 = geom.class_support(0, 1000), geom.class_support(1, 1000)
    nn = NnClassifier(LabeledDataset(np.vstack([s0, s1]), np.repeat([0, 1], 1000)))
    grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    got, want = (margin_profile(manifold_sampler(shape), h, grid, N=300, probes=20,
                                stream=RandomStream(18))
                 for h in (nn, NearestSetClassifier(s0, s1)))
    assert got.values.tobytes() == want.values.tobytes()


def test_single_class_nn_is_its_own_witness():
    rng = np.random.default_rng(19)
    h = NnClassifier(LabeledDataset(rng.random((40, 2)), np.full(40, 3)))
    X = rng.random((100, 2))
    labels, W, safe = h.opposite_witness(X)
    assert np.all(labels == 3) and W.tobytes() == X.tobytes() and np.all(safe > 0.0)
    got, want = (margin_profile(uniform_2d, g, [0.1, 0.5, 2.0], N=100, probes=10,
                                stream=RandomStream(20)) for g in (h, Hidden(h)))
    assert got.values.tobytes() == want.values.tobytes()
