import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust.augment import ExpansionSpec, augment, expand, point_offsets, unit_ball
from adaptrobust.core import LabeledDataset, RandomStream
from adaptrobust.datagen import ShapeSpec, generate
from adaptrobust.losses import adaptive_robust_empirical, adaptive_robust_testtime
from adaptrobust.neighbors import NnClassifier, rho_all


def sample_ball_uniform(centers, radii, stream):
    """The reference ball sampler: uniform draws from the balls around
    `centers` (..., d), `radii` broadcast over the leading axes, all Gaussians
    drawn before all uniforms."""
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), centers.shape[:-1])
    return centers + radii[..., None] * unit_ball(stream.normal(centers.shape),
                                                  stream.uniform(radii.shape))


def random_dataset(rng, n, d):
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    return LabeledDataset(rng.random((n, d)), labels)


# --- expand -----------------------------------------------------------------

def test_expand_c0_is_identity():
    rng = np.random.default_rng(0)
    S = random_dataset(rng, 20, 2)
    assert np.array_equal(expand(S, 0.0), np.zeros(S.n))
    aug, _ = augment(S, ExpansionSpec(c=0.0, m=2, include_originals=False, seed=1))
    assert np.array_equal(aug.points, np.repeat(S.points, 2, axis=0))
    assert np.array_equal(aug.labels, np.repeat(S.labels, 2))


def test_expand_two_point():
    S = LabeledDataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0, 1]))
    assert expand(S, 0.5).tolist() == [0.5, 0.5]


def test_radii_that_leave_the_float_range_stop_naming_their_factor():
    # 1e308 * 2 is inf: one line naming the factor, and no numpy overflow
    # warning (the suite turns RuntimeWarning into an error)
    S = LabeledDataset(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 1]))
    want = r"^{} 1e\+308: the points are too far apart: squared distances overflow$"
    for call, name in [(lambda: expand(S, 1e308), "c"),
                       (lambda: augment(S, ExpansionSpec(c=1e308, m=2)), "c"),
                       (lambda: adaptive_robust_empirical(NnClassifier(S), S, c=1e308,
                                                          stream=RandomStream(0)), "c"),
                       (lambda: adaptive_robust_testtime(NnClassifier(S), S, S, factor=1e308,
                                                         stream=RandomStream(0)), "factor")]:
        with pytest.raises(ValueError, match=want.format(name)):
            call()


def test_expand_half_gives_disjoint_opposite_balls():
    # pairwise oracle over random datasets; radius_i + radius_j <= ||x_i - x_j||
    rng = np.random.default_rng(1)
    for trial in range(50):
        d = int(rng.choice([1, 2, 5]))
        S = random_dataset(rng, int(rng.integers(5, 60)), d)
        radii = expand(S, 0.5)
        for i in range(S.n):
            for j in range(i + 1, S.n):
                if S.labels[i] != S.labels[j]:
                    gap = math.sqrt(float(np.sum((S.points[i] - S.points[j]) ** 2)))
                    assert radii[i] + radii[j] <= gap + 1e-9


# --- uniform ball sampling -----------------------------------------------------

def test_zero_radius_returns_center():
    S = LabeledDataset(np.array([[0.3, 0.7], [0.1, 0.2]]), np.array([0, 1]))
    aug, _ = augment(S, ExpansionSpec(fixed_radius=0.0, m=3, include_originals=False))
    assert np.array_equal(aug.points, np.repeat(S.points, 3, axis=0))


def test_mean_radius_d2():
    # E||z|| = d/(d+1) * R = 2/3 for d=2, R=1
    stream = RandomStream(42)
    c = np.zeros(2)
    draws = sample_ball_uniform(np.broadcast_to(c, (100_000, 2)), 1.0, stream)
    mean_r = np.mean(np.sqrt(np.sum(draws**2, axis=1)))
    assert abs(mean_r - 2.0 / 3.0) < 0.01


def test_volume_fraction_d5():
    # P(||z|| < R/2) = (1/2)^5
    stream = RandomStream(7)
    c = np.zeros(5)
    draws = sample_ball_uniform(np.broadcast_to(c, (100_000, 5)), 1.0, stream)
    frac = np.mean(np.sqrt(np.sum(draws**2, axis=1)) < 0.5)
    assert abs(frac - 0.5**5) < 0.005


def test_sampler_against_rejection_oracle_d2():
    # rejection sampling from the bounding square is uniform on the ball by
    # construction; compare mean radius and quadrant occupancy
    rng = np.random.default_rng(3)
    kept = []
    while len(kept) < 50_000:
        cand = rng.random((10_000, 2)) * 2.0 - 1.0
        norms = np.sqrt(np.sum(cand**2, axis=1))
        kept.extend(cand[norms < 1.0].tolist())
    oracle = np.array(kept[:50_000])

    stream = RandomStream(11)
    ours = sample_ball_uniform(np.zeros((50_000, 2)), 1.0, stream)

    assert abs(np.mean(np.linalg.norm(ours, axis=1)) - np.mean(np.linalg.norm(oracle, axis=1))) < 0.01
    for sx in (1, -1):
        for sy in (1, -1):
            q_ours = np.mean((np.sign(ours[:, 0]) == sx) & (np.sign(ours[:, 1]) == sy))
            q_orac = np.mean((np.sign(oracle[:, 0]) == sx) & (np.sign(oracle[:, 1]) == sy))
            assert abs(q_ours - q_orac) < 0.01


def test_samples_stay_inside_the_ball():
    stream = RandomStream(5)
    c = np.array([1.0, -2.0, 0.5])
    for _ in range(2000):
        z = sample_ball_uniform(c, 0.7, stream)
        assert np.sqrt(np.sum((z - c) ** 2)) <= 0.7
    Z = sample_ball_uniform(np.broadcast_to(c, (50, 40, 3)), np.linspace(0.0, 1.0, 40), stream)
    assert Z.shape == (50, 40, 3)
    assert np.all(np.sqrt(np.sum((Z - c) ** 2, axis=2)) <= np.linspace(0.0, 1.0, 40))


def test_broadcast_draws_consume_the_stream_like_one_call():
    # the per-item probe offsets of the losses and the margin profile's
    # offsets both come from this one primitive
    s = RandomStream(9)
    a = unit_ball(s.normal((7, 4, 3)), s.uniform((7, 4)))
    s = RandomStream(9)
    dirs = s.normal((7, 4, 3))
    norms = np.sqrt(np.sum(dirs**2, axis=2, keepdims=True))
    want = dirs / norms * s.uniform((7, 4))[..., None] ** (1.0 / 3)
    assert np.array_equal(a, want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 25), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_point_offsets_equal_the_per_item_sampler(n, k, d, seed):
    # the batched transform gives every item the bytes of its own sampler call,
    # up to the sign of a zero: adding the sampler's 0.0 centre turns -0.0 into
    # 0.0, and the offsets keep -0.0 (which needs a draw of exactly 0)
    stream = RandomStream(seed).child(5)
    want = np.stack([sample_ball_uniform(np.zeros((k, d)), 1.0, stream.child(i))
                     for i in range(n)])
    got = point_offsets(stream, n, k, d)
    assert got.shape == (n, k, d) and (got + 0.0).tobytes() == want.tobytes()


@pytest.mark.parametrize("k, d", [(0, 1), (4, 2), (10, 5)])
def test_point_offsets_of_no_items_are_empty(k, d):
    out = point_offsets(RandomStream(0), 0, k, d)
    assert out.shape == (0, k, d) and out.dtype == np.float64


# --- augmentation ----------------------------------------------------------------

def test_augment_counts_1000_to_5000():
    ds = generate(ShapeSpec("circles", 1000, seed=1))
    aug, origins = augment(ds, ExpansionSpec(c=0.5, m=4, seed=2))
    assert aug.n == 5000
    assert np.all(origins[:1000] == -1)
    assert np.array_equal(np.unique(origins[1000:]), np.arange(1000))


def test_augment_m1_c0_duplicates():
    rng = np.random.default_rng(4)
    S = random_dataset(rng, 30, 2)
    aug, _ = augment(S, ExpansionSpec(c=0.0, m=1, seed=3))
    assert aug.n == 60
    assert np.array_equal(aug.points[:30], S.points)
    assert np.array_equal(aug.points[30:], S.points)


def test_augmented_points_within_c_rho_of_origin():
    rng = np.random.default_rng(5)
    S = random_dataset(rng, 50, 3)
    rhos = rho_all(S)
    aug, origins = augment(S, ExpansionSpec(c=0.5, m=4, seed=6))
    for row in range(S.n, aug.n):
        i = origins[row]
        dist = math.sqrt(float(np.sum((aug.points[row] - S.points[i]) ** 2)))
        assert dist <= 0.5 * rhos[i] + 1e-12
        assert aug.labels[row] == S.labels[i]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(2, 12), st.integers(0, 2**32 - 1),
       st.floats(0.01, 2.0), st.integers(1, 4))
def test_augmented_points_lie_strictly_inside_their_balls(d, n, seed, c, m):
    rng = np.random.default_rng(seed)
    # a coarse lattice, so duplicates (some with both labels, rho = 0) occur
    S = LabeledDataset(rng.integers(0, 3, (n, d)) / 2.0, rng.integers(0, 2, n))
    radii = expand(S, c)
    aug, origins = augment(S, ExpansionSpec(c=c, m=m, seed=seed))
    drawn = origins >= 0
    dist = np.sqrt(np.sum((aug.points[drawn] - S.points[origins[drawn]]) ** 2, axis=1))
    r = radii[origins[drawn]]
    assert np.all(dist[r > 0.0] < r[r > 0.0])
    # the open ball of radius 0 is empty; its draws stay on the centre
    assert np.all(dist[r == 0.0] == 0.0)
    assert np.array_equal(aug.labels[drawn], S.labels[origins[drawn]])


def test_augment_without_originals():
    rng = np.random.default_rng(6)
    S = random_dataset(rng, 25, 2)
    aug, origins = augment(S, ExpansionSpec(c=0.5, m=3, include_originals=False, seed=7))
    assert aug.n == 75
    assert origins.min() == 0


def test_fixed_radius_augmentation_bound():
    rng = np.random.default_rng(7)
    S = random_dataset(rng, 40, 2)
    aug, origins = augment(S, ExpansionSpec(m=2, seed=8, fixed_radius=0.1))
    for row in range(S.n, aug.n):
        dist = math.sqrt(float(np.sum((aug.points[row] - S.points[origins[row]]) ** 2)))
        assert dist <= 0.1


def test_augment_deterministic():
    ds = generate(ShapeSpec("boxes", 100, seed=9))
    a1, o1 = augment(ds, ExpansionSpec(c=2 / 3, m=4, seed=10))
    a2, o2 = augment(ds, ExpansionSpec(c=2 / 3, m=4, seed=10))
    assert np.array_equal(a1.points, a2.points)
    assert np.array_equal(o1, o2)
    a3, _ = augment(ds, ExpansionSpec(c=2 / 3, m=4, seed=11))
    assert not np.array_equal(a1.points, a3.points)


def test_augment_draws_are_keyed_by_item():
    # item j draws from the child stream keyed by its index j, so its rows do
    # not depend on which later items are augmented alongside it
    rng = np.random.default_rng(12)
    S = random_dataset(rng, 40, 3)
    rhos = rho_all(S)
    for spec in (ExpansionSpec(m=3, seed=13, fixed_radius=0.2), ExpansionSpec(c=0.5, m=3, seed=13)):
        radii = np.full(S.n, 0.2) if spec.fixed_radius is not None else 0.5 * rhos
        full, origins = augment(S, spec)
        for j in (0, 17, 39):
            own = sample_ball_uniform(np.broadcast_to(S.points[j], (3, 3)), radii[j],
                                      RandomStream(13).child(j))
            assert np.array_equal(full.points[origins == j], own)
        checked = 0
        for k in (1, 7, 25):
            sub = S.subset(np.arange(k))
            part, part_origins = augment(sub, spec)
            # adaptive balls match only where the subset keeps the nearest opposite point
            same_ball = (np.full(k, True) if spec.fixed_radius is not None
                         else rho_all(sub) == rhos[:k])
            for j in np.flatnonzero(same_ball):
                assert np.array_equal(part.points[part_origins == j], full.points[origins == j])
                checked += 1
        assert checked >= 10


def test_spec_validation():
    with pytest.raises(ValueError):
        ExpansionSpec(c=-0.1)
    with pytest.raises(ValueError):
        ExpansionSpec(c=0.5, m=0)
    with pytest.raises(ValueError):
        ExpansionSpec(fixed_radius=-1.0)


@pytest.mark.parametrize("rules", [{}, {"c": 0.3, "fixed_radius": 0.5},
                                   {"c": -5.0, "fixed_radius": 0.5}],
                         ids=["neither", "both", "both-bad-c"])
def test_spec_takes_exactly_one_radius_rule(rules):
    with pytest.raises(ValueError, match="exactly one"):
        ExpansionSpec(**rules)
