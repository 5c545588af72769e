import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust.core import (
    LabeledDataset,
    RandomStream,
    as_point,
    sq_dists_to,
)


def kernel_distance(p, q):
    """Euclidean distance through the library's squared-distance kernel."""
    return float(np.sqrt(sq_dists_to(np.atleast_2d(as_point(p)), as_point(q))[0]))


def oracle_distance(p, q):
    # independent coordinate-wise summation oracle
    total = 0.0
    for a, b in zip(p, q):
        total += (a - b) ** 2
    return math.sqrt(total)


def test_distance_identity():
    assert kernel_distance([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_distance_3_4_5():
    assert kernel_distance([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_distance_matches_summation_oracle_in_10d():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = rng.normal(size=10)
        q = rng.normal(size=10)
        assert kernel_distance(p, q) == pytest.approx(oracle_distance(p, q), abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_triangle_inequality_randomized(d):
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(2500, 3, d)) * 10
    for p, q, r in pts:
        assert kernel_distance(p, q) <= kernel_distance(p, r) + kernel_distance(r, q) + 1e-12


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
)
def test_distance_symmetric_nonnegative(xs, ys):
    n = min(len(xs), len(ys))
    p, q = xs[:n], ys[:n]
    assert kernel_distance(p, q) >= 0.0
    assert kernel_distance(p, q) == kernel_distance(q, p)


def test_random_stream_replay_100k():
    a = RandomStream(123456789)
    b = RandomStream(123456789)
    assert np.array_equal(a.uniform(100_000), b.uniform(100_000))


def test_random_stream_different_seeds_differ():
    assert not np.array_equal(RandomStream(1).uniform(100), RandomStream(2).uniform(100))


def test_random_stream_child_is_order_independent():
    parent = RandomStream(7)
    parent.uniform(100)  # consuming the parent must not affect children
    late_child = parent.child(3).uniform(50)
    fresh_child = RandomStream(7).child(3).uniform(50)
    assert np.array_equal(late_child, fresh_child)


def test_random_stream_child_keys_distinct():
    s = RandomStream(7)
    assert not np.array_equal(s.child(0).uniform(50), s.child(1).uniform(50))
    assert s.child(0, 1).derive_seed() != s.child(1, 0).derive_seed()


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.nan, 0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([-1, 0]))


def test_dataset_default_diameter_is_sqrt_d_for_unit_cube():
    ds = LabeledDataset(np.array([[0.1, 0.2], [0.9, 0.8]]), np.array([0, 1]))
    assert ds.diameter_bound == pytest.approx(math.sqrt(2))


def test_dataset_default_diameter_covers_wide_data():
    pts = np.array([[-5.0, 0.0], [5.0, 0.0]])
    ds = LabeledDataset(pts, np.array([0, 1]))
    assert ds.diameter_bound >= 10.0


def test_dataset_diameter_is_derived_from_its_own_points():
    ds = LabeledDataset(np.array([[-5.0, 0.0], [0.1, 0.2], [0.9, 0.8]]), np.array([0, 1, 0]))
    assert ds.subset([1, 2]).diameter_bound == math.sqrt(2)  # the parent has about 5.95
    with pytest.raises(TypeError):
        LabeledDataset(ds.points, ds.labels, 10.0)


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([np.inf])
