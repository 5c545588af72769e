import math

import numpy as np
import pytest

from adaptrobust.core import LabeledDataset
from adaptrobust.datagen import (
    SHAPE_NAMES,
    ShapeSpec,
    SplitSpec,
    generate,
    load_csv,
    manifold_sampler,
    save_csv,
    shape_geometry,
    split,
)
from adaptrobust.core import RandomStream


def test_circles_points_satisfy_circle_equation():
    ds = generate(ShapeSpec("circles", 1000, seed=7))
    geom = shape_geometry("circles")
    raw = ds.points * (geom.hi - geom.lo) + geom.lo
    r2 = raw[:, 0] ** 2 + raw[:, 1] ** 2
    assert np.abs(r2[ds.labels == 0] - 1.0).max() <= 1e-9
    assert np.abs(r2[ds.labels == 1] - 4.0).max() <= 1e-9


def test_sines_points_lie_on_their_curves():
    ds = generate(ShapeSpec("sines", 400, seed=3))
    geom = shape_geometry("sines")
    raw = ds.points * (geom.hi - geom.lo) + geom.lo
    resid0 = raw[ds.labels == 0, 1] - 0.5 * np.sin(2 * np.pi * raw[ds.labels == 0, 0])
    resid1 = raw[ds.labels == 1, 1] - 0.5 * np.sin(2 * np.pi * raw[ds.labels == 1, 0]) - 0.6
    assert np.abs(resid0).max() <= 1e-9
    assert np.abs(resid1).max() <= 1e-9


@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_generated_points_in_unit_square_with_both_classes(shape):
    ds = generate(ShapeSpec(shape, 500, seed=11))
    assert ds.points.min() >= 0.0 and ds.points.max() <= 1.0
    assert set(np.unique(ds.labels)) == {0, 1}


@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_n2_gives_one_point_per_class(shape):
    ds = generate(ShapeSpec(shape, 2, seed=0))
    assert sorted(ds.labels.tolist()) == [0, 1]


def test_generation_is_bit_identical_for_equal_seeds():
    a = generate(ShapeSpec("sines", 300, seed=9))
    b = generate(ShapeSpec("sines", 300, seed=9))
    assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
    c = generate(ShapeSpec("sines", 300, seed=10))
    assert not np.array_equal(a.points, c.points)


def test_unknown_shape_errors():
    with pytest.raises(ValueError, match="unknown shape"):
        ShapeSpec("pentagon", 10, seed=0)


def test_label_noise_flips_labels():
    clean = generate(ShapeSpec("boxes", 1000, seed=5))
    noisy = generate(ShapeSpec("boxes", 1000, seed=5, label_noise=0.3))
    assert np.array_equal(clean.points, noisy.points)
    flipped = np.mean(clean.labels != noisy.labels)
    assert 0.2 < flipped < 0.4


def test_manifold_sampler_stays_on_unit_square():
    sampler = manifold_sampler("nnn")
    X = sampler(RandomStream(4), 200)
    assert X.shape == (200, 2)
    assert X.min() >= 0.0 and X.max() <= 1.0


# --- split ----------------------------------------------------------------------

def test_split_sizes_80_20():
    ds = generate(ShapeSpec("circles", 1000, seed=1))
    tr, te = split(ds, SplitSpec(0.8, seed=2))
    assert (tr.n, te.n) == (800, 200)


def test_split_small_rounding():
    ds = generate(ShapeSpec("circles", 5, seed=1))
    tr, te = split(ds, SplitSpec(0.8, seed=2))
    assert (tr.n, te.n) == (4, 1)


@pytest.mark.parametrize("fraction", [0.8, 0.2])
def test_split_rejects_an_empty_side(fraction):
    ds = generate(ShapeSpec("circles", 2, seed=0))  # round(fraction * 2) is 2 or 0
    with pytest.raises(ValueError, match="leaves a side empty"):
        split(ds, SplitSpec(fraction))


def test_split_is_a_partition():
    ds = generate(ShapeSpec("boxes", 101, seed=3))
    tr, te = split(ds, SplitSpec(0.7, seed=4))
    combined = np.vstack([np.column_stack([tr.points, tr.labels]),
                          np.column_stack([te.points, te.labels])])
    original = np.column_stack([ds.points, ds.labels])
    key = lambda arr: arr[np.lexsort(arr.T)]
    assert np.array_equal(key(combined), key(original))


def test_split_deterministic():
    ds = generate(ShapeSpec("boxes", 50, seed=3))
    tr1, _ = split(ds, SplitSpec(0.8, seed=9))
    tr2, _ = split(ds, SplitSpec(0.8, seed=9))
    assert np.array_equal(tr1.points, tr2.points)


# --- CSV ------------------------------------------------------------------------

def test_csv_roundtrip_bytes(tmp_path):
    ds = generate(ShapeSpec("sfigure", 97, seed=12))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(ds, p1)
    loaded = load_csv(p1)
    save_csv(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_origin_column_roundtrip(tmp_path):
    ds = LabeledDataset(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 1]))
    path = tmp_path / "aug.csv"
    save_csv(ds, path, origins=np.array([-1, 0]))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x1,x2,label,origin"
    loaded = load_csv(path)
    assert np.array_equal(loaded.points, ds.points)


def test_csv_errors_name_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,label\n1.0,0\noops,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)
    path.write_text("x1,label\n1.0,0\nnan,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)
    path.write_text("x1,label\n1.0,0\n2.0,1.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2.*label"):
        load_csv(path)
    path.write_text("x1,label\n1.0,0\n2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)
    for label in ("-1", str(2**63)):
        path.write_text(f"x1,label\n1.0,0\n2.0,{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.csv: row 2: label {label} outside"):
            load_csv(path)


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)
