import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust.core import (
    LabeledDataset,
    RandomStream,
    as_point,
    check_range,
    column_span,
    row_reduce,
    sq_dists_to,
    write_text_lines,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def kernel_distance(p, q):
    """Euclidean distance through the library's squared-distance kernel."""
    return float(np.sqrt(sq_dists_to(as_point(p)[:, None], as_point(q)[:, None])[0]))


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


@st.composite
def narrow_and_wide(draw):
    """A 2-D or 3-D array with 0-12 columns (last axis) of exact zeros and
    magnitudes within 7 decades of a scale from 1e-300 to 1e293, so that
    summation order shows in the last bits. The helpers only ever see squares
    and absolute values, so there are no signs."""
    lead = draw(st.lists(st.integers(0, 12), min_size=1, max_size=2))
    shape = (*lead, draw(st.integers(0, 12)))
    scale = draw(st.integers(-300, 293))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(1.0, 10.0, shape) * 10.0 ** (scale + rng.integers(0, 7, shape))
    A[rng.random(shape) < 0.2] = 0.0
    return A


@settings(max_examples=300, deadline=None)
@given(narrow_and_wide())
def test_column_reductions_are_numpys_bit_for_bit(A):
    # sums: a column fold below 8 columns, np.sum from 8, the same bytes both ways
    assert row_reduce(np.add, A).tobytes() == np.sum(A, axis=-1).tobytes()
    assert (row_reduce(np.maximum, np.abs(A)).tobytes()
            == np.abs(A).max(axis=-1, initial=0.0).tobytes())
    if A.ndim == 2 and A.shape[0] > 0:
        lo, extent = column_span(A)
        assert lo.tobytes() == A.min(axis=0).tobytes()
        assert extent.tobytes() == np.ptp(A, axis=0).tobytes()


@st.composite
def pairs_case(draw):
    """Points (n, d) and queries (k, d) with 0-12 coordinates, exact zeros and
    magnitudes within 7 decades of a scale from 1e-150 to 1e146, so the squared
    terms span a scale from 1e-300 to 1e293 and summation order shows in the
    last bits; some points equal a query (distance exactly 0). Each query is
    paired with cnt[k] random positions, repeats allowed."""
    n, k, d = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(0, 12))
    scale = draw(st.integers(-150, 146))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coords(shape):
        A = rng.uniform(1.0, 10.0, shape) * 10.0 ** (scale + rng.integers(0, 7, shape))
        A *= rng.choice([-1.0, 1.0], shape)
        A[rng.random(shape) < 0.2] = 0.0
        return A

    P, Q = coords((n, d)), coords((k, d))
    P[rng.random(n) < 0.3] = Q[0]
    cnt = rng.integers(0, 2 * n, k)
    return P, Q, rng.integers(0, n, cnt.sum()), cnt


@settings(max_examples=300, deadline=None)
@given(pairs_case())
def test_distance_kernel_is_numpys_sum_bit_for_bit(case):
    # one coordinate at a time, summed by columns below 8 and pairwise from 8:
    # the bytes of numpy's row sum of the squared differences either way
    P, Q, pos, cnt = case
    want = np.sum((P[pos] - np.repeat(Q, cnt, axis=0)) ** 2, axis=-1)
    assert sq_dists_to(P.T, Q.T, pos, cnt).tobytes() == want.tobytes()
    scan = np.sum((P - Q[0]) ** 2, axis=-1)  # the default form: every point to one query
    assert sq_dists_to(P.T, Q[:1].T).tobytes() == scan.tobytes()


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


# --- the one interval rule --------------------------------------------------------

ENDS = st.floats(allow_nan=False) | st.sampled_from([-math.inf, math.inf, -1.0, 0.0, 1.0])


@st.composite
def intervals(draw):
    """(text, lo, hi, left, right) of an interval with lo <= hi, ends possibly infinite."""
    lo, hi = sorted([draw(ENDS), draw(ENDS)])
    left, right = draw(st.sampled_from("[(")), draw(st.sampled_from("])"))
    return f"{left}{lo!r}, {hi!r}{right}", lo, hi, left, right


def lies_in(x, lo, hi, left, right) -> bool:
    """Between the ends, and not on an open one."""
    return lo <= x <= hi and not (x == lo and left == "(") and not (x == hi and right == ")")


@settings(max_examples=300, deadline=None)
@given(intervals(), st.data())
def test_check_range_accepts_exactly_the_interval(iv, data):
    text, lo, hi, left, right = iv
    x = data.draw(st.sampled_from([lo, hi]) | st.floats(allow_nan=False))
    if lies_in(x, lo, hi, left, right):
        check_range("v", x, text)
    else:
        with pytest.raises(ValueError) as err:
            check_range("v", x, text)
        assert str(err.value) == f"v {x!r}: must lie in {text}"


@settings(max_examples=100, deadline=None)
@given(intervals())
def test_nan_and_none_lie_in_no_interval(iv):
    text = iv[0]
    for bad in (math.nan, None, [math.nan]):
        with pytest.raises(ValueError, match=r"^v (nan|None): must lie in "):
            check_range("v", bad, text)


@settings(max_examples=300, deadline=None)
@given(intervals(), st.lists(st.floats(allow_nan=True), min_size=1, max_size=6), st.booleans())
def test_an_array_passes_only_when_every_element_passes(iv, xs, column):
    text, lo, hi, left, right = iv
    values = np.array(xs).reshape(-1, 1) if column else xs
    failing = [x for x in xs if not lies_in(x, lo, hi, left, right)]
    if not failing:
        check_range("v", values, text)
    else:
        with pytest.raises(ValueError) as err:
            check_range("v", values, text)
        assert str(err.value) == f"v {failing[0]!r}: must lie in {text}"


def test_check_range_message_shows_the_value_as_given():
    with pytest.raises(ValueError) as err:
        check_range("--n", 1, "[2, inf)")
    assert str(err.value) == "--n 1: must lie in [2, inf)"
    check_range("n", 10**400, "[2, inf)")  # an int too large for a float still compares
    check_range("threshold", -math.inf, "[-inf, inf]")


def test_the_integer_form_takes_integers_only():
    for good in (3, np.int64(3), np.uint8(3), 10**400, [1, 2], np.array([1, 2], dtype=np.int32)):
        check_range("n", good, "[1, inf) int")
    for bad in (0, True, np.True_, 3.0, np.float64(3.0), math.nan, None, [1.0, 2.0], [True], "3"):
        with pytest.raises(ValueError, match=r"^n .+: must lie in \[1, inf\) int$"):
            check_range("n", bad, "[1, inf) int")


# --- text output ------------------------------------------------------------------

def test_write_text_lines_ends_every_line_in_lf(tmp_path):
    path = tmp_path / "out.txt"
    write_text_lines(path, ["a,b", "", "\u00e9"])
    assert path.read_bytes() == "a,b\n\n\u00e9\n".encode("utf-8")


def writes_a_file(call: ast.Call) -> bool:
    """`x.write_text(...)`, or `open(...)` or `x.open(...)` with a mode that is
    not a literal read-only one."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "write_text":
        return True
    if name != "open":
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1 if isinstance(func, ast.Name) else 0:][:1]
    return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
               for m in modes)


def test_every_text_file_is_written_by_write_text_lines():
    # one writer fixes the encoding and the LF line ends for every output file,
    # and only the CLI calls it: the library returns lines and does no output I/O
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tree.body = [n for n in tree.body if getattr(n, "name", None) != "write_text_lines"]
        for n in ast.walk(tree):
            func = getattr(n, "func", None)
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if isinstance(n, ast.Call) and (writes_a_file(n) or (
                    name == "write_text_lines" and path.name != "cli.py")):
                hits.append(f"{path.name}:{n.lineno}")
    assert hits == []
