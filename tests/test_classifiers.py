"""Batch-first contract: for every classifier, predict(x) is row i of
predict_batch(X), including on duplicated points and exact distance ties."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptrobust.core import LabeledDataset, sq_dists_to
from adaptrobust.margin import NearestSetClassifier
from adaptrobust.mlp import MlpClassifier, init
from adaptrobust.neighbors import NnClassifier
from adaptrobust.scenarios import ConstantClassifier, HalfspaceClassifier

# Coordinates on a quarter-step lattice: squared distances are exact in
# float64, so duplicated points and equidistant neighbours really tie.
LATTICE = st.integers(0, 4).map(lambda v: v / 4.0)


@st.composite
def cloud(draw, d, min_size):
    rows = draw(st.lists(st.lists(LATTICE, min_size=d, max_size=d),
                         min_size=min_size, max_size=12))
    return np.array(rows, dtype=np.float64).reshape(-1, d)


@st.composite
def setting(draw):
    d = draw(st.integers(1, 3))
    train = draw(cloud(d, 1))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=len(train),
                                    max_size=len(train))), dtype=np.int64)
    queries = draw(cloud(d, 1))
    # re-query some training points so exact hits and duplicates occur
    queries = np.vstack([queries, train[: draw(st.integers(0, len(train)))]])
    return d, train, labels, queries


def assert_batch_first(h, X):
    batch = h.predict_batch(X)
    assert batch.dtype == np.int64 and batch.shape == (X.shape[0],)
    assert [h.predict(x) for x in X] == batch.tolist()
    return batch


@settings(max_examples=150, deadline=None)
@given(setting(), st.integers(0, 2**31 - 1), st.integers(0, 1))
def test_predict_is_one_row_of_predict_batch(s, seed, label):
    d, train, labels, X = s
    h_nn = NnClassifier(LabeledDataset(train, labels))
    got = assert_batch_first(h_nn, X)
    for x, y in zip(X, got):  # ties go to the smallest index
        d2 = sq_dists_to(train, x)
        assert y == labels[np.flatnonzero(d2 == d2.min())[0]]

    half = max(1, len(train) // 2)
    support0, support1 = train[:half], (train[half:] if len(train) > 1 else train)
    h_set = NearestSetClassifier(support0, support1)
    got = assert_batch_first(h_set, X)
    for x, y in zip(X, got):  # exact ties between the sets go to 0
        d0, d1 = sq_dists_to(support0, x).min(), sq_dists_to(support1, x).min()
        assert y == (0 if d0 <= d1 else 1)

    assert_batch_first(MlpClassifier(init(d, seed=seed)), X)
    assert_batch_first(HalfspaceClassifier(seed % d, float(train[0, seed % d]), label), X)
    assert_batch_first(ConstantClassifier(label), X)
