"""The one-pass split search against the per-feature scan oracle.

``repro.ml.tree._split_search`` scores every candidate feature of a node
together; ``tests.oracles.scan_split_search`` sorts and scans one
candidate at a time.  Their ``(feature, threshold, score)`` must be equal
bit for bit, and a tree grown with either must be the same tree.  The
inputs are small-integer matrices, as the fingerprint features are, so
ties inside a column, equal scores across columns (duplicated columns),
constant columns and duplicate rows all occur often.
"""

import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier
from repro.ml import tree as tree_mod
from tests.oracles import scan_split_search

CLASS_COUNTS = (2, 5, 27)


def bits(value):
    return struct.pack("<d", value)


@st.composite
def node_data(draw, max_rows=40):
    """``(x, y, n_classes)``: rows from a small pool, columns from a small pool."""
    n_classes = draw(st.sampled_from(CLASS_COUNTS))
    n = draw(st.integers(min_value=2, max_value=max_rows))
    high = draw(st.integers(min_value=0, max_value=3))
    n_base = draw(st.integers(min_value=1, max_value=6))
    base = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(0, high), min_size=n_base, max_size=n_base),
                min_size=1,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    rows = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    columns = draw(st.lists(st.integers(0, n_base - 1), min_size=1, max_size=8))
    x = base[np.ix_(rows, columns)]
    y = np.asarray(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return x, y, n_classes


def assert_same_split(x, y, candidates, n_classes):
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    feature, threshold, score = tree_mod._split_search(x, y, candidates, counts)
    want_feature, want_threshold, want_score = scan_split_search(x, y, candidates, counts)
    assert feature == want_feature
    assert bits(threshold) == bits(want_threshold)
    assert bits(score) == bits(want_score)


def node_tuples(node):
    """The whole tree as nested tuples of exact bytes."""
    if node.is_leaf:
        return ("leaf", node.probabilities.tobytes())
    return (
        node.feature,
        bits(node.threshold),
        node_tuples(node.left),
        node_tuples(node.right),
    )


def grown(x, y, seed, max_features, split_search=None):
    tree = DecisionTreeClassifier(max_features=max_features, random_state=seed)
    if split_search is None:
        return node_tuples(tree.fit(x, y)._root)
    with mock.patch.object(tree_mod, "_split_search", split_search):
        return node_tuples(tree.fit(x, y)._root)


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(data=node_data(), draw=st.data())
    def test_matches_scan(self, data, draw):
        x, y, n_classes = data
        candidates = np.asarray(
            draw.draw(st.permutations(range(x.shape[1]))), dtype=np.int64
        )[: draw.draw(st.integers(1, x.shape[1]))]
        assert_same_split(x, y, candidates, n_classes)

    def test_two_rows(self):
        x = np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 2.0]])
        for n_classes in CLASS_COUNTS:
            y = np.array([0, n_classes - 1])
            assert_same_split(x, y, np.array([0, 2, 1]), n_classes)

    def test_equal_columns_take_the_first_candidate(self):
        column = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        x = np.column_stack([column, column, column])
        y = np.array([0, 0, 1, 1, 1])
        counts = np.bincount(y).astype(np.float64)
        feature, _, _ = tree_mod._split_search(x, y, np.array([2, 0, 1]), counts)
        assert feature == 2

    def test_constant_columns_have_no_split(self):
        x = np.column_stack([np.full(6, 3.0), np.zeros(6)])
        y = np.array([0, 1, 0, 1, 0, 1])
        counts = np.bincount(y).astype(np.float64)
        feature, threshold, score = tree_mod._split_search(x, y, np.array([1, 0]), counts)
        assert feature == -1 and np.isnan(threshold) and score == np.inf
        assert_same_split(x, y, np.array([1, 0]), 2)


class TestGrownTrees:
    @settings(max_examples=100, deadline=None)
    @given(
        data=node_data(max_rows=60),
        seed=st.integers(0, 2**32 - 1),
        max_features=st.sampled_from(["sqrt", None, 1]),
    )
    def test_same_tree_as_scan(self, data, seed, max_features):
        x, y, _ = data
        assert grown(x, y, seed, max_features) == grown(
            x, y, seed, max_features, split_search=scan_split_search
        )

    def test_all_constant_node_is_a_leaf(self):
        x = np.ones((8, 3))
        y = np.array([0, 1, 2, 3, 4, 0, 1, 2])
        tree = DecisionTreeClassifier(max_features=None, random_state=0).fit(x, y)
        assert tree.depth() == 0
        assert grown(x, y, 0, None) == grown(x, y, 0, None, split_search=scan_split_search)
