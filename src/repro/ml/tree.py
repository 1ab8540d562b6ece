"""CART decision tree (gini impurity, binary splits) on numpy arrays.

This is the base learner for :mod:`repro.ml.forest`, implementing the
classification tree of Breiman's Random Forests [23] that the paper uses
for its one-classifier-per-device-type bank.  Features are numeric (the
fingerprint vectors are binary/integer); splits are of the form
``x[feature] <= threshold``.

Split search is one pass per node over all ``k`` candidate features
(:func:`_split_search`): one column-wise sort of the ``(k, n)`` candidate
submatrix, then class counts per *run* of equal values, prefix-summed
along each column.  A split can only fall between two runs, and the
fingerprint features are small integers with few distinct values, so the
gini arithmetic runs on one row per run boundary instead of one per
training row; its cost no longer grows with ``n × k × classes``.  The
arithmetic, the tie rules (first position within a feature, first
candidate across features) and the node's single feature draw are those
of the textbook per-feature scan kept in ``tests/oracles.py``, so trees
are byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """One tree node; leaves carry a class-probability vector."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    probabilities: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.probabilities is not None


def _gini_from_counts(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    fractions = counts / total
    return 1.0 - float(np.dot(fractions, fractions))


def _split_search(
    x: np.ndarray, y: np.ndarray, candidates: np.ndarray, counts: np.ndarray
) -> tuple[int, float, float]:
    """Best ``(feature, threshold, weighted gini)`` over the candidate columns.

    ``counts`` are the node's class counts.  Every candidate column is
    sorted at once; a split may follow any position whose next sorted value
    is larger by more than 1e-12.  The lowest weighted gini wins, ties
    going to the first candidate in ``candidates`` order and, within it, to
    the first position.  ``(-1, nan, inf)`` means no candidate has two
    distinct values.  The sort need not be stable: only the values and the
    class counts of each run of equal values are read, and neither depends
    on the order of rows inside a run.
    """
    n, n_classes = len(y), len(counts)
    sub = x.T[candidates]
    order = np.argsort(sub, axis=1)
    x_sorted = sub.ravel()[order + np.arange(0, sub.size, n)[:, None]]
    steps = x_sorted[:, 1:] - x_sorted[:, :-1] > 1e-12
    columns, positions = np.nonzero(steps)
    if len(columns) == 0:
        return -1, np.nan, np.inf
    # Number the runs of equal values across all columns: a run starts at
    # each column's first row and after each step.
    starts = np.ones((len(candidates), n), dtype=np.int64)
    starts[:, 1:] = steps
    run = np.cumsum(starts) - 1
    run_counts = np.bincount(
        run * n_classes + y[order].ravel(), minlength=(int(run[-1]) + 1) * n_classes
    )
    # Every column holds all n rows, so the columns before column j add up
    # to j * counts; subtracting that leaves column j's own prefix counts.
    prefix = np.cumsum(run_counts.reshape(-1, n_classes), axis=0)
    left_counts = prefix[run[columns * n + positions]] - columns[:, None] * counts
    left_sizes = positions + 1.0
    right_counts = counts - left_counts
    right_sizes = n - left_sizes
    left_frac = left_counts / left_sizes[:, None]
    right_frac = right_counts / right_sizes[:, None]
    left_gini = 1.0 - np.einsum("ij,ij->i", left_frac, left_frac)
    right_gini = 1.0 - np.einsum("ij,ij->i", right_frac, right_frac)
    weighted = (left_sizes * left_gini + right_sizes * right_gini) / n
    # nonzero lists boundaries by candidate, then by position, so the first
    # minimum is the first candidate's first position at the lowest score.
    best = int(np.argmin(weighted))
    column, position = columns[best], positions[best]
    threshold = (x_sorted[column, position] + x_sorted[column, position + 1]) / 2.0
    return int(candidates[column]), float(threshold), float(weighted[best])


class DecisionTreeClassifier:
    """A CART classifier supporting random feature subsets per split.

    Parameters
    ----------
    max_depth:
        Depth limit; ``None`` grows until pure or ``min_samples_split``.
    min_samples_split:
        Minimum samples required to attempt a split.
    max_features:
        Number of candidate features per split (``None`` = all,
        ``"sqrt"`` = ⌈√d⌉, or an int).
    random_state:
        Seed or :class:`numpy.random.Generator` for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        max_features: int | str | None = "sqrt",
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )
        self._root: _Node | None = None
        self.classes_: np.ndarray | None = None

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.ceil(np.sqrt(n_features))))
        count = int(self.max_features)
        if count < 1 or count > n_features:
            raise ValueError(f"max_features {count} out of range 1..{n_features}")
        return count

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D array")
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        if len(x) == 0:
            raise ValueError("cannot fit an empty dataset")
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        k_features = self._resolve_max_features(x.shape[1])
        self._root = self._grow(x, y_encoded, n_classes, k_features, depth=0)
        return self

    def _leaf(self, y: np.ndarray, n_classes: int) -> _Node:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        return _Node(probabilities=counts / counts.sum())

    def _grow(
        self, x: np.ndarray, y: np.ndarray, n_classes: int, k_features: int, depth: int
    ) -> _Node:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or _gini_from_counts(counts, counts.sum()) == 0.0
        ):
            return self._leaf(y, n_classes)
        candidates = self._rng.choice(x.shape[1], size=k_features, replace=False)
        best_feature, best_threshold, _ = _split_search(x, y, candidates, counts)
        if best_feature < 0:
            return self._leaf(y, n_classes)
        mask = x[:, best_feature] <= best_threshold
        if not mask.any() or mask.all():
            return self._leaf(y, n_classes)
        return _Node(
            feature=best_feature,
            threshold=best_threshold,
            left=self._grow(x[mask], y[mask], n_classes, k_features, depth + 1),
            right=self._grow(x[~mask], y[~mask], n_classes, k_features, depth + 1),
        )

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities per row.

        Traversal is batched: each node routes an index *array* left/right
        with one vectorized comparison, so cost scales with tree size
        rather than rows × depth of Python-level work.
        """
        if self._root is None or self.classes_ is None:
            raise RuntimeError("tree is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D array")
        out = np.empty((len(x), len(self.classes_)))
        if len(x) == 0:
            return out
        stack: list[tuple[_Node, np.ndarray]] = [(self._root, np.arange(len(x)))]
        while stack:
            node, indices = stack.pop()
            if node.is_leaf:
                out[indices] = node.probabilities
                continue
            assert node.left is not None and node.right is not None
            mask = x[indices, node.feature] <= node.threshold
            left_indices = indices[mask]
            right_indices = indices[~mask]
            if len(left_indices):
                stack.append((node.left, left_indices))
            if len(right_indices):
                stack.append((node.right, right_indices))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        probabilities = self.predict_proba(x)
        assert self.classes_ is not None
        return self.classes_[np.argmax(probabilities, axis=1)]

    def depth(self) -> int:
        """Actual depth of the grown tree (0 for a bare leaf)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return walk(self._root)
