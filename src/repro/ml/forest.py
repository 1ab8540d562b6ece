"""Random Forest classifier (Breiman 2001), the paper's reference [23].

Bootstrap-aggregated CART trees with per-split random feature subsets and
soft (probability-averaged) voting.  The IoT Security Service trains one
*binary* forest per device type, so binary classification is the hot path,
but the implementation is generically multi-class.
"""

from __future__ import annotations

import numpy as np

from .parallel import spawn_generators
from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """An ensemble of :class:`~repro.ml.tree.DecisionTreeClassifier`.

    Parameters mirror the usual conventions: ``n_estimators`` trees, each
    fit on a bootstrap resample of the training data, combined by averaging
    leaf class-probability vectors.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | np.random.Generator | np.random.SeedSequence | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("need at least one tree")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )
        self.trees_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit ``n_estimators`` bootstrap trees.

        Each tree draws its bootstrap sample and split randomness from a
        child generator seeded off the forest's stream *before* any tree
        is built, so fitting is reproducible.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        if len(x) == 0:
            raise ValueError("cannot fit an empty dataset")
        self.classes_ = np.unique(y)
        n = len(x)

        def build(rng: np.random.Generator) -> DecisionTreeClassifier:
            if self.bootstrap:
                indices = rng.integers(0, n, size=n)
            else:
                indices = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=self.max_features,
                random_state=rng,
            )
            sample_x, sample_y = x[indices], y[indices]
            if len(np.unique(sample_y)) < len(self.classes_):
                # Keep every class represented so tree probability vectors
                # are alignable: re-draw including one guaranteed instance
                # of each missing class.
                missing = np.setdiff1d(self.classes_, np.unique(sample_y))
                extra = [np.flatnonzero(y == cls)[0] for cls in missing]
                indices = np.concatenate([indices, np.asarray(extra)])
                sample_x, sample_y = x[indices], y[indices]
            return tree.fit(sample_x, sample_y)

        tree_rngs = spawn_generators(self._rng, self.n_estimators)
        self.trees_ = [build(rng) for rng in tree_rngs]
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if not self.trees_ or self.classes_ is None:
            raise RuntimeError("forest is not fitted")
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros((len(x), len(self.classes_)))
        for tree in self.trees_:
            proba = tree.predict_proba(x)
            # Map the tree's class order onto the forest's class order.
            assert tree.classes_ is not None
            columns = np.searchsorted(self.classes_, tree.classes_)
            total[:, columns] += proba
        return total / len(self.trees_)

    def predict(self, x: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        return self.classes_[np.argmax(self.predict_proba(x), axis=1)]
