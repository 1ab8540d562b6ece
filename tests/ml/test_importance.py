"""Split-count feature importance, read off a compiled forest's node tables.

``forest_feature_importance`` bincounts each tree's internal-node
features; ``tests.oracles.tree_walk_importance`` counts the same splits
on the interpreted trees the tables were compiled from, and the two must
be equal array for array.
"""

import numpy as np
import pytest

from repro.core import NUM_FEATURES
from repro.ml import CompiledForest, RandomForestClassifier, compile_forest
from repro.ml.importance import forest_feature_importance
from tests.oracles import tree_walk_importance


def task(rng, n=200):
    x = rng.normal(size=(n, 8))
    y = (x[:, 2] > 0).astype(int)
    return x, y


class TestImportance:
    def test_informative_feature_dominates(self, rng):
        x, y = task(rng)
        forest = RandomForestClassifier(
            n_estimators=1, max_features=None, bootstrap=False, random_state=0
        ).fit(x, y)
        importance = forest_feature_importance(compile_forest(forest), 8)
        assert importance.argmax() == 2  # the feature y was built from
        assert importance.sum() == pytest.approx(1.0)

    def test_forest_importance_averages(self, rng):
        x, y = task(rng)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(x, y)
        importance = forest_feature_importance(compile_forest(forest), 8)
        assert importance[2] == importance.max()
        assert importance.sum() == pytest.approx(1.0, abs=1e-6)

    def test_stump_importance_is_zero_vector(self):
        x = np.ones((10, 3))
        y = np.zeros(10, dtype=int)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(x, y)
        assert forest_feature_importance(compile_forest(forest), 3).sum() == 0.0

    def test_unfitted_rejected(self):
        empty = np.empty(0, dtype=np.int32)
        compiled = CompiledForest(
            feature=empty,
            threshold=np.empty(0),
            left=empty,
            right=empty,
            proba=np.empty((0, 2)),
            tree_roots=empty,
            classes_=np.array([False, True]),
            max_depth=0,
        )
        with pytest.raises(ValueError):
            forest_feature_importance(compiled, 3)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_depth", [1, 3, None])
    def test_equals_the_interpreted_tree_walk(self, seed, max_depth):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=(150, 12)).astype(np.float64)
        y = rng.integers(0, 2, size=150).astype(bool)
        forest = RandomForestClassifier(n_estimators=9, max_depth=max_depth, random_state=seed).fit(x, y)
        assert np.array_equal(
            forest_feature_importance(compile_forest(forest), 12), tree_walk_importance(forest, 12)
        )

    def test_every_trained_type_equals_the_tree_walk(self, small_identifier, small_forests):
        n_features = small_identifier.fp_length * NUM_FEATURES
        for model in small_identifier.snapshot.models.values():
            assert np.array_equal(
                forest_feature_importance(model.compiled, n_features),
                tree_walk_importance(small_forests[model.compiled], n_features),
            )
