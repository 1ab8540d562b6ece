"""Tree/forest feature importance tests.

(Models are saved as npz payloads of compiled node tables; their round
trips are tested in ``tests/core/test_model_store.py`` and
``tests/core/test_persistence_analysis.py``.)
"""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.importance import forest_feature_importance, tree_feature_importance


def task(rng, n=200):
    x = rng.normal(size=(n, 8))
    y = (x[:, 2] > 0).astype(int)
    return x, y


class TestImportance:
    def test_informative_feature_dominates(self, rng):
        x, y = task(rng)
        tree = DecisionTreeClassifier(max_features=None, random_state=0).fit(x, y)
        importance = tree_feature_importance(tree, 8)
        assert importance.argmax() == 2  # the feature y was built from
        assert importance.sum() == pytest.approx(1.0)

    def test_forest_importance_averages(self, rng):
        x, y = task(rng)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(x, y)
        importance = forest_feature_importance(forest, 8)
        assert importance[2] == importance.max()
        assert importance.sum() == pytest.approx(1.0, abs=1e-6)

    def test_stump_importance_is_zero_vector(self):
        x = np.ones((10, 3))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier(random_state=0).fit(x, y)
        assert tree_feature_importance(tree, 3).sum() == 0.0

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            tree_feature_importance(DecisionTreeClassifier(), 3)
        with pytest.raises(ValueError):
            forest_feature_importance(RandomForestClassifier(), 3)
