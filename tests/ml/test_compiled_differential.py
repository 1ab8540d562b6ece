"""Oracle harness: the compiled bank vs. the interpreted forests.

``CompiledBank.positive_proba`` — the only stage-1 inference path —
promises columns *byte-identical* to each forest's interpreted
``predict_proba`` positive column: not ``allclose``, bitwise equality via
``np.array_equal``, for any fitted forest and any batch.  The sweeps over
tree counts, depths, NaN inputs and batch shapes run a one-forest bank
against its forest.  Every forest is also round-tripped through
``compile_forest``/``forest_from_flat`` (the npz model store's path),
which must reproduce the full ``predict_proba``; the multiclass and
degenerate single-class layouts, which the bank does not serve, are
checked that way.  A compiled-path regression fails loudly and
minimally.
"""

import numpy as np
import pytest

from repro.ml import RandomForestClassifier
from repro.ml.compiled import CompiledBank, compile_forest, forest_from_flat


def make_corpus(seed, n=120, d=30, classes=2, integer=True):
    """A seeded synthetic task; integer features mirror F' vectors."""
    rng = np.random.default_rng(seed)
    if integer:
        x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    else:
        x = rng.normal(size=(n, d))
    y = rng.integers(0, classes, size=n)
    return x, y


def assert_round_trip(forest, x):
    """``forest_from_flat(compile_forest(f))`` predicts exactly as ``f``."""
    rebuilt = forest_from_flat(compile_forest(forest))
    reference = forest.predict_proba(x)
    fast = rebuilt.predict_proba(x)
    assert fast.dtype == reference.dtype
    assert np.array_equal(fast, reference, equal_nan=True), (
        "compiled forest diverged from the interpreted forest"
    )
    assert np.array_equal(rebuilt.predict(x), forest.predict(x))


def assert_bit_identical(forest, x):
    """A one-forest bank's column equals the forest's positive column."""
    bank = CompiledBank([("only", forest)])
    positive = list(forest.classes_).index(True)
    fast = bank.positive_proba(x)
    assert fast.shape == (len(x), 1)
    assert fast.dtype == np.float64
    assert np.array_equal(fast[:, 0], forest.predict_proba(x)[:, positive]), (
        "compiled bank diverged from the interpreted forest"
    )
    assert_round_trip(forest, x)


class TestCompiledForestDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_estimators", [1, 3, 20])
    def test_tree_counts(self, seed, n_estimators):
        x, y = make_corpus(seed)
        forest = RandomForestClassifier(
            n_estimators=n_estimators, random_state=seed
        ).fit(x, y)
        assert_bit_identical(forest, x)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_depth", [1, 2, 5, None])
    def test_depths(self, seed, max_depth):
        x, y = make_corpus(seed + 100)
        forest = RandomForestClassifier(
            n_estimators=7, max_depth=max_depth, random_state=seed
        ).fit(x, y)
        assert_bit_identical(forest, x)

    @pytest.mark.parametrize("seed", range(4))
    def test_continuous_features_and_held_out_batch(self, seed):
        x, y = make_corpus(seed, integer=False)
        held_out, _ = make_corpus(seed + 1, n=64, integer=False)
        forest = RandomForestClassifier(n_estimators=10, random_state=seed).fit(x, y)
        assert_bit_identical(forest, held_out)

    @pytest.mark.parametrize("classes", [3, 5])
    def test_multiclass(self, classes):
        x, y = make_corpus(9, classes=classes)
        forest = RandomForestClassifier(n_estimators=8, random_state=9).fit(x, y)
        assert_round_trip(forest, x)

    def test_degenerate_single_class_forest(self):
        x, _ = make_corpus(11, n=40)
        y = np.zeros(40, dtype=bool)  # only the negative class exists
        forest = RandomForestClassifier(n_estimators=5, random_state=11).fit(x, y)
        assert_round_trip(forest, x)
        rebuilt = forest_from_flat(compile_forest(forest))
        assert np.array_equal(rebuilt.predict_proba(x), np.ones((40, 1)))
        assert CompiledBank([("negative", forest)]).positive_proba(x).shape == (40, 0)

    def test_boolean_classes_as_trained_by_identifier(self):
        x, y = make_corpus(13)
        forest = RandomForestClassifier(n_estimators=6, random_state=13).fit(
            x, y.astype(bool)
        )
        assert_bit_identical(forest, x)
        assert list(compile_forest(forest).classes_) == [False, True]

    def test_nan_features_route_identically(self):
        x, y = make_corpus(17, integer=False)
        forest = RandomForestClassifier(n_estimators=5, random_state=17).fit(x, y)
        x_nan = x.copy()
        x_nan[::3, ::4] = np.nan
        assert_bit_identical(forest, x_nan)

    def test_empty_batch(self):
        x, y = make_corpus(19)
        forest = RandomForestClassifier(n_estimators=4, random_state=19).fit(x, y)
        assert CompiledBank([("only", forest)]).positive_proba(x[:0]).shape == (0, 1)
        assert forest_from_flat(compile_forest(forest)).predict_proba(x[:0]).shape == (0, 2)

    def test_single_row_batch(self):
        x, y = make_corpus(29)
        forest = RandomForestClassifier(n_estimators=4, random_state=29).fit(x, y)
        assert_bit_identical(forest, x[:1])


class TestRoundTripDecompile:
    @pytest.mark.parametrize("seed", range(3))
    def test_forest_from_flat_is_bit_identical(self, seed):
        x, y = make_corpus(seed + 40)
        forest = RandomForestClassifier(n_estimators=6, random_state=seed).fit(x, y)
        rebuilt = forest_from_flat(compile_forest(forest))
        assert np.array_equal(rebuilt.predict_proba(x), forest.predict_proba(x))
        assert np.array_equal(rebuilt.classes_, forest.classes_)
        assert len(rebuilt.trees_) == len(forest.trees_)

    def test_recompile_round_trip(self):
        x, y = make_corpus(47)
        forest = RandomForestClassifier(n_estimators=5, random_state=3).fit(x, y)
        once = compile_forest(forest)
        twice = compile_forest(forest_from_flat(once))
        for field in ("feature", "threshold", "left", "right", "proba", "tree_roots", "classes_"):
            assert np.array_equal(getattr(once, field), getattr(twice, field)), field
        assert once.max_depth == twice.max_depth


class TestCompiledBankDifferential:
    def build_bank_forests(self, n_forests=5, seed=0):
        forests = []
        x, _ = make_corpus(seed, n=90, d=24)
        for i in range(n_forests):
            rng = np.random.default_rng(seed * 100 + i)
            y = rng.random(len(x)) < 0.3
            if not y.any():
                y[0] = True
            forest = RandomForestClassifier(n_estimators=4 + i, random_state=i).fit(x, y)
            forests.append((f"type-{i:02d}", forest))
        return forests, x

    def test_bank_columns_match_interpreted_positive_proba(self):
        forests, x = self.build_bank_forests()
        bank = CompiledBank(forests)
        out = bank.positive_proba(x)
        assert bank.labels == [label for label, _ in forests]
        for j, (_, forest) in enumerate(forests):
            classes = list(forest.classes_)
            reference = forest.predict_proba(x)[:, classes.index(True)]
            assert np.array_equal(out[:, j], reference)

    def test_bank_excludes_forests_without_positive_class(self):
        forests, x = self.build_bank_forests(n_forests=3)
        y_neg = np.zeros(len(x), dtype=bool)
        negative_only = RandomForestClassifier(n_estimators=3, random_state=7).fit(x, y_neg)
        bank = CompiledBank(forests + [("all-negative", negative_only)])
        assert "all-negative" not in bank.labels
        assert bank.positive_proba(x).shape == (len(x), len(forests))

    def test_empty_bank_and_empty_batch(self):
        forests, x = self.build_bank_forests(n_forests=2)
        assert CompiledBank([]).positive_proba(x).shape == (len(x), 0)
        assert CompiledBank(forests).positive_proba(x[:0]).shape == (0, 2)
