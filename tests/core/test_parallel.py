"""Deterministic training tests (repro.ml.parallel).

The contract under test: training order, the other types present, and
fit-vs-add_type never change a trained model.  The seeding helpers live in
``repro.ml.parallel`` (the layer below core) and are re-exported from
``repro.core``.
"""

import numpy as np
import pytest

from repro.core import (
    DeviceIdentifier,
    derive_entropy,
    label_rng,
    label_seed_sequence,
    spawn_generators,
)
from repro.core.persistence import save_identifier
from repro.ml.forest import RandomForestClassifier

from .test_registry_identifier import synthetic_registry


class TestSeeding:
    def test_derive_entropy_int_identity(self):
        assert derive_entropy(42) == 42

    def test_derive_entropy_generator_advances(self):
        rng = np.random.default_rng(0)
        assert derive_entropy(rng) != derive_entropy(rng)

    def test_derive_entropy_rejects_junk(self):
        with pytest.raises(TypeError):
            derive_entropy("seed")

    def test_label_seed_sequence_is_stable(self):
        s1 = label_seed_sequence(7, "Aria")
        s2 = label_seed_sequence(7, "Aria")
        assert s1.generate_state(4).tolist() == s2.generate_state(4).tolist()

    def test_label_rng_distinct_per_label_and_entropy(self):
        draws = {
            (entropy, label): label_rng(entropy, label).integers(0, 2**63)
            for entropy in (1, 2)
            for label in ("Aria", "HueBridge")
        }
        assert len(set(draws.values())) == 4

    def test_spawn_generators_deterministic(self):
        a = spawn_generators(np.random.default_rng(3), 5)
        b = spawn_generators(np.random.default_rng(3), 5)
        for ga, gb in zip(a, b):
            assert ga.integers(0, 1000, 10).tolist() == gb.integers(0, 1000, 10).tolist()

    def test_spawn_generators_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_generators(np.random.default_rng(0), -1)


def _payload(identifier, path):
    """The saved model file's bytes: every type's node tables, leaf
    probabilities and references, the hyper-parameters and the entropy."""
    save_identifier(identifier, path)
    return path.read_bytes()


class TestFitDeterminism:
    def test_fit_independent_of_other_types(self, tmp_path):
        # A type's model depends only on (seed, label, corpus content) —
        # retraining after unrelated additions reproduces it exactly.
        registry = synthetic_registry(n_types=4, per_type=8)
        full = DeviceIdentifier(random_state=5).fit(registry)
        partial = DeviceIdentifier(random_state=5)
        partial.fit(registry)
        partial.remove_type("type2")  # retrain one type in place
        partial.add_type("type2", registry.fingerprints("type2"))
        assert _payload(partial, tmp_path / "a.npz") == _payload(full, tmp_path / "b.npz")

    def test_add_type_matches_fit(self, tmp_path):
        registry = synthetic_registry(n_types=4, per_type=8)
        full = DeviceIdentifier(random_state=31).fit(registry)
        incremental = DeviceIdentifier(random_state=31).fit(registry)
        incremental.remove_type("type3")
        incremental.add_type("type3", registry.fingerprints("type3"))
        assert _payload(incremental, tmp_path / "a.npz") == _payload(full, tmp_path / "b.npz")


class TestForestDeterminism:
    def _data(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(120, 6))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        return x, y

    def test_seed_sequence_accepted(self):
        x, y = self._data()
        seq = np.random.SeedSequence(21)
        a = RandomForestClassifier(n_estimators=5, random_state=np.random.SeedSequence(21)).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, random_state=seq).fit(x, y)
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))
