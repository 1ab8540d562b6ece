"""Model-store round trips: npz payloads, content keys, warm starts.

The binary store only earns its keep if a cache hit is *indistinguishable*
from retraining: these tests pin that ``save_identifier →
load_identifier`` preserves every ``identify()`` outcome on held-out
fingerprints, that the content key tracks registry/hyper-parameter/seed
changes, and that stale or corrupt payloads degrade to misses (retrain),
never to wrong answers.
"""

import json

import numpy as np
import pytest

from repro.core import (
    DeviceIdentifier,
    ModelStore,
    load_identifier,
    registry_content_key,
    save_identifier,
    warm_start_identifier,
)
from repro.core import NUM_FEATURES
from repro.devices import DEVICE_PROFILES, collect_dataset
from repro.obs import RecordingProvider, metrics_snapshot, use_provider

#: Every array of a ``CompiledForest``.
TABLE_FIELDS = ("feature", "threshold", "left", "right", "proba", "tree_roots", "classes_")


@pytest.fixture(scope="module")
def held_out(small_registry):
    """Fingerprints from fresh setup runs the identifier never trained on."""
    profiles = [
        p
        for p in DEVICE_PROFILES
        if p.identifier in {label for label in small_registry.labels}
    ]
    fresh = collect_dataset(profiles, runs_per_device=3, seed=977)
    return [fp for label in fresh.labels for fp in fresh.fingerprints(label)]


def results_equal(a, b):
    return (
        a.label == b.label
        and a.candidates == b.candidates
        and a.scores == b.scores
        and a.used_discrimination == b.used_discrimination
    )


class TestNpzRoundTrip:
    def test_identify_results_identical_on_held_out(
        self, small_identifier, held_out, tmp_path
    ):
        path = tmp_path / "bank.npz"
        save_identifier(small_identifier, path)
        restored = load_identifier(path)
        assert restored.labels == small_identifier.labels
        for fp in held_out:
            assert results_equal(restored.identify(fp), small_identifier.identify(fp))

    def test_forest_probas_bit_identical(self, small_identifier, held_out, tmp_path):
        path = tmp_path / "bank.npz"
        save_identifier(small_identifier, path)
        restored = load_identifier(path)
        for label in small_identifier.labels:
            original = small_identifier.snapshot.models[label].compiled
            loaded = restored.snapshot.models[label].compiled
            for field in TABLE_FIELDS:
                a, b = getattr(original, field), getattr(loaded, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
            assert loaded.max_depth == original.max_depth
        stacked = np.vstack(
            [fp.fixed(small_identifier.fp_length) for fp in held_out[:8]]
        )
        assert np.array_equal(
            restored.snapshot.bank.positive_proba(stacked),
            small_identifier.snapshot.bank.positive_proba(stacked),
        )

    def test_references_and_params_survive(self, small_identifier, tmp_path):
        path = tmp_path / "bank.npz"
        save_identifier(small_identifier, path)
        restored = load_identifier(path)
        assert restored.fp_length == small_identifier.fp_length
        assert restored.accept_threshold == small_identifier.accept_threshold
        assert restored._entropy == small_identifier._entropy
        for label in small_identifier.labels:
            originals = small_identifier.snapshot.models[label].references
            rebuilt = restored.snapshot.models[label].references
            assert [fp.packets for fp in rebuilt] == [fp.packets for fp in originals]
            assert [fp.device_mac for fp in rebuilt] == [
                fp.device_mac for fp in originals
            ]

    def test_untrained_identifier_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_identifier(DeviceIdentifier(), tmp_path / "x.npz")

    def test_writes_exactly_the_given_path(self, small_identifier, tmp_path):
        path = tmp_path / "model.json"
        save_identifier(small_identifier, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        assert load_identifier(path).labels == small_identifier.labels


class TestLoadErrors:
    """Anything that is not a model payload is a ValueError naming the file."""

    @staticmethod
    def write_json_model(path):
        # The shape of the JSON model files older versions wrote.
        path.write_text(json.dumps({"version": 1, "params": {}, "models": {}}))

    @staticmethod
    def write_npy(path):
        with open(path, "wb") as handle:
            np.save(handle, np.arange(4))

    @staticmethod
    def write_random_bytes(path):
        path.write_bytes(np.random.default_rng(0).bytes(256))

    @staticmethod
    def write_foreign_npz(path):
        with open(path, "wb") as handle:
            np.savez_compressed(handle, x=np.arange(4))

    @pytest.mark.parametrize(
        "write", ["write_json_model", "write_npy", "write_random_bytes", "write_foreign_npz"]
    )
    def test_value_error_names_the_path(self, write, tmp_path):
        path = tmp_path / "model.bin"
        getattr(self, write)(path)
        with pytest.raises(ValueError, match=str(path)):
            load_identifier(path)


def first_internal_node(arrays):
    return int(np.flatnonzero(arrays["m0_feature"] >= 0)[0])


def negative_child(arrays):
    arrays["m0_left"][first_internal_node(arrays)] = -3


def child_past_the_table(arrays):
    arrays["m0_right"][first_internal_node(arrays)] = len(arrays["m0_feature"]) + 5


def feature_past_the_vector(arrays):
    fp_length = json.loads(str(arrays["meta"][()]))["params"]["fp_length"]
    arrays["m0_feature"][first_internal_node(arrays)] = fp_length * NUM_FEATURES


def short_threshold(arrays):
    arrays["m0_threshold"] = arrays["m0_threshold"][:-1]


def child_loops_to_the_root(arrays):
    arrays["m0_right"][first_internal_node(arrays)] = 0


def leaf_with_a_child(arrays):
    leaf = int(np.flatnonzero(arrays["m0_feature"] < 0)[0])
    arrays["m0_left"][leaf] = 0


def understated_max_depth(arrays):
    meta = json.loads(str(arrays["meta"][()]))
    meta["models"][0]["max_depth"] -= 1
    arrays["meta"] = np.asarray(json.dumps(meta))


class TestMalformedNodeTables:
    """A tampered node table is a ValueError at load and a store miss,
    never a silent misroute or an ``IndexError`` at load or at the first
    identification."""

    KEY = "tampered"

    @staticmethod
    def tamper(path, edit):
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name].copy() for name in payload.files}
        edit(arrays)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    @pytest.mark.parametrize(
        "edit",
        [
            negative_child,
            child_past_the_table,
            feature_past_the_vector,
            short_threshold,
            child_loops_to_the_root,
            leaf_with_a_child,
            understated_max_depth,
        ],
    )
    def test_rejected_at_load_and_a_store_miss(self, edit, small_identifier, tmp_path):
        store = ModelStore(tmp_path / "store")
        path = store.save(small_identifier, self.KEY)
        self.tamper(path, edit)
        with pytest.raises(ValueError, match=str(path)):
            load_identifier(path, expected_key=self.KEY)
        with use_provider(RecordingProvider()) as provider:
            assert store.load(self.KEY) is None
        samples = metrics_snapshot(provider.metrics)
        assert samples["model_store_misses_total"]["samples"][0]["value"] == 1

    def test_untampered_payload_is_a_hit(self, small_identifier, tmp_path):
        store = ModelStore(tmp_path / "store")
        path = store.save(small_identifier, self.KEY)
        self.tamper(path, lambda arrays: None)
        assert store.load(self.KEY).labels == small_identifier.labels


class TestContentKey:
    def params(self, identifier):
        return dict(
            fp_length=identifier.fp_length,
            negative_ratio=identifier.negative_ratio,
            n_references=identifier.n_references,
            n_estimators=identifier.n_estimators,
            max_depth=identifier.max_depth,
            accept_threshold=identifier.accept_threshold,
        )

    def test_deterministic(self, small_registry, small_identifier):
        kwargs = self.params(small_identifier)
        a = registry_content_key(small_registry, entropy=11, **kwargs)
        b = registry_content_key(small_registry, entropy=11, **kwargs)
        assert a == b and len(a) == 64

    def test_sensitive_to_entropy_params_and_data(
        self, small_registry, small_identifier
    ):
        kwargs = self.params(small_identifier)
        base = registry_content_key(small_registry, entropy=11, **kwargs)
        assert registry_content_key(small_registry, entropy=12, **kwargs) != base
        changed = dict(kwargs, n_estimators=kwargs["n_estimators"] + 1)
        assert registry_content_key(small_registry, entropy=11, **changed) != base
        profiles = [p for p in DEVICE_PROFILES if p.identifier in small_registry.labels]
        other = collect_dataset(profiles, runs_per_device=2, seed=5)
        assert registry_content_key(other, entropy=11, **kwargs) != base


class TestWarmStart:
    def test_miss_then_hit(self, small_registry, held_out, tmp_path):
        store = ModelStore(tmp_path / "store")
        with use_provider(RecordingProvider()) as provider:
            first, hit_first = warm_start_identifier(
                small_registry, store, random_state=11
            )
            second, hit_second = warm_start_identifier(
                small_registry, store, random_state=11
            )
        assert not hit_first and hit_second
        samples = metrics_snapshot(provider.metrics)
        assert samples["model_store_misses_total"]["samples"][0]["value"] == 1
        assert samples["model_store_hits_total"]["samples"][0]["value"] == 1
        for fp in held_out:
            assert results_equal(second.identify(fp), first.identify(fp))

    def test_different_seed_is_a_miss(self, small_registry, tmp_path):
        store = ModelStore(tmp_path / "store")
        _, hit_a = warm_start_identifier(small_registry, store, random_state=11)
        _, hit_b = warm_start_identifier(small_registry, store, random_state=12)
        assert not hit_a and not hit_b

    def test_stale_payload_hash_is_a_miss(self, small_registry, tmp_path):
        store = ModelStore(tmp_path / "store")
        identifier, _ = warm_start_identifier(small_registry, store, random_state=11)
        entropy = identifier._entropy
        key = registry_content_key(
            small_registry,
            entropy=entropy,
            fp_length=identifier.fp_length,
            negative_ratio=identifier.negative_ratio,
            n_references=identifier.n_references,
            n_estimators=identifier.n_estimators,
            max_depth=identifier.max_depth,
            accept_threshold=identifier.accept_threshold,
        )
        # Simulate a renamed/stale payload: the embedded key no longer
        # matches the filename the lookup resolves.
        other_key = "0" * 64
        store.path_for(key).rename(store.path_for(other_key))
        assert store.load(other_key) is None
        assert store.load(key) is None  # the original name is gone too

    def test_corrupt_payload_is_a_miss_then_retrains(self, small_registry, tmp_path):
        store = ModelStore(tmp_path / "store")
        identifier, _ = warm_start_identifier(small_registry, store, random_state=11)
        key = registry_content_key(
            small_registry,
            entropy=identifier._entropy,
            fp_length=identifier.fp_length,
            negative_ratio=identifier.negative_ratio,
            n_references=identifier.n_references,
            n_estimators=identifier.n_estimators,
            max_depth=identifier.max_depth,
            accept_threshold=identifier.accept_threshold,
        )
        store.path_for(key).write_bytes(b"not an npz payload")
        assert store.load(key) is None
        retrained, hit = warm_start_identifier(small_registry, store, random_state=11)
        assert not hit
        assert retrained.labels == identifier.labels
