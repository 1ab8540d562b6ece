"""Serialization round-trips (corpora as JSON, models as npz payloads)
and fingerprint/classifier analysis."""

import json

import pytest

from repro.core import (
    FEATURE_NAMES,
    DeviceIdentifier,
    DeviceTypeRegistry,
    Fingerprint,
    classifier_feature_importance,
    fingerprint_summary,
    load_identifier,
    load_registry,
    save_identifier,
    save_registry,
)
from repro.core.persistence import (
    fingerprint_from_dict,
    fingerprint_to_dict,
    registry_from_dict,
    registry_to_dict,
)
from repro.devices import DEVICE_PROFILES, collect_dataset


class TestFingerprintSerialization:
    def test_roundtrip(self, small_registry):
        original = small_registry.fingerprints("Aria")[0]
        restored = fingerprint_from_dict(fingerprint_to_dict(original))
        assert restored.packets == original.packets
        assert restored.device_mac == original.device_mac
        assert restored.label == original.label

    def test_json_safe(self, small_registry):
        blob = json.dumps(fingerprint_to_dict(small_registry.fingerprints("Aria")[0]))
        assert isinstance(blob, str)

    def test_empty_fingerprint(self):
        restored = fingerprint_from_dict(fingerprint_to_dict(Fingerprint(packets=())))
        assert len(restored) == 0


class TestRegistrySerialization:
    def test_roundtrip(self, small_registry):
        restored = registry_from_dict(registry_to_dict(small_registry))
        assert restored.labels == small_registry.labels
        for label in restored.labels:
            assert restored.count(label) == small_registry.count(label)
            assert (
                restored.fingerprints(label)[0].packets
                == small_registry.fingerprints(label)[0].packets
            )

    def test_file_roundtrip(self, small_registry, tmp_path):
        path = tmp_path / "corpus.json"
        save_registry(small_registry, path)
        restored = load_registry(path)
        assert restored.labels == small_registry.labels


#: Every hyper-parameter away from its default, so a load that drops or
#: resets one is seen.
NON_DEFAULT_PARAMS = dict(
    fp_length=10,
    negative_ratio=4,
    n_references=3,
    n_estimators=7,
    max_depth=6,
    accept_threshold=0.45,
)


@pytest.fixture(scope="module")
def lab_corpus():
    return collect_dataset(DEVICE_PROFILES, runs_per_device=6, seed=2017)


def saved_and_loaded(identifier, path):
    save_identifier(identifier, path)
    return load_identifier(path)


def corpus_without(registry, label):
    out = DeviceTypeRegistry()
    for other in registry.labels:
        if other != label:
            out.add_many(other, registry.fingerprints(other))
    return out


class TestIdentifierSerialization:
    def test_predictions_preserved(self, lab_corpus, tmp_path):
        identifier = DeviceIdentifier(random_state=5).fit(lab_corpus)
        restored = saved_and_loaded(identifier, tmp_path / "model.npz")
        assert restored.labels == identifier.labels
        probes = [fp for label in lab_corpus.labels for fp in lab_corpus.fingerprints(label)]
        assert restored.identify_batch(probes) == identifier.identify_batch(probes)

    def test_file_roundtrip(self, small_registry, small_identifier, tmp_path):
        restored = saved_and_loaded(small_identifier, tmp_path / "model.npz")
        fp = small_registry.fingerprints("HueBridge")[0]
        assert restored.identify(fp).label == "HueBridge"

    def test_params_preserved(self, small_registry, tmp_path):
        identifier = DeviceIdentifier(random_state=5, **NON_DEFAULT_PARAMS).fit(small_registry)
        restored = saved_and_loaded(identifier, tmp_path / "model.npz")
        assert restored._entropy == identifier._entropy == 5
        for name, value in NON_DEFAULT_PARAMS.items():
            assert getattr(restored, name) == value, name

    def test_add_type_after_load_is_byte_identical(self, small_registry, tmp_path):
        # The paper's case for one classifier per type: a served model
        # takes a new type without retraining the others.  That holds for
        # a loaded model only if it trains what the original would.
        corpus = corpus_without(small_registry, "Aria")
        original = DeviceIdentifier(random_state=5, **NON_DEFAULT_PARAMS).fit(corpus)
        loads = [saved_and_loaded(original, tmp_path / f"model{i}.npz") for i in range(2)]
        corpus.add_many("Aria", small_registry.fingerprints("Aria"))
        payloads = []
        for i, identifier in enumerate([original, *loads]):
            identifier.add_type(corpus, "Aria")
            path = tmp_path / f"enrolled{i}.npz"
            save_identifier(identifier, path)
            payloads.append(path.read_bytes())
        assert payloads[1] == payloads[0] and payloads[2] == payloads[0]

    def test_untrained_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_identifier(DeviceIdentifier(), tmp_path / "model.npz")


class TestAnalysis:
    def test_feature_importance_sums_to_one(self, small_identifier):
        report = classifier_feature_importance(small_identifier, "Aria")
        total = sum(report.by_feature.values())
        assert total == pytest.approx(1.0, abs=1e-6)
        assert set(report.by_feature) == set(FEATURE_NAMES)

    def test_top_features_are_plausible(self, small_identifier):
        report = classifier_feature_importance(small_identifier, "HueBridge")
        top_names = [name for name, _ in report.top(5)]
        # Packet size and destination structure are the integer features
        # with the most spread; at least one should rank highly.
        assert any(
            name in ("packet_size", "dst_ip_counter", "src_port_class", "dst_port_class")
            for name in top_names
        )

    def test_unknown_label(self, small_identifier):
        with pytest.raises(KeyError):
            classifier_feature_importance(small_identifier, "NoSuchDevice")

    def test_fingerprint_summary(self, small_registry):
        summary = fingerprint_summary(small_registry, "Aria")
        assert summary["fingerprints"] == small_registry.count("Aria")
        assert summary["length_min"] <= summary["length_mean"] <= summary["length_max"]
        assert 0.0 <= summary["protocol_rates"]["dhcp"] <= 1.0
        assert summary["distinct_destinations_mean"] >= 1.0
        assert summary["packet_size_mean"] > 0
