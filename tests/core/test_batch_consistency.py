"""Batch inference must be indistinguishable from one-at-a-time inference.

``classify``/``identify`` are batches of one over ``classify_batch``/
``identify_batch``, so a fingerprint gets the same candidates, label,
discrimination scores and order whatever batch it arrives in — for known
devices, unknown devices, and any interleaving of the two.  The compiled
bank behind them is checked here against the interpreted per-forest
oracle on the real device profiles; the randomized bitwise sweep lives
in ``tests/ml/test_compiled_differential.py``.
"""

import pytest

from repro.core import UNKNOWN_DEVICE, DeviceIdentifier
from repro.devices import DEVICE_PROFILES, collect_dataset
from tests.oracles import interpreted_candidates


#: A catalogue type outside the small registry whose setup traffic no
#: trained classifier accepts (verified by ``test_unknown_results_identical``).
ALIEN_PROFILE = "HomeMaticPlug"


@pytest.fixture(scope="module")
def mixed_batch(small_registry):
    """Known-device fingerprints interleaved with untrained-type ones."""
    profiles = [p for p in DEVICE_PROFILES if p.identifier in small_registry.labels]
    fresh = collect_dataset(profiles, runs_per_device=2, seed=404)
    known = [fp for label in fresh.labels for fp in fresh.fingerprints(label)]
    alien_profiles = [p for p in DEVICE_PROFILES if p.identifier == ALIEN_PROFILE]
    alien_set = collect_dataset(alien_profiles, runs_per_device=2, seed=404)
    aliens = [fp for label in alien_set.labels for fp in alien_set.fingerprints(label)]
    batch = []
    for i, fp in enumerate(known):
        batch.append(fp)
        if i % 3 == 0:
            batch.append(aliens[(i // 3) % len(aliens)])
    return batch


class TestClassifyBatchConsistency:
    def test_matches_scalar_classify(self, small_identifier, mixed_batch):
        batched = small_identifier.classify_batch(mixed_batch)
        assert len(batched) == len(mixed_batch)
        for fp, candidates in zip(mixed_batch, batched):
            assert candidates == small_identifier.classify(fp)

    def test_compiled_matches_interpreted(self, small_identifier, small_forests, mixed_batch):
        compiled = small_identifier.classify_batch(mixed_batch)
        assert compiled == interpreted_candidates(small_identifier, mixed_batch, small_forests)

    def test_candidate_order_is_sorted_labels(self, small_identifier, mixed_batch):
        for candidates in small_identifier.classify_batch(mixed_batch):
            assert candidates == sorted(candidates)

    def test_empty_batch(self, small_identifier):
        assert small_identifier.classify_batch([]) == []


class TestIdentifyBatchConsistency:
    def test_matches_scalar_identify(self, small_identifier, mixed_batch):
        batched = small_identifier.identify_batch(mixed_batch)
        for fp, result in zip(mixed_batch, batched):
            scalar = small_identifier.identify(fp)
            assert result.label == scalar.label
            assert result.candidates == scalar.candidates
            assert result.scores == scalar.scores
            assert result.used_discrimination == scalar.used_discrimination

    def test_order_preserved(self, small_identifier, mixed_batch):
        batched = small_identifier.identify_batch(mixed_batch)
        reversed_batch = small_identifier.identify_batch(mixed_batch[::-1])
        assert [r.label for r in batched] == [r.label for r in reversed_batch[::-1]]

    def test_unknown_results_identical(self, small_identifier, mixed_batch):
        batched = small_identifier.identify_batch(mixed_batch)
        unknown_rows = [
            i for i, fp in enumerate(mixed_batch) if fp.label == ALIEN_PROFILE
        ]
        assert unknown_rows
        for i in unknown_rows:
            assert batched[i].label == UNKNOWN_DEVICE
            assert batched[i].is_unknown
            assert batched[i].candidates == ()

    def test_bank_invalidated_on_type_mutation(self, small_registry, mixed_batch):
        identifier = DeviceIdentifier(random_state=11).fit(small_registry)
        before = identifier.identify_batch(mixed_batch)
        removed = identifier.labels[0]
        identifier.remove_type(removed)
        after = identifier.identify_batch(mixed_batch)
        assert all(removed not in r.candidates for r in after)
        identifier.add_type(removed, small_registry.fingerprints(removed))
        restored = identifier.identify_batch(mixed_batch)
        assert [r.label for r in restored] == [r.label for r in before]
