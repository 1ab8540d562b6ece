"""Model snapshots: train once, compile once, one version per batch.

``DeviceIdentifier`` serves one immutable ``ModelSnapshot``; enrolling or
retiring a type builds the next one and recompiles only that type, and
every shard of the sharded front serves the front's one identifier, so
an enrolment is trained once and every shard serves the same snapshot.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import DeviceIdentifier, DeviceTypeRegistry, ModelStore
from repro.ml.compiled import CompiledBank
from repro.obs import RecordingProvider, metrics_snapshot, names, use_provider
from repro.securityservice import FingerprintReport, IoTSecurityService, ShardedSecurityService

HELD_OUT = "Aria"
BANK_TABLES = ("feature", "threshold", "left", "right", "leaf_positive", "tree_roots")


def _copy(registry: DeviceTypeRegistry, *without: str) -> DeviceTypeRegistry:
    private = DeviceTypeRegistry()
    for label in registry.labels:
        if label not in without:
            private.add_many(label, registry.fingerprints(label))
    return private


def _types_trained(action) -> float:
    """``train_types_trained_total`` raised by running ``action``."""
    provider = RecordingProvider()
    with use_provider(provider):
        action()
    metric = metrics_snapshot(provider.metrics).get(names.METRIC_TYPES_TRAINED)
    return sum(sample["value"] for sample in metric["samples"]) if metric else 0.0


def _verdicts(results) -> list[tuple]:
    return [(r.label, r.candidates, sorted(r.scores.items())) for r in results]


def _probes(registry: DeviceTypeRegistry) -> list:
    return [fp for label in registry.labels for fp in registry.fingerprints(label)[:4]]


@pytest.fixture()
def base(small_registry):
    """An identifier trained on every type but the held-out one."""
    return DeviceIdentifier(random_state=11).fit(_copy(small_registry, HELD_OUT))


def test_add_type_compiles_only_the_new_type(small_registry, base):
    identifier = base
    before = identifier.snapshot
    identifier.add_type(HELD_OUT, small_registry.fingerprints(HELD_OUT))
    after = identifier.snapshot
    assert after is not before
    assert after.version == before.version + 1
    assert after.labels == sorted(before.labels + [HELD_OUT])
    for label, model in before.models.items():
        assert after.models[label] is model
        assert after.models[label].compiled is model.compiled
    # The earlier snapshot is untouched: it still answers without the new type.
    assert HELD_OUT not in before.models and HELD_OUT not in before.bank.labels


def test_remove_type_builds_the_next_version(base):
    identifier = base
    before = identifier.snapshot
    retired = before.labels[0]
    identifier.remove_type(retired)
    after = identifier.snapshot
    assert after.version == before.version + 1
    assert retired in before.models and retired not in after.models
    for label, model in after.models.items():
        assert before.models[label] is model
    with pytest.raises(KeyError):
        identifier.remove_type(retired)
    assert identifier.snapshot is after


def test_snapshot_bank_equals_a_from_scratch_bank(small_registry, base):
    identifier = base
    identifier.add_type(HELD_OUT, small_registry.fingerprints(HELD_OUT))
    identifier.remove_type(identifier.labels[1])
    snapshot = identifier.snapshot
    scratch = CompiledBank([(label, model.compiled) for label, model in snapshot.models.items()])
    bank = snapshot.bank
    assert bank is snapshot.bank  # assembled once per snapshot
    assert bank.labels == scratch.labels
    for table in BANK_TABLES:
        assert np.array_equal(getattr(bank, table), getattr(scratch, table)), table
    assert np.array_equal(bank.forest_offsets, scratch.forest_offsets)


def _front(small_registry) -> ShardedSecurityService:
    front = ShardedSecurityService(4, random_state=11)
    front.train(_copy(small_registry, HELD_OUT))
    return front


def _reports(registry: DeviceTypeRegistry) -> list[FingerprintReport]:
    return [FingerprintReport(fingerprint=fp) for fp in _probes(registry)]


def test_enroll_trains_once_and_publishes_one_snapshot(small_registry):
    front = _front(small_registry)
    before = {shard.identifier.snapshot for shard in front.shards.values()}
    assert len(before) == 1  # every shard serves the front's one identifier
    fingerprints = small_registry.fingerprints(HELD_OUT)
    assert _types_trained(lambda: front.enroll_type(HELD_OUT, fingerprints)) == 1
    after = {shard.identifier.snapshot for shard in front.shards.values()}
    assert len(after) == 1
    (snapshot,) = after
    assert HELD_OUT in snapshot.models and snapshot.version == before.pop().version + 1
    # Same verdicts as one identifier that trained and enrolled alike.
    solo = DeviceIdentifier(random_state=11).fit(_copy(small_registry, HELD_OUT))
    solo.add_type(HELD_OUT, fingerprints)
    reports = _reports(small_registry)
    assert [d.device_type for d in front.handle_reports(reports)] == [
        r.label for r in solo.identify_batch([r.fingerprint for r in reports])
    ]

    assert _types_trained(lambda: front.retire_type(HELD_OUT)) == 0
    retired = {shard.identifier.snapshot for shard in front.shards.values()}
    assert len(retired) == 1 and HELD_OUT not in retired.pop().models


def test_add_shard_adopts_the_current_snapshot(small_registry):
    front = _front(small_registry)
    front.enroll_type(HELD_OUT, small_registry.fingerprints(HELD_OUT))
    current = next(iter(front.shards.values())).identifier.snapshot
    reports = _reports(small_registry)
    baseline = front.handle_reports(reports)
    holder: list[str] = []
    assert _types_trained(lambda: holder.append(front.add_shard())) == 0
    (new_id,) = holder
    assert front.shards[new_id].identifier.snapshot is current
    assert front.handle_reports(reports) == baseline
    owned = [i for i, r in enumerate(reports) if front.ring.route(r.fingerprint.device_mac) == new_id]
    assert owned  # the new shard owns some of the probes' MACs
    served = front.handle_reports([reports[i] for i in owned])
    assert [d.device_type for d in served] == [baseline[i].device_type for i in owned]


def test_every_batch_is_answered_by_one_version(small_registry, base):
    """Concurrent enrol/retire never mixes two versions within one batch."""
    identifier = base
    fingerprints = small_registry.fingerprints(HELD_OUT)
    probes = _probes(small_registry)
    without = _verdicts(identifier.identify_batch(probes))
    identifier.add_type(HELD_OUT, fingerprints)
    with_type = _verdicts(identifier.identify_batch(probes))
    identifier.remove_type(HELD_OUT)
    assert without != with_type
    published = (without, with_type)

    done = threading.Event()
    answered = [threading.Event() for _ in published]
    #: Reader thread id -> the exception it raised or the mixed verdicts it got.
    failures: dict[int, object] = {}

    def keep_identifying() -> None:
        try:
            while not done.is_set():
                verdicts = _verdicts(identifier.identify_batch(probes))
                if verdicts not in published:
                    failures[threading.get_ident()] = verdicts
                    return
                answered[published.index(verdicts)].set()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures[threading.get_ident()] = exc

    def publish(version: int, change) -> None:
        """Swap the snapshot, then wait until a reader answers from it."""
        answered[version].clear()
        change()
        answered[version].wait(timeout=10.0)

    def enrol() -> None:
        identifier.add_type(HELD_OUT, fingerprints)

    def retire() -> None:
        identifier.remove_type(HELD_OUT)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=keep_identifying, daemon=True) for _ in range(3)]
    try:
        for thread in readers:
            thread.start()
        for _ in range(6):
            if failures:
                break
            publish(1, enrol)
            publish(0, retire)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures
    assert all(event.is_set() for event in answered)


def test_store_backed_front_serves_one_identifier(small_registry, tmp_path):
    """Each shard's warm start is adopted by the front's one identifier."""
    front = ShardedSecurityService(4, store=ModelStore(tmp_path), random_state=11)
    front.train(small_registry)
    assert front.cache_hits == 3
    assert len({id(shard.identifier) for shard in front.shards.values()}) == 1
    assert len({id(shard.identifier.snapshot) for shard in front.shards.values()}) == 1
    assert front.identifier.corpus.labels == small_registry.labels


#: Two new types enrolled at once by two threads.
RACING = (HELD_OUT, "HueBridge")


@pytest.mark.parametrize("kind", ["service", "sharded"])
def test_concurrent_enrolments_keep_both_types(small_registry, kind):
    """Two threads enrol two new types at once, 20 times over: both types
    end up in the served model and in the identifier's corpus each time."""
    if kind == "service":
        service = IoTSecurityService(random_state=11)
    else:
        service = ShardedSecurityService(4, random_state=11)
    service.train(_copy(small_registry, *RACING))
    base_labels = sorted(service.known_types)
    failures: list[BaseException] = []

    def enrol(barrier: threading.Barrier, label: str) -> None:
        try:
            barrier.wait(timeout=10.0)
            service.enroll_type(label, small_registry.fingerprints(label))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for trial in range(20):
            barrier = threading.Barrier(len(RACING))
            threads = [threading.Thread(target=enrol, args=(barrier, label)) for label in RACING]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not failures, failures
            expected = sorted(base_labels + list(RACING))
            assert sorted(service.known_types) == expected, trial
            assert service.identifier.corpus.labels == expected, trial
            for label in RACING:
                service.retire_type(label)
    finally:
        sys.setswitchinterval(interval)
    assert service.identifier.corpus.labels == base_labels
