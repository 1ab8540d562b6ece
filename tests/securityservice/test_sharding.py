"""Sharded IoTSSP: N=1 differential identity, one identification pass per
batch, outage semantics."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core import DeviceIdentifier, DeviceTypeRegistry
from repro.core.identifier import UNKNOWN_DEVICE
from repro.devices import DEVICE_PROFILES, collect_fingerprints, profile_by_name
from repro.gateway import SecurityGateway
from repro.ml.compiled import CompiledBank
from repro.obs import RecordingProvider, metrics_snapshot, names, use_provider
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import (
    DirectTransport,
    FingerprintReport,
    IoTSecurityService,
    ServiceUnavailable,
    ShardedSecurityService,
)
from repro.securityservice.incidents import IncidentReport

SEED = 17
RUNS = 4


def _mac(index: int) -> str:
    return f"02:00:00:00:{index // 256:02x}:{index % 256:02x}"


def _copy(registry: DeviceTypeRegistry, *, without: str | None = None) -> DeviceTypeRegistry:
    private = DeviceTypeRegistry()
    for label in registry.labels:
        if label != without:
            private.add_many(label, registry.fingerprints(label))
    return private


def _stamped(registry: DeviceTypeRegistry, per_type: int) -> list:
    """Up to ``per_type`` reports per type, each with its own device MAC."""
    fingerprints = [
        fp for label in registry.labels for fp in registry.fingerprints(label)[:per_type]
    ]
    return [
        FingerprintReport(fingerprint=dataclasses.replace(fp, device_mac=_mac(i)))
        for i, fp in enumerate(fingerprints)
    ]


@pytest.fixture(scope="module")
def corpus():
    """Every device profile's corpus (the full 27-type catalogue)."""
    from repro.core.registry import DeviceTypeRegistry

    rng = np.random.default_rng(SEED)
    registry = DeviceTypeRegistry()
    for profile in DEVICE_PROFILES:
        registry.add_many(
            profile.identifier,
            collect_fingerprints(profile, runs=RUNS, rng=rng),
        )
    return registry


@pytest.fixture(scope="module")
def probes(corpus):
    """One report per corpus fingerprint, each with a unique device MAC."""
    reports = []
    index = 0
    for label in corpus.labels:
        for fingerprint in corpus.fingerprints(label):
            stamped = dataclasses.replace(fingerprint, device_mac=_mac(index))
            reports.append(FingerprintReport(fingerprint=stamped))
            index += 1
    return reports


@pytest.fixture(scope="module")
def solo(corpus):
    service = IoTSecurityService(random_state=SEED)
    service.train(corpus)
    return service


@pytest.fixture(scope="module")
def one_shard(corpus):
    front = ShardedSecurityService(1, random_state=SEED)
    front.train(corpus)
    return front


class TestDifferentialN1:
    """The N=1 sharded front is indistinguishable from a bare service."""

    def test_scalar_directives_identical(self, solo, one_shard, probes):
        for report in probes:
            assert one_shard.handle_report(report) == solo.handle_report(report)

    def test_batch_directives_identical(self, solo, one_shard, probes):
        assert one_shard.handle_reports(list(probes)) == solo.handle_reports(list(probes))

    def test_reports_handled_parity(self, corpus):
        solo = IoTSecurityService(random_state=SEED)
        solo.train(corpus)
        front = ShardedSecurityService(1, random_state=SEED)
        front.train(corpus)
        fp = corpus.fingerprints(corpus.labels[0])[0]
        batch = [FingerprintReport(fingerprint=fp)] * 3
        solo.handle_report(batch[0])
        solo.handle_reports(batch)
        front.handle_report(batch[0])
        front.handle_reports(batch)
        assert front.reports_handled == solo.reports_handled == 4
        assert front.known_types == solo.known_types

    def test_mutations_stay_identical(self, corpus):
        """enroll/retire/register fan-out preserves the differential."""
        rng = np.random.default_rng(SEED + 1)
        fresh = collect_fingerprints(profile_by_name("Aria"), runs=RUNS, rng=rng)
        probe = FingerprintReport(fingerprint=fresh[0])
        pairs = []
        for build in (
            lambda: IoTSecurityService(random_state=SEED),
            lambda: ShardedSecurityService(1, random_state=SEED),
        ):
            from repro.core.registry import DeviceTypeRegistry

            registry = DeviceTypeRegistry()
            for label in corpus.labels:
                registry.add_many(label, corpus.fingerprints(label))
            service = build()
            service.train(registry)
            service.retire_type("Aria")
            assert "Aria" not in service.known_types
            service.enroll_type("Aria", fresh)
            service.register_endpoints("iKettle2", ["52.5.5.5"])
            pairs.append(
                (
                    service.handle_report(probe),
                    service.directive_for_type("iKettle2"),
                    sorted(service.known_types),
                )
            )
        assert pairs[0] == pairs[1]

    def test_gateway_audit_order_identical(self, solo, one_shard):
        """The full gateway pipeline writes the same audit trail over both."""
        logs = []
        for service in (solo, one_shard):
            gateway = SecurityGateway(DirectTransport(service))
            for index, ip in enumerate(("192.168.1.20", "192.168.1.21")):
                mac = f"aa:00:00:00:00:{index + 1:02d}"
                gateway.attach_device(mac)
                t = index * 100.0
                for frame in (
                    builder.dhcp_discover_frame(mac, 1, "dev"),
                    builder.arp_probe_frame(mac, ip),
                    builder.arp_announce_frame(mac, ip),
                    builder.dns_query_frame(
                        mac, gateway.gateway_mac, ip, "192.168.1.1", "c.example"
                    ),
                    builder.https_client_hello_frame(
                        mac, gateway.gateway_mac, ip, "52.10.0.1", "c.example"
                    ),
                ):
                    gateway.process_frame(mac, frame, t)
                    t += 0.3
                gateway.process_frame(
                    mac, builder.arp_announce_frame(mac, ip), t + 30.0
                )
            logs.append(gateway.audit.all())
        assert logs[0] == logs[1]


class TestOnePassPerBatch:
    """The front identifies a whole batch once; shards only issue directives."""

    def test_four_shards_match_a_bare_service_across_enrolment(self, corpus, probes):
        fresh = collect_fingerprints(
            profile_by_name("Aria"), runs=RUNS, rng=np.random.default_rng(SEED + 2)
        )
        services = [
            IoTSecurityService(random_state=SEED),
            ShardedSecurityService(4, random_state=SEED),
        ]
        for service in services:
            service.train(_copy(corpus))
            service.register_endpoints("iKettle2", ["52.5.5.5"])
        solo, front = services
        assert len({front.ring.route(r.fingerprint.device_mac) for r in probes}) == 4

        def agree() -> None:
            assert front.handle_reports(list(probes)) == solo.handle_reports(list(probes))
            assert front.known_types == solo.known_types

        agree()
        for service in services:
            service.retire_type("Aria")
        agree()
        for service in services:
            service.enroll_type("Aria", fresh)
        agree()
        assert front.reports_handled == solo.reports_handled == 3 * len(probes)

    def test_batch_over_many_shards_makes_one_bank_call(self, small_registry, monkeypatch):
        front = ShardedSecurityService(4, random_state=11)
        front.train(small_registry)
        reports = _stamped(small_registry, 4)
        owners = [front.ring.route(r.fingerprint.device_mac) for r in reports]
        assert len(set(owners)) == 4
        before = {shard_id: shard.reports_handled for shard_id, shard in front.shards.items()}
        expected = [front.handle_report(report) for report in reports]
        calls = []
        original = CompiledBank.positive_proba

        def counting(bank, matrix):
            calls.append(len(matrix))
            return original(bank, matrix)

        monkeypatch.setattr(CompiledBank, "positive_proba", counting)
        provider = RecordingProvider()
        with use_provider(provider):
            assert front.handle_reports(reports) == expected
        assert calls == [len(reports)]

        for shard_id, shard in front.shards.items():
            assert shard.reports_handled == before[shard_id] + 2 * owners.count(shard_id)
        routed = metrics_snapshot(provider.metrics)[names.METRIC_SHARD_REPORTS]["samples"]
        assert {s["labels"]["shard"]: s["value"] for s in routed} == {
            shard_id: owners.count(shard_id) for shard_id in set(owners)
        }
        # One service round trip under the route span, one identification in it.
        (route,) = provider.tracer.records_named(names.SPAN_SHARD_ROUTE)
        (served,) = provider.tracer.records_named(names.SPAN_SERVICE_BATCH)
        (identify,) = provider.tracer.records_named(names.SPAN_IDENTIFY)
        assert served.parent_id == route.span_id and identify.parent_id == served.span_id
        assert route.attributes == {"batch": len(reports), "shards": 4}

    def test_every_front_batch_is_answered_by_one_version(self, small_registry, monkeypatch):
        """An admin thread enrols and retires a type while readers call the
        front: each batch is labelled from exactly one snapshot, and every
        label is one of that snapshot's types or unknown."""
        held_out = "Aria"
        registry = _copy(small_registry, without=held_out)
        front = ShardedSecurityService(4, random_state=11)
        front.train(registry)
        reports = _stamped(small_registry, 4)
        assert len({front.ring.route(r.fingerprint.device_mac) for r in reports}) > 1
        fingerprints = small_registry.fingerprints(held_out)

        def labels() -> list[str]:
            return [directive.device_type for directive in front.handle_reports(reports)]

        #: Expected labels per snapshot, keyed by whether it holds the type.
        published = {False: labels()}
        front.enroll_type(held_out, fingerprints)
        published[True] = labels()
        front.retire_type(held_out)
        assert held_out in published[True] and held_out not in published[False]

        pinned = threading.local()
        original = DeviceIdentifier.classify_batch

        def recording(identifier, batch):
            pinned.snapshots.append(identifier._reading())
            return original(identifier, batch)

        monkeypatch.setattr(DeviceIdentifier, "classify_batch", recording)
        done = threading.Event()
        answered = {True: threading.Event(), False: threading.Event()}
        #: Reader thread id -> the exception it raised or the batch it got wrong.
        failures: dict[int, object] = {}

        def keep_serving() -> None:
            try:
                while not done.is_set():
                    pinned.snapshots = []
                    got = labels()
                    snapshots = pinned.snapshots
                    if len(snapshots) != 1:
                        failures[threading.get_ident()] = f"{len(snapshots)} passes"
                        return
                    (snapshot,) = snapshots
                    holds = held_out in snapshot.models
                    allowed = set(snapshot.labels) | {UNKNOWN_DEVICE}
                    if not set(got) <= allowed or got != published[holds]:
                        failures[threading.get_ident()] = (snapshot.version, got)
                        return
                    answered[holds].set()
            except Exception as exc:  # noqa: BLE001 - reported below
                failures[threading.get_ident()] = exc

        def administer() -> None:
            """Publish each change, then wait until a reader answers from it."""
            for _ in range(6):
                for holds in (True, False):
                    if failures:
                        return
                    answered[holds].clear()
                    if holds:
                        front.enroll_type(held_out, fingerprints)
                    else:
                        front.retire_type(held_out)
                    answered[holds].wait(timeout=10.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=keep_serving, daemon=True) for _ in range(3)]
        admin = threading.Thread(target=administer, daemon=True)
        try:
            for thread in readers:
                thread.start()
            admin.start()
            admin.join(timeout=120.0)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not admin.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert not failures, failures
        assert all(event.is_set() for event in answered.values())


class TestShardedService:
    @pytest.fixture(scope="class")
    def front(self, small_registry):
        front = ShardedSecurityService(3, random_state=11)
        front.train(small_registry)
        return front

    def _report(self, registry, label, mac):
        fingerprint = dataclasses.replace(
            registry.fingerprints(label)[0], device_mac=mac
        )
        return FingerprintReport(fingerprint=fingerprint)

    def test_replicas_agree_regardless_of_route(self, front, small_registry):
        """The same fingerprint gets the same directive whichever shard owns its MAC."""
        directives = set()
        shards_hit = set()
        for index in range(24):
            report = self._report(small_registry, "Aria", _mac(index))
            shards_hit.add(front.ring.route(report.fingerprint.device_mac))
            directives.add(front.handle_report(report))
        assert {directive.device_type for directive in directives} == {"Aria"}
        assert len(directives) == 1
        assert len(shards_hit) > 1  # the MACs really did spread across shards

    def test_routing_increments_owning_shard(self, front, small_registry):
        report = self._report(small_registry, "Aria", "02:11:22:33:44:55")
        owner = front.ring.route(report.fingerprint.device_mac)
        before = front.shards[owner].reports_handled
        front.handle_report(report)
        assert front.shards[owner].reports_handled == before + 1

    def test_batch_matches_scalar_order(self, front, small_registry):
        reports = [
            self._report(small_registry, label, _mac(100 + i))
            for i, label in enumerate(small_registry.labels * 3)
        ]
        assert front.handle_reports(reports) == [
            front.handle_report(report) for report in reports
        ]

    def test_kill_shard_raises_for_its_keys_only(self, front, small_registry):
        reports = [
            self._report(small_registry, "Aria", _mac(200 + i)) for i in range(24)
        ]
        victim = front.ring.route(reports[0].fingerprint.device_mac)
        front.kill_shard(victim)
        try:
            for report in reports:
                owner = front.ring.route(report.fingerprint.device_mac)
                if owner == victim:
                    with pytest.raises(ServiceUnavailable):
                        front.handle_report(report)
                else:
                    front.handle_report(report)
        finally:
            front.revive_shard(victim)

    def test_batch_with_dead_shard_fails_before_processing(self, front, small_registry):
        reports = [
            self._report(small_registry, "Aria", _mac(300 + i)) for i in range(24)
        ]
        victim = front.ring.route(reports[0].fingerprint.device_mac)
        handled_before = front.reports_handled
        front.kill_shard(victim)
        try:
            with pytest.raises(ServiceUnavailable):
                front.handle_reports(reports)
        finally:
            front.revive_shard(victim)
        assert front.reports_handled == handled_before  # all-or-nothing

    def test_directive_lookup_falls_back_when_home_shard_down(self, front):
        expected = front.directive_for_type("Aria")
        home = front.ring.route("Aria")
        front.kill_shard(home)
        try:
            assert front.directive_for_type("Aria") == expected
        finally:
            front.revive_shard(home)

    def test_directive_lookup_all_down(self, front):
        for shard_id in front.shard_ids():
            front.kill_shard(shard_id)
        try:
            with pytest.raises(ServiceUnavailable):
                front.directive_for_type("Aria")
        finally:
            for shard_id in front.shard_ids():
                front.revive_shard(shard_id)

    def test_add_and_remove_shard_keep_serving(self, small_registry):
        front = ShardedSecurityService(2, random_state=11)
        front.train(small_registry)
        reports = [
            self._report(small_registry, "Aria", _mac(400 + i)) for i in range(12)
        ]
        baseline = [d.device_type for d in front.handle_reports(reports)]
        new_id = front.add_shard()
        assert front.num_shards == 3 and new_id in front.ring
        assert [d.device_type for d in front.handle_reports(reports)] == baseline
        front.remove_shard(new_id)
        assert front.num_shards == 2 and new_id not in front.ring
        assert [d.device_type for d in front.handle_reports(reports)] == baseline

    def test_incidents_route_and_confirm_fleet_wide(self, front, small_registry):
        """Threshold reports for one type confirm once; every shard's devices see it."""
        before = front.directive_for_type("Aria")
        assert before.level is IsolationLevel.TRUSTED
        record = None
        for _ in range(3):
            record = front.report_incident(
                IncidentReport(device_type="Aria", incident_class="malware-traffic")
            ) or record
        assert record is not None and record.device_type == "Aria"
        reports = [self._report(small_registry, "Aria", _mac(500 + i)) for i in range(24)]
        assert {front.ring.route(r.fingerprint.device_mac) for r in reports} == set(front.shards)
        assert {d.level for d in front.handle_reports(reports)} == {IsolationLevel.RESTRICTED}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedSecurityService(0)

    def test_membership_validation(self, front):
        with pytest.raises(ValueError):
            front.kill_shard("shard-nope")
        with pytest.raises(ValueError):
            front.revive_shard("shard-nope")
        with pytest.raises(ValueError):
            front.remove_shard("shard-nope")

    def test_cannot_remove_last_shard(self, small_registry):
        front = ShardedSecurityService(1, random_state=11)
        front.train(small_registry)
        with pytest.raises(ValueError):
            front.remove_shard(front.shard_ids()[0])

    def test_warm_start_hits_n_minus_one(self, small_registry, tmp_path):
        from repro.core import ModelStore

        front = ShardedSecurityService(4, store=ModelStore(tmp_path), random_state=11)
        front.train(small_registry)
        assert front.cache_hits == 3
        report = self._report(small_registry, "Aria", "02:aa:bb:cc:dd:ee")
        assert front.handle_report(report).device_type == "Aria"

    def test_endpoints_seed_late_joining_shard(self, small_registry):
        front = ShardedSecurityService(2, random_state=11)
        front.train(small_registry)
        front.register_endpoints("TP-LinkPlugHS110", ["52.2.2.2"])
        new_id = front.add_shard()
        for shard_id in front.shard_ids():
            if shard_id != new_id:
                front.kill_shard(shard_id)
        directive = front.directive_for_type("TP-LinkPlugHS110")
        assert directive.permitted_endpoints == frozenset({"52.2.2.2"})


class TestOneIncidentAggregator:
    """Incident reports reach the front's one aggregator, whatever their route."""

    @staticmethod
    def _malware(device_type: str) -> IncidentReport:
        return IncidentReport(device_type=device_type, incident_class="malware-traffic")

    def test_clusters_on_different_home_shards_get_distinct_ids(self):
        front = ShardedSecurityService(4, random_state=11)
        assert front.ring.route("Aria") != front.ring.route("HueBridge")
        records = [
            front.report_incident(self._malware(device_type))
            for device_type in ("Aria",) * 3 + ("HueBridge",) * 3
        ]
        confirmed = [record for record in records if record is not None]
        assert [(r.device_type, r.vuln_id) for r in confirmed] == [
            ("Aria", "REPRO-CROWD-0001"),
            ("HueBridge", "REPRO-CROWD-0002"),
        ]
        assert front.assess_type("HueBridge").vulnerability_ids == ("REPRO-CROWD-0002",)

    def test_partial_counts_survive_removing_the_home_shard(self):
        front = ShardedSecurityService(4, random_state=11)
        assert front.report_incident(self._malware("Aria")) is None
        assert front.report_incident(self._malware("Aria")) is None
        home = front.ring.route("Aria")
        front.remove_shard(home)
        assert front.ring.route("Aria") != home
        record = front.report_incident(self._malware("Aria"))
        assert record is not None and record.device_type == "Aria"

    def test_incident_for_a_down_home_shard_is_refused_and_not_counted(self):
        front = ShardedSecurityService(4, random_state=11)
        home = front.ring.route("Aria")
        front.kill_shard(home)
        with pytest.raises(ServiceUnavailable):
            front.report_incident(self._malware("Aria"))
        front.revive_shard(home)
        assert front.service.incidents.count("Aria", "malware-traffic") == 0
        assert front.service.incidents.reports_received == 0
