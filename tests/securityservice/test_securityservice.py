"""IoT Security Service: vulndb, assessment policy, protocol, service."""

import pytest

from repro.core import UNKNOWN_DEVICE
from repro.core.registry import DeviceTypeRegistry
from repro.devices import collect_fingerprints, profile_by_name
from repro.sdn import IsolationLevel
from repro.securityservice import (
    AnonymizingTransport,
    DirectTransport,
    FingerprintReport,
    IoTSecurityService,
    ShardedSecurityService,
    VulnerabilityDatabase,
    VulnerabilityRecord,
    assess_device_type,
    seed_database,
)


def copy_registry(registry):
    """A private mutable copy: ``IoTSecurityService.train`` keeps the
    registry by reference, so enroll/retire tests must not hand it the
    session-scoped fixture."""
    out = DeviceTypeRegistry()
    for label in registry.labels:
        out.add_many(label, registry.fingerprints(label))
    return out


class TestVulnDB:
    def test_seed_database_nonempty(self):
        db = seed_database()
        assert len(db) >= 10
        assert "iKettle2" in db.affected_types

    def test_query_returns_reports(self):
        db = seed_database()
        reports = db.query("iKettle2")
        assert reports and all(r.device_type == "iKettle2" for r in reports)

    def test_clean_type_empty(self):
        assert seed_database().query("HueBridge") == []

    def test_is_vulnerable_with_severity_floor(self):
        db = seed_database()
        assert db.is_vulnerable("EdimaxCam", min_severity=8.5)
        assert not db.is_vulnerable("HomeMaticPlug", min_severity=8.5)

    def test_duplicate_id_rejected(self):
        db = VulnerabilityDatabase()
        record = VulnerabilityRecord("X-1", "dev", "issue", 5.0, 2016)
        db.add(record)
        with pytest.raises(ValueError):
            db.add(record)

    def test_severity_range_validated(self):
        with pytest.raises(ValueError):
            VulnerabilityRecord("X-2", "dev", "issue", 11.0, 2016)

    def test_get_by_id(self):
        db = seed_database()
        assert db.get("REPRO-2015-0001").device_type == "iKettle2"


class TestAssessment:
    def test_unknown_is_strict(self):
        result = assess_device_type(UNKNOWN_DEVICE, seed_database())
        assert result.level is IsolationLevel.STRICT

    def test_vulnerable_is_restricted(self):
        directory = {"iKettle2": frozenset({"52.1.1.1"})}
        result = assess_device_type("iKettle2", seed_database(), endpoint_directory=directory)
        assert result.level is IsolationLevel.RESTRICTED
        assert result.permitted_endpoints == frozenset({"52.1.1.1"})
        assert result.vulnerability_ids == ("REPRO-2015-0001",)

    def test_clean_is_trusted(self):
        result = assess_device_type("HueBridge", seed_database())
        assert result.level is IsolationLevel.TRUSTED
        assert result.permitted_endpoints == frozenset()

    def test_restricted_without_directory_has_empty_allowlist(self):
        result = assess_device_type("iKettle2", seed_database())
        assert result.level is IsolationLevel.RESTRICTED
        assert result.permitted_endpoints == frozenset()


class TestTransports:
    class _EchoService:
        def __init__(self):
            self.last_report = None

        def handle_reports(self, reports):
            self.last_report = reports[-1]
            from repro.securityservice.protocol import IsolationDirective

            return [IsolationDirective(device_type="x", level=IsolationLevel.TRUSTED) for _ in reports]

    def _fingerprint(self, rng):
        return collect_fingerprints(profile_by_name("Aria"), runs=1, rng=rng)[0]

    def test_direct_preserves_gateway_id(self, rng):
        service = self._EchoService()
        transport = DirectTransport(service)
        transport.submit(FingerprintReport(fingerprint=self._fingerprint(rng), gateway_id="gw1"))
        assert service.last_report.gateway_id == "gw1"

    def test_anonymizing_strips_gateway_id(self, rng):
        service = self._EchoService()
        transport = AnonymizingTransport(service)
        transport.submit(FingerprintReport(fingerprint=self._fingerprint(rng), gateway_id="gw1"))
        assert service.last_report.gateway_id is None

    def test_anonymizing_has_higher_latency(self):
        assert AnonymizingTransport.latency > DirectTransport.latency


class TestService:
    def test_train_and_identify(self, small_registry, rng):
        service = IoTSecurityService(random_state=3)
        service.train(small_registry)
        assert len(service.known_types) == len(small_registry)
        fp = small_registry.fingerprints("Aria")[0]
        directive = service.handle_report(FingerprintReport(fingerprint=fp))
        assert directive.device_type == "Aria"
        assert directive.level is IsolationLevel.TRUSTED  # Aria not in vulndb
        assert service.reports_handled == 1

    def test_vulnerable_device_gets_restricted_with_endpoints(self, small_registry, rng):
        service = IoTSecurityService(random_state=3)
        service.train(small_registry)
        service.register_endpoints("TP-LinkPlugHS110", ["52.2.2.2"])
        fp = small_registry.fingerprints("TP-LinkPlugHS110")[0]
        directive = service.handle_report(FingerprintReport(fingerprint=fp))
        assert directive.level is IsolationLevel.RESTRICTED
        if directive.device_type == "TP-LinkPlugHS110":
            assert directive.permitted_endpoints == frozenset({"52.2.2.2"})

    def test_enroll_new_type_incrementally(self, small_registry, rng):
        service = IoTSecurityService(random_state=3)
        service.train(copy_registry(small_registry))
        new_fps = collect_fingerprints(profile_by_name("MAXGateway"), runs=10, rng=rng)
        service.enroll_type("MAXGateway", new_fps)
        assert "MAXGateway" in service.known_types
        probe = collect_fingerprints(profile_by_name("MAXGateway"), runs=1, rng=rng)[0]
        directive = service.handle_report(FingerprintReport(fingerprint=probe))
        assert directive.device_type == "MAXGateway"

    @pytest.mark.parametrize("front", ["service", "sharded"])
    def test_failed_enrolment_changes_nothing(self, front, small_registry, rng, monkeypatch):
        if front == "service":
            service = IoTSecurityService(random_state=3)
        else:
            service = ShardedSecurityService(2, random_state=3)
        service.train(copy_registry(small_registry))
        trainer = service._source().identifier if front == "sharded" else service.identifier
        registry = service._registry

        def failing_training(registry, label):
            raise RuntimeError("training failed")

        monkeypatch.setattr(trainer, "_train_type", failing_training)
        types, snapshot = list(service.known_types), trainer.snapshot
        new_fps = collect_fingerprints(profile_by_name("MAXGateway"), runs=5, rng=rng)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="training failed"):
                service.enroll_type("MAXGateway", new_fps)
        assert service._registry is registry
        assert "MAXGateway" not in registry and registry.count("MAXGateway") == 0
        assert service.known_types == types and trainer.snapshot is snapshot

    def test_retire_type(self, small_registry):
        service = IoTSecurityService(random_state=3)
        service.train(copy_registry(small_registry))
        service.retire_type("Aria")
        assert "Aria" not in service.known_types
