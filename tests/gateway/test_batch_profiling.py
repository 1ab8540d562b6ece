"""Batched profiling: monitor drain buffer → process_batch → one round trip.

Covers the fleet-scale gateway flow: completions queue in the monitor,
``drain_profiling`` ships them as one ``submit_many``/``handle_reports``
batch, devices sit at default-deny between completion and drain, and a
failed batch degrades to per-device provisional quarantine exactly like
the scalar path.
"""

import pytest

from repro.gateway import SecurityGateway
from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import (
    CircuitBreaker,
    DirectTransport,
    FingerprintReport,
    IoTSecurityService,
    IsolationDirective,
    ManualClock,
    ProtocolError,
    ResilientTransport,
    RetryPolicy,
)

DEVICES = ("aa:00:00:00:00:01", "aa:00:00:00:00:02", "aa:00:00:00:00:03")
IPS = ("192.168.1.20", "192.168.1.21", "192.168.1.22")
SWEEP = tuple(f"aa:00:00:00:01:{i:02x}" for i in range(8))
SWEEP_IPS = tuple(f"192.168.1.{30 + i}" for i in range(8))
CLOUD = "52.10.0.1"


class ScriptedBatchService:
    """IoTSSP stub recording whether traffic arrived scalar or batched."""

    def __init__(self, level=IsolationLevel.TRUSTED, fail=False):
        self.directive = IsolationDirective(device_type="Dev", level=level)
        self.scalar_reports = []
        self.batches = []
        self.fail = fail

    def handle_report(self, report):
        if self.fail:
            raise ConnectionError("service down")
        self.scalar_reports.append(report)
        return self.directive

    def handle_reports(self, reports):
        if self.fail:
            raise ConnectionError("service down")
        self.batches.append(list(reports))
        return [self.directive for _ in reports]


def run_setup(gateway, mac, ip):
    frames = [
        builder.dhcp_discover_frame(mac, 1, "dev"),
        builder.arp_probe_frame(mac, ip),
        builder.arp_announce_frame(mac, ip),
        builder.dns_query_frame(mac, gateway.gateway_mac, ip, "192.168.1.1", "c.example"),
        builder.https_client_hello_frame(mac, gateway.gateway_mac, ip, CLOUD, "c.example"),
    ]
    t = 0.0
    for frame in frames:
        gateway.process_frame(mac, frame, t)
        t += 0.3
    gateway.process_frame(mac, builder.arp_announce_frame(mac, ip), t + 30.0)


class RejectingService(ScriptedBatchService):
    """Rejects any batch holding one device's report, as an HTTP 400 would."""

    def __init__(self, bad_mac):
        super().__init__()
        self.bad_mac = bad_mac
        self.exchanges = 0

    def handle_reports(self, reports):
        self.exchanges += 1
        if any(report.fingerprint.device_mac == self.bad_mac for report in reports):
            raise ProtocolError("HTTP 400: malformed fingerprint")
        return super().handle_reports(reports)


def batched_gateway(service, transport=None, macs=DEVICES):
    gateway = SecurityGateway(transport or DirectTransport(service), batch_profiling=True)
    for mac in macs:
        gateway.attach_device(mac)
    return gateway


def resilient(service, breaker=None):
    return ResilientTransport(
        DirectTransport(service),
        policy=RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0),
        clock=ManualClock(),
        breaker=breaker,
    )


class TestDrainFlow:
    def test_completions_buffer_until_drained(self):
        service = ScriptedBatchService()
        gateway = batched_gateway(service)
        for mac, ip in zip(DEVICES, IPS):
            run_setup(gateway, mac, ip)
        # All three sessions completed, but nothing was reported yet.
        assert gateway.monitor.profiled == sorted(DEVICES)
        assert not service.batches and not service.scalar_reports
        directives = gateway.drain_profiling(now=40.0)
        assert set(directives) == set(DEVICES)
        assert len(service.batches) == 1 and len(service.batches[0]) == 3
        assert not service.scalar_reports
        for mac in DEVICES:
            assert gateway.isolation_level(mac) is IsolationLevel.TRUSTED

    def test_default_deny_between_completion_and_drain(self):
        service = ScriptedBatchService()
        gateway = batched_gateway(service)
        mac, ip = DEVICES[0], IPS[0]
        run_setup(gateway, mac, ip)
        # Completed but undrained: traffic is dropped (no enforcement rule).
        held = gateway.process_frame(
            mac, builder.dns_query_frame(mac, gateway.gateway_mac, ip, "192.168.1.1", "x.example"), 41.0
        )
        assert held.dropped
        gateway.drain_profiling(now=42.0)
        allowed = gateway.process_frame(
            mac, builder.dns_query_frame(mac, gateway.gateway_mac, ip, "192.168.1.1", "x.example"), 43.0
        )
        assert not allowed.dropped

    def test_drain_with_nothing_buffered(self):
        gateway = batched_gateway(ScriptedBatchService())
        assert gateway.drain_profiling(now=1.0) == {}

    def test_forget_drops_buffered_completion(self):
        service = ScriptedBatchService()
        gateway = batched_gateway(service)
        run_setup(gateway, DEVICES[0], IPS[0])
        gateway.detach_device(DEVICES[0])
        assert gateway.drain_profiling(now=40.0) == {}

    def test_finish_profiling_bypasses_buffer(self):
        service = ScriptedBatchService()
        gateway = batched_gateway(service)
        mac, ip = DEVICES[0], IPS[0]
        gateway.process_frame(mac, builder.dhcp_discover_frame(mac, 1, "dev"), 0.0)
        directive = gateway.finish_profiling(mac, now=1.0)
        assert directive is not None and not directive.provisional
        # The forced flush reports immediately, as a batch of one.
        assert len(service.batches) == 1 and len(service.batches[0]) == 1
        assert not service.scalar_reports
        assert gateway.drain_profiling(now=2.0) == {}  # nothing left buffered

    def test_batch_metrics_recorded(self):
        service = ScriptedBatchService()
        with use_provider(RecordingProvider()) as provider:
            gateway = batched_gateway(service)
            for mac, ip in zip(DEVICES, IPS):
                run_setup(gateway, mac, ip)
            gateway.drain_profiling(now=40.0)
        samples = metrics_snapshot(provider.metrics)
        assert (
            samples["gateway_profiling_batches_total"]["samples"][0]["value"] == 1
        )
        buffered = samples["monitor_completions_buffered"]["samples"][0]["value"]
        assert buffered == 0.0  # drained back to empty
        span_names = {r.name for r in provider.tracer.records()}
        assert "gateway.process_batch" in span_names


class TestBatchDegradedMode:
    def test_failed_batch_quarantines_each_device(self):
        service = ScriptedBatchService(fail=True)
        gateway = batched_gateway(service)
        for mac, ip in zip(DEVICES, IPS):
            run_setup(gateway, mac, ip)
        directives = gateway.drain_profiling(now=40.0)
        assert set(directives) == set(DEVICES)
        for mac in DEVICES:
            assert directives[mac].provisional
            assert gateway.isolation_level(mac) is IsolationLevel.STRICT
        assert set(gateway.sentinel.pending_reports) == set(DEVICES)

    def test_recovery_upgrades_quarantined_batch(self):
        service = ScriptedBatchService(fail=True)
        gateway = batched_gateway(service)
        for mac, ip in zip(DEVICES, IPS):
            run_setup(gateway, mac, ip)
        gateway.drain_profiling(now=40.0)
        service.fail = False
        recovered = gateway.refresh_directives(now=50.0)
        assert sorted(recovered) == sorted(DEVICES)
        for mac in DEVICES:
            assert gateway.isolation_level(mac) is IsolationLevel.TRUSTED
        assert not gateway.sentinel.pending_reports


class TestBatchBisection:
    def test_rejected_report_degrades_only_its_device(self):
        bad = SWEEP[5]
        service = RejectingService(bad)
        transport = resilient(service)
        gateway = batched_gateway(service, transport, SWEEP)
        for mac, ip in zip(SWEEP, SWEEP_IPS):
            run_setup(gateway, mac, ip)
        directives = gateway.drain_profiling(now=40.0)
        assert set(directives) == set(SWEEP)
        assert directives[bad].provisional
        assert gateway.isolation_level(bad) is IsolationLevel.STRICT
        assert set(gateway.sentinel.pending_reports) == {bad}
        for mac in SWEEP:
            if mac != bad:
                assert not directives[mac].provisional
                assert gateway.isolation_level(mac) is IsolationLevel.TRUSTED
        # 8, then 4 + 4, then 2 + 2, then 1 + 1; a fatal error is never retried.
        assert service.exchanges == 7
        assert transport.attempts == 7
        # Accepted, left half first: devices 0-3, then 4, then 6-7.
        assert [len(batch) for batch in service.batches] == [4, 1, 2]

    def test_open_breaker_degrades_whole_sweep_without_attempts(self):
        service = ScriptedBatchService()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=3600.0)
        breaker.record_failure(0.0)
        transport = resilient(service, breaker)
        gateway = batched_gateway(service, transport, SWEEP)
        for mac, ip in zip(SWEEP, SWEEP_IPS):
            run_setup(gateway, mac, ip)
        directives = gateway.drain_profiling(now=40.0)
        assert all(directives[mac].provisional for mac in SWEEP)
        assert set(gateway.sentinel.pending_reports) == set(SWEEP)
        assert transport.attempts == 0 and transport.submits == 1
        assert not service.batches


class TestServiceBatchEquivalence:
    @pytest.fixture(scope="class")
    def service(self, small_identifier):
        return IoTSecurityService(identifier=small_identifier)

    def test_handle_reports_matches_scalar(self, service, small_registry):
        fingerprints = [
            fp for label in small_registry.labels
            for fp in small_registry.fingerprints(label)[:2]
        ]
        reports = [FingerprintReport(fingerprint=fp) for fp in fingerprints]
        batched = service.handle_reports(reports)
        scalar = [service.handle_report(report) for report in reports]
        assert batched == scalar
