"""Degraded-mode reporting: provisional quarantine, retries, detach hygiene."""

from repro.gateway import SecurityGateway
from repro.gateway.audit import AuditEventType
from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import (
    DirectTransport,
    FaultInjectingTransport,
    IsolationDirective,
)

DEV = "aa:00:00:00:00:01"
PEER = "aa:00:00:00:00:02"
DEV_IP = "192.168.1.20"
PEER_IP = "192.168.1.21"
ELSEWHERE = "52.99.0.1"


class ScriptedService:
    """IoTSSP stub with a swappable canned directive."""

    def __init__(self, level=IsolationLevel.TRUSTED, device_type="Dev"):
        self.directive = IsolationDirective(device_type=device_type, level=level)
        self.reports = []

    def handle_reports(self, reports):
        self.reports.extend(reports)
        return [self.directive for _ in reports]


def run_setup(gateway, mac=DEV, ip=DEV_IP, start=0.0):
    """Feed a minimal setup dialogue, then an idle-gap packet."""
    frames = [
        builder.dhcp_discover_frame(mac, 1, "dev"),
        builder.arp_probe_frame(mac, ip),
        builder.arp_announce_frame(mac, ip),
        builder.dns_query_frame(mac, gateway.gateway_mac, ip, "192.168.1.1", "c.example"),
        builder.https_client_hello_frame(mac, gateway.gateway_mac, ip, "52.10.0.1", "c.example"),
    ]
    t = start
    for frame in frames:
        gateway.process_frame(mac, frame, t)
        t += 0.3
    gateway.process_frame(mac, builder.arp_announce_frame(mac, ip), t + 30.0)
    return t + 30.0


def failing_gateway(failures=1, level=IsolationLevel.TRUSTED, **gateway_kwargs):
    """Gateway whose first ``failures`` submits fail, then recover."""
    service = ScriptedService(level=level)
    transport = FaultInjectingTransport.failing(DirectTransport(service), failures)
    return SecurityGateway(transport, **gateway_kwargs), service


class TestFingerprintLossRegression:
    """Pins the bug: one transport error must never drop the report."""

    def test_failed_submit_quarantines_instead_of_raising(self):
        gateway, service = failing_gateway(failures=1)
        gateway.attach_device(DEV)
        end = run_setup(gateway)  # submit fails inside the pipeline — no raise
        directive = gateway.directive_for(DEV)
        assert directive is not None
        assert directive.provisional
        assert directive.level is IsolationLevel.STRICT
        assert gateway.isolation_level(DEV) is IsolationLevel.STRICT
        assert DEV in gateway.sentinel.pending_reports
        assert service.reports == []  # nothing reached the service yet
        # Degraded-mode device is enforced: internet traffic drops.
        blocked = gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"),
            end + 1.0,
        )
        assert blocked.dropped

    def test_recovery_upgrades_and_flushes(self):
        gateway, service = failing_gateway(failures=1)
        gateway.attach_device(DEV)
        end = run_setup(gateway)
        # Install a drop rule under the provisional directive.
        gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"),
            end + 1.0,
        )
        assert gateway.flow_rule_count >= 1
        changed = gateway.refresh_directives(end + 60.0)
        assert changed == [DEV]
        final = gateway.directive_for(DEV)
        assert not final.provisional
        assert final.level is IsolationLevel.TRUSTED
        assert gateway.sentinel.pending_reports == {}
        # The report was delivered exactly once, with the captured fingerprint.
        assert len(service.reports) == 1
        assert len(service.reports[0].fingerprint) >= 4
        # Stale drop rules are gone; the same flow now passes.
        assert not any(r.match.eth_src == DEV for r in gateway.switch.table)
        allowed = gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"),
            end + 61.0,
        )
        assert not allowed.dropped

    def test_sweep_without_recovery_keeps_report_queued(self):
        gateway, service = failing_gateway(failures=3)
        gateway.attach_device(DEV)
        end = run_setup(gateway)
        assert gateway.refresh_directives(end + 60.0) == []  # still down (fault 2)
        pending = gateway.sentinel.pending_reports[DEV]
        assert pending.attempts == 2
        assert pending.last_error
        assert gateway.directive_for(DEV).provisional

    def test_finish_profiling_returns_provisional_on_failure(self):
        gateway, _ = failing_gateway(failures=1)
        gateway.attach_device(DEV)
        gateway.process_frame(DEV, builder.dhcp_discover_frame(DEV, 1), 0.0)
        directive = gateway.finish_profiling(DEV, now=1.0)
        assert directive is not None and directive.provisional

    def test_audit_trail_of_degraded_lifecycle(self):
        gateway, _ = failing_gateway(failures=1)
        gateway.attach_device(DEV)
        end = run_setup(gateway)
        gateway.refresh_directives(end + 60.0)
        types = [e.event_type for e in gateway.audit.for_device(DEV)]
        assert AuditEventType.DIRECTIVE_PROVISIONAL in types
        assert AuditEventType.REPORT_RECOVERED in types
        assert types.index(AuditEventType.DIRECTIVE_PROVISIONAL) < types.index(
            AuditEventType.REPORT_RECOVERED
        )

    def test_degraded_metrics(self):
        with use_provider(RecordingProvider()) as provider:
            gateway, _ = failing_gateway(failures=1)
            gateway.attach_device(DEV)
            end = run_setup(gateway)
            gateway.refresh_directives(end + 60.0)
        snapshot = metrics_snapshot(provider.metrics)
        assert snapshot["gateway_degraded_directives_total"]["samples"][0]["value"] == 1
        assert snapshot["gateway_report_recoveries_total"]["samples"][0]["value"] == 1
        assert snapshot["gateway_pending_reports"]["samples"][0]["value"] == 0.0


class TestNotifications:
    def test_provisional_quarantine_does_not_notify(self):
        notifications = []
        gateway, _ = failing_gateway(
            failures=1, level=IsolationLevel.STRICT, notify_user=notifications.append
        )
        gateway.attach_device(DEV)
        run_setup(gateway)
        assert gateway.directive_for(DEV).provisional
        assert notifications == []  # quarantine is temporary; don't cry wolf

    def test_final_strict_directive_notifies_once(self):
        notifications = []
        gateway, _ = failing_gateway(
            failures=1, level=IsolationLevel.STRICT, notify_user=notifications.append
        )
        gateway.attach_device(DEV)
        end = run_setup(gateway)
        gateway.refresh_directives(end + 60.0)
        assert len(notifications) == 1
        assert notifications[0].device_mac == DEV


class TestRefreshSweepIsolation:
    def test_one_bad_submit_does_not_abort_the_sweep(self):
        service = ScriptedService(level=IsolationLevel.TRUSTED)
        transport = FaultInjectingTransport(DirectTransport(service))
        gateway = SecurityGateway(transport)
        gateway.attach_device(DEV)
        gateway.attach_device(PEER)
        end = run_setup(gateway, DEV, DEV_IP)
        end = run_setup(gateway, PEER, PEER_IP, start=end + 1.0)
        # The service now reclassifies the type; DEV's refresh submit fails.
        service.directive = IsolationDirective(
            device_type="Dev", level=IsolationLevel.STRICT
        )
        from repro.securityservice import Fault

        # The sweep is one batch: the first fault fails it, the second
        # fails DEV's half of the bisection, and PEER's half goes through.
        transport.schedule.extend([Fault.error(), Fault.error()])
        with use_provider(RecordingProvider()) as provider:
            changed = gateway.refresh_directives(end + 10.0, force=True)
        assert changed == [PEER]  # DEV skipped, sweep completed
        assert gateway.isolation_level(DEV) is IsolationLevel.TRUSTED
        assert gateway.isolation_level(PEER) is IsolationLevel.STRICT
        snapshot = metrics_snapshot(provider.metrics)
        assert snapshot["gateway_refresh_skipped_total"]["samples"][0]["value"] == 1
        # The skipped device is retried (and upgraded) on the next sweep.
        assert gateway.refresh_directives(end + 20.0, force=True) == [DEV]
        assert gateway.isolation_level(DEV) is IsolationLevel.STRICT


class TestDetachHygiene:
    def _enforced_gateway(self):
        service = ScriptedService(level=IsolationLevel.TRUSTED)
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        end = run_setup(gateway)
        gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"),
            end + 1.0,
        )
        assert any(r.match.eth_src == DEV for r in gateway.switch.table)
        return gateway

    def test_detach_flushes_flow_rules_and_learned_port(self):
        gateway = self._enforced_gateway()
        assert gateway.switch.port_of(DEV) is not None
        gateway.detach_device(DEV)
        assert not any(r.match.eth_src == DEV for r in gateway.switch.table)
        assert gateway.switch.port_of(DEV) is None

    def test_detach_forgets_sentinel_state(self):
        gateway = self._enforced_gateway()
        gateway.detach_device(DEV)
        assert DEV not in gateway.sentinel.directives
        assert DEV not in gateway.sentinel.pending_reports
        # A recycled MAC is re-profiled from scratch, not trusted on sight.
        gateway.attach_device(DEV)
        assert not gateway.monitor.is_profiled(DEV)

    def test_detach_drops_pending_report(self):
        gateway, service = failing_gateway(failures=10)
        gateway.attach_device(DEV)
        end = run_setup(gateway)
        assert DEV in gateway.sentinel.pending_reports
        gateway.detach_device(DEV)
        assert gateway.sentinel.pending_reports == {}
        # The sweep after detach has nothing to do and nothing to crash on.
        assert gateway.refresh_directives(end + 60.0) == []


class TestPendingReportCount:
    """The public queue-depth view (mirrors the gateway_pending_reports gauge)."""

    def test_counts_through_outage_and_recovery(self):
        gateway, _ = failing_gateway(failures=1)
        gateway.attach_device(DEV)
        assert gateway.pending_report_count == 0
        end = run_setup(gateway)  # submit fails: report parked for retry
        assert gateway.pending_report_count == 1
        assert gateway.sentinel.pending_report_count == 1
        gateway.refresh_directives(end + 60.0)  # transport recovered
        assert gateway.pending_report_count == 0

    def test_zero_without_a_sentinel(self):
        gateway = SecurityGateway(filtering=False)
        assert gateway.pending_report_count == 0


class TestAuditTimestamps:
    def test_attach_and_detach_thread_now_into_audit(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(DEV, now=5.0)
        gateway.detach_device(DEV, now=9.0)
        events = gateway.audit.for_device(DEV)
        assert [e.timestamp for e in events] == [5.0, 9.0]
        assert [e.event_type for e in events] == [
            AuditEventType.DEVICE_ATTACHED,
            AuditEventType.DEVICE_DETACHED,
        ]

    def test_default_timestamp_remains_zero(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(DEV)
        assert gateway.audit.for_device(DEV)[0].timestamp == 0.0
