"""Audit-trail tests: the gateway records its decisions."""

from repro.gateway import AuditEventType, AuditLog, SecurityGateway
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import DirectTransport, IsolationDirective

DEV = "aa:00:00:00:00:01"
DEV_IP = "192.168.1.20"


class _Scripted:
    def __init__(self, level=IsolationLevel.STRICT):
        self.level = level

    def handle_reports(self, reports):
        return [IsolationDirective(device_type="unknown", level=self.level) for _ in reports]


def onboarded(level=IsolationLevel.STRICT, notify=None):
    gateway = SecurityGateway(DirectTransport(_Scripted(level)), notify_user=notify)
    gateway.attach_device(DEV)
    frames = [
        builder.dhcp_discover_frame(DEV, 9, "dev"),
        builder.dhcp_request_frame(DEV, 9, DEV_IP, "192.168.1.1"),
        builder.arp_announce_frame(DEV, DEV_IP),
        builder.ntp_request_frame(DEV, gateway.gateway_mac, DEV_IP, "52.0.0.1"),
    ]
    for i, frame in enumerate(frames):
        gateway.process_frame(DEV, frame, i * 0.2)
    gateway.process_frame(DEV, builder.arp_announce_frame(DEV, DEV_IP), 60.0)
    return gateway


class TestAuditLog:
    def test_capacity_bounded(self):
        log = AuditLog(capacity=3)
        for i in range(5):
            log.record(float(i), AuditEventType.FLOW_DENIED, DEV)
        assert len(log) == 3
        assert log.all()[0].timestamp == 2.0

    def test_queries(self):
        log = AuditLog()
        log.record(1.0, AuditEventType.DEVICE_ATTACHED, "aa:00:00:00:00:01")
        log.record(2.0, AuditEventType.FLOW_DENIED, "aa:00:00:00:00:02")
        log.record(3.0, AuditEventType.FLOW_DENIED, "aa:00:00:00:00:01")
        assert len(log.for_device("aa:00:00:00:00:01")) == 2
        assert len(log.of_type(AuditEventType.FLOW_DENIED)) == 2
        assert len(log.since(2.0)) == 2
        assert log.summary() == {"device-attached": 1, "flow-denied": 2}

    def test_to_dict(self):
        log = AuditLog()
        event = log.record(1.5, AuditEventType.SPOOF_DETECTED, DEV, "detail")
        assert event.to_dict() == {
            "timestamp": 1.5,
            "type": "spoof-detected",
            "device": DEV,
            "detail": "detail",
        }


class TestGatewayAuditing:
    def test_attach_and_directive_recorded(self):
        gateway = onboarded()
        types = [e.event_type for e in gateway.audit.all()]
        assert AuditEventType.DEVICE_ATTACHED in types
        assert AuditEventType.DIRECTIVE_RECEIVED in types

    def test_denial_recorded(self):
        gateway = onboarded(level=IsolationLevel.STRICT)
        frame = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.9.9.9", "x.example"
        )
        gateway.process_frame(DEV, frame, 100.0)
        denials = gateway.audit.of_type(AuditEventType.FLOW_DENIED)
        assert denials and denials[0].device_mac == DEV
        assert "52.9.9.9" in denials[0].detail

    def test_spoof_recorded(self):
        gateway = onboarded(level=IsolationLevel.TRUSTED)
        spoofed = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, "192.168.1.99", "52.9.9.9", "x.example"
        )
        gateway.process_frame(DEV, spoofed, 100.0)
        events = gateway.audit.of_type(AuditEventType.SPOOF_DETECTED)
        assert events and "192.168.1.99" in events[0].detail

    def test_notification_recorded(self):
        received = []
        gateway = onboarded(level=IsolationLevel.STRICT, notify=received.append)
        assert received
        assert gateway.audit.of_type(AuditEventType.USER_NOTIFIED)

    def test_detach_recorded(self):
        gateway = onboarded()
        gateway.detach_device(DEV)
        assert gateway.audit.of_type(AuditEventType.DEVICE_DETACHED)

    def test_device_timeline_is_coherent(self):
        gateway = onboarded(level=IsolationLevel.STRICT)
        frame = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.9.9.9", "x.example"
        )
        gateway.process_frame(DEV, frame, 100.0)
        timeline = [e.event_type for e in gateway.audit.for_device(DEV)]
        assert timeline.index(AuditEventType.DEVICE_ATTACHED) < timeline.index(
            AuditEventType.DIRECTIVE_RECEIVED
        )
        assert timeline.index(AuditEventType.DIRECTIVE_RECEIVED) < timeline.index(
            AuditEventType.FLOW_DENIED
        )
