"""Removal verification (Sect. III-C3) and severity-gated assessment."""

import pytest

from repro.gateway import SecurityGateway
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import (
    DirectTransport,
    IsolationDirective,
    assess_device_type,
    seed_database,
)

DEV = "aa:00:00:00:00:01"
DEV_IP = "192.168.1.20"


class _Scripted:
    def handle_reports(self, reports):
        return [IsolationDirective(device_type="unknown", level=IsolationLevel.STRICT) for _ in reports]


def gateway_with_device():
    gateway = SecurityGateway(DirectTransport(_Scripted()))
    gateway.attach_device(DEV)
    gateway.preauthorize(DEV, IsolationLevel.STRICT)
    return gateway


class TestRemovalVerification:
    def test_pending_device_traffic_dropped(self):
        gateway = gateway_with_device()
        gateway.sentinel.request_removal(DEV, now=100.0)
        frame = builder.arp_announce_frame(DEV, DEV_IP)
        assert gateway.process_frame(DEV, frame, 150.0).dropped

    def test_traffic_resets_the_quiet_clock(self):
        gateway = gateway_with_device()
        gateway.sentinel.request_removal(DEV, now=100.0)
        gateway.process_frame(DEV, builder.arp_announce_frame(DEV, DEV_IP), 150.0)
        # Seen at t=150; not verified at t=300 (only 150s quiet)...
        assert not gateway.sentinel.removal_verified(DEV, now=300.0)
        # ...but verified after a full quiet interval.
        assert gateway.sentinel.removal_verified(DEV, now=460.0)

    def test_verified_when_silent(self):
        gateway = gateway_with_device()
        gateway.sentinel.request_removal(DEV, now=100.0)
        assert gateway.sentinel.removal_verified(DEV, now=500.0)
        assert not gateway.sentinel.removal_verified(DEV, now=150.0)

    def test_unknown_device_raises(self):
        gateway = gateway_with_device()
        with pytest.raises(KeyError):
            gateway.sentinel.removal_verified(DEV, now=0.0)


class TestSeverityGatedAssessment:
    def test_low_severity_ignored_with_threshold(self):
        db = seed_database()
        # HomeMaticPlug's only report has severity 5.9.
        default = assess_device_type("HomeMaticPlug", db)
        assert default.level is IsolationLevel.RESTRICTED
        gated = assess_device_type("HomeMaticPlug", db, min_severity=7.0)
        assert gated.level is IsolationLevel.TRUSTED

    def test_high_severity_still_restricts(self):
        db = seed_database()
        gated = assess_device_type("EdimaxCam", db, min_severity=7.0)  # severity 9.0
        assert gated.level is IsolationLevel.RESTRICTED

    def test_threshold_filters_vulnerability_ids(self):
        db = seed_database()
        gated = assess_device_type("iKettle2", db, min_severity=8.0)  # severity 8.1
        assert gated.vulnerability_ids == ("REPRO-2015-0001",)
