"""Security Gateway + Sentinel module enforcement behaviour."""

import pytest

from repro.gateway import SecurityGateway
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import DirectTransport, IsolationDirective


class ScriptedService:
    """IoTSSP stub returning a canned directive (isolates gateway logic)."""

    def __init__(self, level=IsolationLevel.TRUSTED, endpoints=frozenset(), device_type="Dev"):
        self.directive = IsolationDirective(
            device_type=device_type, level=level, permitted_endpoints=frozenset(endpoints)
        )
        self.reports = []

    def handle_reports(self, reports):
        self.reports.extend(reports)
        return [self.directive for _ in reports]


DEV = "aa:00:00:00:00:01"
PEER = "aa:00:00:00:00:02"
DEV_IP = "192.168.1.20"
PEER_IP = "192.168.1.21"
CLOUD = "52.10.0.1"
ELSEWHERE = "52.99.0.1"


def run_setup(gateway, mac=DEV, ip=DEV_IP):
    """Feed a minimal setup dialogue, then an idle-gap packet."""
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
    # Idle gap closes the profiling session on the next packet.
    gateway.process_frame(
        mac, builder.arp_announce_frame(mac, ip), t + 30.0
    )


class TestProfilingFlow:
    def test_directive_obtained_after_setup(self):
        service = ScriptedService(level=IsolationLevel.TRUSTED)
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        run_setup(gateway)
        assert len(service.reports) == 1
        assert gateway.isolation_level(DEV) is IsolationLevel.TRUSTED
        assert DEV in gateway.rule_cache

    def test_fingerprint_contains_setup_packets(self):
        service = ScriptedService()
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        run_setup(gateway)
        fingerprint = service.reports[0].fingerprint
        assert len(fingerprint) >= 4

    def test_traffic_flows_during_profiling(self):
        gateway = SecurityGateway(DirectTransport(ScriptedService()))
        gateway.attach_device(DEV)
        result = gateway.process_frame(DEV, builder.dhcp_discover_frame(DEV, 1), 0.0)
        assert not result.dropped
        # No enforcement rule yet: packets keep punting to the controller.
        assert gateway.flow_rule_count == 0

    def test_finish_profiling_sweep(self):
        service = ScriptedService()
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        gateway.process_frame(DEV, builder.dhcp_discover_frame(DEV, 1), 0.0)
        directive = gateway.finish_profiling(DEV)
        assert directive is not None
        assert service.reports


class TestEnforcement:
    def _gateway(self, level, endpoints=frozenset()):
        service = ScriptedService(level=level, endpoints=endpoints)
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        gateway.attach_device(PEER)
        run_setup(gateway)
        return gateway

    def test_strict_device_blocked_from_internet(self):
        gateway = self._gateway(IsolationLevel.STRICT)
        frame = builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example")
        result = gateway.process_frame(DEV, frame, 100.0)
        assert result.dropped

    def test_restricted_device_reaches_allowlisted_cloud_only(self):
        gateway = self._gateway(IsolationLevel.RESTRICTED, endpoints={CLOUD})
        ok = gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, CLOUD, "c.example"),
            100.0,
        )
        assert not ok.dropped
        blocked = gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"),
            101.0,
        )
        assert blocked.dropped

    def test_trusted_device_full_internet(self):
        gateway = self._gateway(IsolationLevel.TRUSTED)
        result = gateway.process_frame(
            DEV,
            builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"),
            100.0,
        )
        assert not result.dropped

    def test_untrusted_device_cannot_reach_trusted_peer(self):
        service = ScriptedService(level=IsolationLevel.STRICT)
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        gateway.attach_device(PEER)
        run_setup(gateway)  # DEV becomes STRICT
        gateway.preauthorize(PEER, IsolationLevel.TRUSTED)
        frame = builder.udp_raw_frame(DEV, PEER, DEV_IP, PEER_IP, 50000, 9999, b"attack")
        result = gateway.process_frame(DEV, frame, 100.0)
        assert result.dropped
        assert gateway.sentinel.policy_denials >= 1

    def test_devices_within_untrusted_overlay_can_talk(self):
        service = ScriptedService(level=IsolationLevel.STRICT)
        gateway = SecurityGateway(DirectTransport(service))
        gateway.attach_device(DEV)
        gateway.attach_device(PEER)
        run_setup(gateway)
        gateway.preauthorize(PEER, IsolationLevel.STRICT)
        frame = builder.udp_raw_frame(DEV, PEER, DEV_IP, PEER_IP, 50000, 9999, b"hello")
        result = gateway.process_frame(DEV, frame, 100.0)
        assert not result.dropped

    def test_enforcement_installs_flow_rules(self):
        gateway = self._gateway(IsolationLevel.TRUSTED)
        before = gateway.flow_rule_count
        frame = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, ELSEWHERE, "x.example"
        )
        gateway.process_frame(DEV, frame, 100.0)
        assert gateway.flow_rule_count == before + 1
        # Second packet of the flow is handled in the data plane.
        misses = gateway.switch.table_misses
        gateway.process_frame(DEV, frame, 100.5)
        assert gateway.switch.table_misses == misses

    def test_user_notification_for_strict_devices(self):
        notifications = []
        service = ScriptedService(level=IsolationLevel.STRICT, device_type="unknown")
        gateway = SecurityGateway(DirectTransport(service), notify_user=notifications.append)
        gateway.attach_device(DEV)
        run_setup(gateway)
        assert len(notifications) == 1
        assert notifications[0].device_mac == DEV


class TestGatewayLifecycle:
    def test_filtering_requires_transport(self):
        with pytest.raises(ValueError):
            SecurityGateway(filtering=True)

    def test_attach_detach(self):
        gateway = SecurityGateway(filtering=False)
        device = gateway.attach_device(DEV)
        assert device.port >= 2
        assert DEV in gateway.attached_macs
        gateway.detach_device(DEV)
        assert DEV not in gateway.attached_macs
        with pytest.raises(KeyError):
            gateway.detach_device(DEV)

    def test_detach_releases_switch_port(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(PEER)
        baseline = gateway.switch.ports
        detached = set()
        for i in range(20):
            mac = f"aa:00:00:00:01:{i:02x}"
            detached.add(gateway.attach_device(mac).port)
            gateway.process_frame(mac, builder.arp_announce_frame(mac, f"192.168.1.{100 + i}"))
            gateway.detach_device(mac)
        assert gateway.switch.ports == baseline
        flood = gateway.process_frame(PEER, builder.arp_announce_frame(PEER, PEER_IP))
        assert flood.out_ports
        assert not detached & set(flood.out_ports)

    def test_peer_rule_toward_detached_device_is_dropped(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(DEV)
        gateway.attach_device(PEER)
        peer_port = gateway.device(PEER).port

        def dev_to_peer():
            return builder.udp_raw_frame(DEV, PEER, DEV_IP, PEER_IP, 50000, 50001, b"x")

        gateway.process_frame(PEER, builder.arp_announce_frame(PEER, PEER_IP))
        gateway.process_frame(DEV, dev_to_peer())
        assert gateway.process_frame(DEV, dev_to_peer()).out_ports == (peer_port,)
        gateway.detach_device(PEER)
        result = gateway.process_frame(DEV, dev_to_peer())
        assert peer_port not in result.out_ports

    def test_duplicate_attach_rejected(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(DEV)
        with pytest.raises(ValueError):
            gateway.attach_device(DEV)

    def test_invalid_interface(self):
        gateway = SecurityGateway(filtering=False)
        with pytest.raises(ValueError):
            gateway.attach_device(DEV, interface="serial")

    def test_frame_from_unattached_device(self):
        gateway = SecurityGateway(filtering=False)
        with pytest.raises(KeyError):
            gateway.process_frame(DEV, builder.arp_probe_frame(DEV, DEV_IP))

    def test_wifi_device_gets_psk(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(DEV, interface="wifi")
        assert gateway.wps.credential_of(DEV) is not None

    def test_eth_device_no_psk(self):
        gateway = SecurityGateway(filtering=False)
        gateway.attach_device(DEV, interface="eth0")
        assert gateway.wps.credential_of(DEV) is None

    def test_no_filtering_mode_has_no_sentinel(self):
        gateway = SecurityGateway(filtering=False)
        assert gateway.sentinel is None
        gateway.attach_device(DEV)
        assert gateway.finish_profiling(DEV) is None

    def test_preauthorize_requires_attachment(self):
        gateway = SecurityGateway(DirectTransport(ScriptedService()))
        with pytest.raises(KeyError):
            gateway.preauthorize(DEV, IsolationLevel.TRUSTED)
