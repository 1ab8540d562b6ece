"""Source-address validation via DHCP snooping."""

from repro.gateway import SecurityGateway
from repro.packets import builder
from repro.sdn import IsolationLevel
from repro.securityservice import DirectTransport, IsolationDirective

DEV = "aa:00:00:00:00:01"
VICTIM_IP = "192.168.1.99"
DEV_IP = "192.168.1.20"


class _Scripted:
    def handle_reports(self, reports):
        return [IsolationDirective(device_type="Dev", level=IsolationLevel.TRUSTED) for _ in reports]


def onboarded_gateway():
    gateway = SecurityGateway(DirectTransport(_Scripted()))
    gateway.attach_device(DEV)
    frames = [
        builder.dhcp_discover_frame(DEV, 5, "dev"),
        builder.dhcp_request_frame(DEV, 5, DEV_IP, "192.168.1.1"),
        builder.arp_announce_frame(DEV, DEV_IP),
        builder.dns_query_frame(DEV, gateway.gateway_mac, DEV_IP, "192.168.1.1", "c.example"),
        builder.https_client_hello_frame(DEV, gateway.gateway_mac, DEV_IP, "52.1.1.1", "c.example"),
    ]
    for i, frame in enumerate(frames):
        gateway.process_frame(DEV, frame, i * 0.3)
    gateway.process_frame(DEV, builder.arp_announce_frame(DEV, DEV_IP), 60.0)
    return gateway


class TestAntiSpoofing:
    def test_binding_learned_from_dhcp(self):
        gateway = onboarded_gateway()
        assert gateway.sentinel.ip_bindings[DEV] == DEV_IP

    def test_legitimate_traffic_unaffected(self):
        gateway = onboarded_gateway()
        frame = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.2.2.2", "x.example"
        )
        assert not gateway.process_frame(DEV, frame, 100.0).dropped

    def test_spoofed_source_dropped(self):
        gateway = onboarded_gateway()
        spoofed = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, VICTIM_IP, "52.2.2.2", "x.example"
        )
        result = gateway.process_frame(DEV, spoofed, 100.0)
        assert result.dropped
        assert gateway.sentinel.spoof_drops == 1

    def test_spoof_cannot_ride_existing_allow_rule(self):
        gateway = onboarded_gateway()
        legit = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.2.2.2", "x.example"
        )
        assert not gateway.process_frame(DEV, legit, 100.0).dropped  # allow rule installed
        spoofed = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, VICTIM_IP, "52.2.2.2", "x.example"
        )
        assert gateway.process_frame(DEV, spoofed, 100.5).dropped

    def test_ipv6_link_local_not_flagged(self):
        gateway = onboarded_gateway()
        frame = builder.icmpv6_router_solicit_frame(DEV, "fe80::1")
        assert not gateway.process_frame(DEV, frame, 100.0).dropped
        assert gateway.sentinel.spoof_drops == 0

    def test_unbound_device_not_flagged(self):
        # A device that never did DHCP (static IP) has no binding to check.
        gateway = SecurityGateway(DirectTransport(_Scripted()))
        gateway.attach_device(DEV)
        gateway.preauthorize(DEV, IsolationLevel.TRUSTED)
        frame = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, "192.168.1.123", "52.2.2.2", "x.example"
        )
        assert not gateway.process_frame(DEV, frame, 1.0).dropped
