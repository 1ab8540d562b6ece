"""Flow-granular filtering (Sect. V's per-flow extension)."""

import pytest

from repro.gateway import SecurityGateway
from repro.packets import builder
from repro.sdn import FlowPolicy, IsolationLevel
from repro.sdn.rules import EnforcementRule
from repro.securityservice import DirectTransport, IsolationDirective

DEV = "aa:00:00:00:00:01"
DEV_IP = "192.168.1.20"
CLOUD = "52.30.0.1"


class _Scripted:
    def handle_reports(self, reports):
        return [IsolationDirective(device_type="Dev", level=IsolationLevel.TRUSTED) for _ in reports]


def make_gateway():
    gateway = SecurityGateway(DirectTransport(_Scripted()))
    gateway.attach_device(DEV)
    gateway.preauthorize(DEV, IsolationLevel.TRUSTED)
    return gateway


class TestFlowPolicy:
    def test_wildcards(self):
        policy = FlowPolicy(allow=False)
        assert policy.matches(is_tcp=True, is_udp=False, dst_port=80, dst_ip="1.2.3.4")

    def test_protocol_match(self):
        policy = FlowPolicy(allow=True, protocol="udp")
        assert policy.matches(is_tcp=False, is_udp=True, dst_port=None, dst_ip=None)
        assert not policy.matches(is_tcp=True, is_udp=False, dst_port=None, dst_ip=None)

    def test_port_and_ip_match(self):
        policy = FlowPolicy(allow=True, dst_port=554, dst_ip=CLOUD)
        assert policy.matches(is_tcp=True, is_udp=False, dst_port=554, dst_ip=CLOUD)
        assert not policy.matches(is_tcp=True, is_udp=False, dst_port=554, dst_ip="9.9.9.9")
        assert not policy.matches(is_tcp=True, is_udp=False, dst_port=80, dst_ip=CLOUD)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowPolicy(allow=True, protocol="icmp")
        with pytest.raises(ValueError):
            FlowPolicy(allow=True, dst_port=99999)

    def test_rule_first_match_wins(self):
        rule = EnforcementRule(
            device_mac=DEV,
            level=IsolationLevel.TRUSTED,
            flow_policies=(
                FlowPolicy(allow=True, dst_port=443),
                FlowPolicy(allow=False, protocol="tcp"),
            ),
        )
        assert rule.flow_verdict(is_tcp=True, is_udp=False, dst_port=443, dst_ip=None) is True
        assert rule.flow_verdict(is_tcp=True, is_udp=False, dst_port=80, dst_ip=None) is False
        assert rule.flow_verdict(is_tcp=False, is_udp=True, dst_port=53, dst_ip=None) is None

    def test_policies_count_in_memory_model(self):
        bare = EnforcementRule(device_mac=DEV, level=IsolationLevel.TRUSTED)
        policied = EnforcementRule(
            device_mac=DEV,
            level=IsolationLevel.TRUSTED,
            flow_policies=(FlowPolicy(allow=False, dst_port=23),),
        )
        assert policied.memory_bytes() > bare.memory_bytes()
        assert policied.hash_value != bare.hash_value


class TestGatewayFlowFiltering:
    def test_deny_port_overrides_trusted_level(self):
        gateway = make_gateway()
        gateway.set_flow_policies(DEV, (FlowPolicy(allow=False, protocol="tcp", dst_port=23),))
        telnet = builder.tcp_raw_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.1.2.3", 50000, 23, b"root"
        )
        assert gateway.process_frame(DEV, telnet, 10.0).dropped
        # Unrelated traffic still follows the trusted device-level verdict.
        https = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.1.2.3", "c.example"
        )
        assert not gateway.process_frame(DEV, https, 11.0).dropped

    def test_allow_policy_overrides_strict_level(self):
        gateway = SecurityGateway(DirectTransport(_Scripted()))
        gateway.attach_device(DEV)
        gateway.preauthorize(DEV, IsolationLevel.STRICT)
        gateway.set_flow_policies(
            DEV, (FlowPolicy(allow=True, protocol="udp", dst_port=123),)
        )
        ntp = builder.ntp_request_frame(DEV, gateway.gateway_mac, DEV_IP, "52.9.9.9")
        assert not gateway.process_frame(DEV, ntp, 10.0).dropped
        other = builder.https_client_hello_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.9.9.9", "x.example"
        )
        assert gateway.process_frame(DEV, other, 11.0).dropped

    def test_setting_policies_flushes_stale_flows(self):
        gateway = make_gateway()
        telnet = builder.tcp_raw_frame(
            DEV, gateway.gateway_mac, DEV_IP, "52.1.2.3", 50000, 23, b"x"
        )
        assert not gateway.process_frame(DEV, telnet, 1.0).dropped  # allow-rule installed
        gateway.set_flow_policies(DEV, (FlowPolicy(allow=False, dst_port=23),))
        # Without the flush the old allow rule would keep matching.
        assert gateway.process_frame(DEV, telnet, 2.0).dropped

    def test_policies_require_existing_rule(self):
        gateway = SecurityGateway(DirectTransport(_Scripted()))
        gateway.attach_device(DEV)
        with pytest.raises(KeyError):
            gateway.set_flow_policies(DEV, (FlowPolicy(allow=False),))
