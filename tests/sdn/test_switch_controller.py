"""Switch data plane and controller module-chain tests."""

import pytest

from repro.packets import builder
from repro.sdn import (
    Action,
    Controller,
    ControllerModule,
    Decision,
    FlowMatch,
    FlowRule,
    LearningSwitchModule,
    OpenVSwitch,
)

MAC_A = "aa:00:00:00:00:01"
MAC_B = "aa:00:00:00:00:02"
IP_A = "192.168.1.10"
IP_B = "192.168.1.11"


def frame_a_to_b(payload=b"hello"):
    return builder.udp_raw_frame(MAC_A, MAC_B, IP_A, IP_B, 50000, 50001, payload)


class TestSwitch:
    def make(self, ports=(1, 2, 3)):
        switch = OpenVSwitch()
        for port in ports:
            switch.add_port(port)
        return switch

    def test_duplicate_port_rejected(self):
        switch = self.make()
        with pytest.raises(ValueError):
            switch.add_port(1)

    def test_unknown_in_port_rejected(self):
        switch = self.make()
        with pytest.raises(ValueError):
            switch.process_frame(9, frame_a_to_b())

    def test_flood_on_no_controller_and_miss(self):
        switch = self.make()
        result = switch.process_frame(1, frame_a_to_b())
        assert set(result.out_ports) == {2, 3}
        assert not result.dropped

    def test_mac_learning(self):
        switch = self.make()
        switch.process_frame(1, frame_a_to_b())
        assert switch.port_of(MAC_A) == 1

    def test_manual_learn_validates_port(self):
        switch = self.make()
        with pytest.raises(ValueError):
            switch.learn(MAC_A, 99)

    def test_installed_rule_applies(self):
        switch = self.make()
        switch.install(FlowRule(match=FlowMatch(eth_src=MAC_A), actions=(Action.output(2),)))
        result = switch.process_frame(1, frame_a_to_b(), now=5.0)
        assert result.out_ports == (2,)
        assert result.matched_rule is not None
        assert result.matched_rule.packet_count == 1

    def test_drop_rule(self):
        switch = self.make()
        switch.install(FlowRule(match=FlowMatch(eth_src=MAC_A), actions=(Action.drop(),)))
        result = switch.process_frame(1, frame_a_to_b())
        assert result.dropped
        assert result.out_ports == ()
        assert switch.packets_dropped == 1

    def test_output_to_unknown_port_rejected(self):
        switch = self.make()
        switch.install(FlowRule(match=FlowMatch(), actions=(Action.output(42),)))
        with pytest.raises(ValueError):
            switch.process_frame(1, frame_a_to_b())

    def test_remove_port_drops_its_macs_and_rules(self):
        switch = self.make()
        switch.learn(MAC_A, 1)
        switch.learn(MAC_B, 2)
        to_b = FlowRule(match=FlowMatch(eth_dst=MAC_B), actions=(Action.output(2),))
        from_b = FlowRule(match=FlowMatch(in_port=2), actions=(Action.output(3),))
        unrelated = FlowRule(match=FlowMatch(eth_src=MAC_B), actions=(Action.output(3),))
        for rule in (to_b, from_b, unrelated):
            switch.install(rule)
        switch.remove_port(2)
        assert switch.ports == frozenset({1, 3})
        assert switch.port_of(MAC_B) is None
        assert switch.port_of(MAC_A) == 1
        assert list(switch.table) == [unrelated]
        # The departed port's forwarding entry is gone, so A -> B floods
        # to the remaining ports instead of outputting to a missing one.
        assert switch.process_frame(1, frame_a_to_b()).out_ports == (3,)

    def test_remove_unknown_port_rejected(self):
        switch = self.make()
        with pytest.raises(ValueError):
            switch.remove_port(9)

    def test_counters(self):
        switch = self.make()
        switch.process_frame(1, frame_a_to_b())
        switch.process_frame(1, frame_a_to_b())
        assert switch.packets_processed == 2
        assert switch.table_misses == 2


class _ClaimAll(ControllerModule):
    name = "claim-all"

    def __init__(self, actions):
        self.actions = actions
        self.seen = []

    def on_packet_in(self, controller, event):
        self.seen.append(event)
        return Decision(actions=self.actions)


class _PassThrough(ControllerModule):
    name = "pass"

    def on_packet_in(self, controller, event):
        return None


class TestController:
    def test_module_chain_order(self):
        switch = OpenVSwitch()
        for port in (1, 2):
            switch.add_port(port)
        controller = Controller(switch=switch)
        first = _ClaimAll((Action.drop(),))
        second = _ClaimAll((Action.flood(),))
        controller.register(_PassThrough())
        controller.register(first)
        controller.register(second)
        result = switch.process_frame(1, frame_a_to_b())
        assert result.dropped  # first claiming module wins
        assert first.seen and not second.seen

    def test_default_flood_when_no_module_claims(self):
        switch = OpenVSwitch()
        for port in (1, 2):
            switch.add_port(port)
        controller = Controller(switch=switch)
        controller.register(_PassThrough())
        result = switch.process_frame(1, frame_a_to_b())
        assert result.out_ports == (2,)
        assert result.sent_to_controller

    def test_learning_switch_installs_after_learning(self):
        switch = OpenVSwitch()
        for port in (1, 2):
            switch.add_port(port)
        controller = Controller(switch=switch)
        controller.register(LearningSwitchModule())
        # B talks first so its port is learned.
        switch.process_frame(2, builder.udp_raw_frame(MAC_B, MAC_A, IP_B, IP_A, 1, 2, b"x"))
        misses_before = switch.table_misses
        switch.process_frame(1, frame_a_to_b())
        assert len(switch.table) == 1  # reactive flow installed
        switch.process_frame(1, frame_a_to_b())
        assert switch.table_misses == misses_before + 1  # second hit no miss
        assert controller.flow_mods_sent == 1

    def test_packet_in_counter(self):
        switch = OpenVSwitch()
        switch.add_port(1)
        switch.add_port(2)
        controller = Controller(switch=switch)
        controller.register(LearningSwitchModule())
        switch.process_frame(1, frame_a_to_b())
        assert controller.packet_ins_handled == 1
