"""OpenFlow match/action primitives and flow-table semantics."""

import itertools
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packets import builder, decode
from repro.sdn import Action, ActionType, FlowMatch, FlowRule, FlowTable

MAC = "aa:bb:cc:dd:ee:01"
GW = "02:00:00:00:00:01"
IP = "192.168.1.50"


def sample_packet():
    return decode(builder.tcp_raw_frame(MAC, GW, IP, "52.1.1.1", 50000, 443, b"x"))


class TestFlowMatch:
    def test_wildcard_matches_everything(self):
        assert FlowMatch().matches(sample_packet(), in_port=3)

    def test_eth_src_match(self):
        packet = sample_packet()
        assert FlowMatch(eth_src=MAC).matches(packet, 1)
        assert not FlowMatch(eth_src="00:00:00:00:00:99").matches(packet, 1)

    def test_in_port_match(self):
        packet = sample_packet()
        assert FlowMatch(in_port=4).matches(packet, 4)
        assert not FlowMatch(in_port=4).matches(packet, 5)

    def test_l3_l4_match(self):
        packet = sample_packet()
        assert FlowMatch(ip_dst="52.1.1.1", tp_dst=443, is_tcp=True).matches(packet, 1)
        assert not FlowMatch(ip_dst="52.1.1.2").matches(packet, 1)
        assert not FlowMatch(tp_dst=80).matches(packet, 1)
        assert not FlowMatch(is_udp=True).matches(packet, 1)

    def test_protocol_flags_match_each_field(self):
        # The flag word test must agree with comparing is_ip/is_tcp/is_udp
        # one field at a time, for every wildcard/True/False combination,
        # also on a match derived with dataclasses.replace.
        def expected(match, packet):
            return all(
                want is None or got == want
                for want, got in (
                    (match.is_ip, packet.is_ip),
                    (match.is_tcp, packet.is_tcp),
                    (match.is_udp, packet.is_udp),
                )
            )

        packets = [
            sample_packet(),
            decode(builder.ntp_request_frame(MAC, GW, IP, "17.1.1.1")),
            decode(builder.arp_probe_frame(MAC, IP)),
        ]
        for packet in packets:
            for is_ip, is_tcp, is_udp in itertools.product((None, True, False), repeat=3):
                match = FlowMatch(is_ip=is_ip, is_tcp=is_tcp, is_udp=is_udp)
                assert match.matches(packet, 1) is expected(match, packet)
                derived = replace(match, is_tcp=not is_tcp)
                assert derived.matches(packet, 1) is expected(derived, packet)

    def test_ip_src_match(self):
        packet = sample_packet()
        assert FlowMatch(ip_src=IP).matches(packet, 1)
        assert not FlowMatch(ip_src="10.0.0.1").matches(packet, 1)

    def test_specificity(self):
        assert FlowMatch().specificity() == 0
        assert FlowMatch(eth_src=MAC, ip_dst="1.2.3.4").specificity() == 2


class TestActions:
    def test_constructors(self):
        assert Action.output(3).port == 3
        assert Action.drop().type is ActionType.DROP
        assert Action.flood().type is ActionType.FLOOD
        assert Action.controller().type is ActionType.CONTROLLER

    def test_rule_drops_property(self):
        rule = FlowRule(match=FlowMatch(), actions=(Action.drop(),))
        assert rule.drops
        rule2 = FlowRule(match=FlowMatch(), actions=(Action.output(1),))
        assert not rule2.drops


class TestFlowTable:
    def test_priority_order(self):
        table = FlowTable()
        low = FlowRule(match=FlowMatch(), actions=(Action.flood(),), priority=1)
        high = FlowRule(match=FlowMatch(eth_src=MAC), actions=(Action.drop(),), priority=100)
        table.add(low)
        table.add(high)
        assert table.lookup(sample_packet(), 1) is high

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        generic = FlowRule(match=FlowMatch(), actions=(Action.flood(),), priority=10)
        specific = FlowRule(match=FlowMatch(eth_src=MAC), actions=(Action.drop(),), priority=10)
        table.add(generic)
        table.add(specific)
        assert table.lookup(sample_packet(), 1) is specific

    def test_no_match_returns_none(self):
        table = FlowTable()
        table.add(FlowRule(match=FlowMatch(eth_src="00:00:00:00:00:09"), actions=(Action.drop(),)))
        assert table.lookup(sample_packet(), 1) is None

    def test_remove_by_cookie(self):
        table = FlowTable()
        for cookie in (1, 1, 2):
            table.add(FlowRule(match=FlowMatch(), actions=(Action.flood(),), cookie=cookie))
        assert table.remove_by_cookie(1) == 2
        assert len(table) == 1

    def test_idle_expiry(self):
        table = FlowTable()
        rule = FlowRule(match=FlowMatch(), actions=(Action.flood(),), idle_timeout=10.0)
        table.add(rule)
        rule.record_hit(100, now=0.0)
        assert table.expire_idle(now=5.0) == []
        expired = table.expire_idle(now=20.0)
        assert expired == [rule]
        assert len(table) == 0

    def test_rules_without_timeout_never_expire(self):
        table = FlowTable()
        table.add(FlowRule(match=FlowMatch(), actions=(Action.flood(),)))
        assert table.expire_idle(now=1e9) == []

    def test_stats_recorded(self):
        rule = FlowRule(match=FlowMatch(), actions=(Action.flood(),))
        rule.record_hit(64, now=1.0)
        rule.record_hit(100, now=2.0)
        assert rule.packet_count == 2
        assert rule.byte_count == 164
        assert rule.last_used == 2.0


def _sorted_oracle_add(rules, rule):
    """The table's original insert: append, then stable-sort everything."""
    rules.append(rule)
    rules.sort(key=lambda r: (-r.priority, -r.match.specificity()))


_matches = st.builds(
    FlowMatch,
    in_port=st.none() | st.integers(1, 3),
    eth_src=st.none() | st.just(MAC),
    ip_dst=st.none() | st.just("52.1.1.1"),
    tp_dst=st.none() | st.just(443),
)
_new_rules = st.builds(
    FlowRule,
    match=_matches,
    actions=st.just((Action.flood(),)),
    priority=st.sampled_from([1, 10, 100]),
    idle_timeout=st.none() | st.sampled_from([5.0, 20.0]),
    cookie=st.integers(0, 2),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _new_rules),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("cookie"), st.integers(0, 2)),
        st.tuples(st.just("hit"), st.integers(0, 30)),
        st.tuples(st.just("expire"), st.floats(0.0, 60.0)),
    ),
    max_size=40,
)


class TestFlowTableOrder:
    @given(_ops)
    @settings(deadline=None)
    def test_random_sequences_keep_sorted_order(self, ops):
        """Insertion by bisection equals the full stable re-sort, ties included."""
        table, oracle = FlowTable(), []
        now = 0.0
        for op, arg in ops:
            if op == "add":
                table.add(arg)
                _sorted_oracle_add(oracle, arg)
            elif op == "remove" and oracle:
                rule = oracle[arg % len(oracle)]
                table.remove(rule)
                oracle.remove(rule)
            elif op == "cookie":
                removed = table.remove_by_cookie(arg)
                kept = [rule for rule in oracle if rule.cookie != arg]
                assert removed == len(oracle) - len(kept)
                oracle[:] = kept
            elif op == "hit" and oracle:
                now += 1.0
                oracle[arg % len(oracle)].record_hit(64, now)
            elif op == "expire":
                expired = table.expire_idle(now + arg)
                assert [id(r) for r in expired] == [
                    id(r)
                    for r in oracle
                    if r.idle_timeout is not None and now + arg - r.last_used > r.idle_timeout
                ]
                for rule in expired:
                    oracle.remove(rule)
            assert [id(rule) for rule in table] == [id(rule) for rule in oracle]
            packet = sample_packet()
            expected = next((r for r in oracle if r.match.matches(packet, 1)), None)
            assert table.lookup(packet, 1) is expected
