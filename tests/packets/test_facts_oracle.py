"""Oracle suite: the wire-level fact walk equals the layered codec walk.

``decode`` takes every Table I fact from
:func:`repro.packets.facts.frame_facts`, which never builds a codec
object.  ``tests.oracles.layered_decode`` derives the same facts the
plain way, by parsing every layer and reading each fact off the parsed
header.  Every test here checks one frame against it: every public fact
of ``decode`` (value *and* type), ``decode(frame).layers`` against the
oracle's layers, and the frame's 23-feature ``packet_features`` row
against one built from the oracle's facts in ``FEATURE_NAMES`` order.
The frames are the stage-0 corpus, its truncations and byte mutations,
random bytes, and hypothesis-generated messages reusing the generators
from ``tests/packets``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FEATURE_NAMES, DestinationCounter, packet_features
from repro.packets import FLAG_NAMES, DecodedPacket, DecodeError, builder, decode
from repro.packets.dhcp import CLIENT_PORT, SERVER_PORT
from repro.packets.dns import PORT_DNS, PORT_MDNS
from repro.packets.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV6, ethernet
from repro.packets.ipv6 import HopByHopOptions, IPv6Header
from repro.packets.ntp import PORT_NTP
from repro.packets.ssdp import PORT_SSDP
from tests.oracles import FACT_DEFAULTS, layered_decode
from tests.packets.test_roundtrip_properties import (
    arp_packets,
    dhcp_messages,
    dns_messages,
    ntp_packets,
    ssdp_messages,
)

MAC = "aa:bb:cc:dd:ee:01"
GW = "02:00:00:00:00:01"
IP = "192.168.1.50"
IP6 = "fe80::1"

#: Oracle fact key of each FLAG_NAMES bit.
FLAG_FACTS = tuple(name if name.startswith("ip_option") else f"is_{name}" for name in FLAG_NAMES)


def corpus_frames(mac=MAC):
    """One frame per protocol/branch the Table I features can observe."""
    b = builder
    return [
        b.dhcp_discover_frame(mac, 1, "dev"),
        b.dhcp_request_frame(mac, 1, IP, "192.168.1.1"),
        b.bootp_request_frame(mac, 2),
        b.arp_probe_frame(mac, IP),
        b.arp_announce_frame(mac, IP),
        b.dns_query_frame(mac, GW, IP, "192.168.1.1", "a.example"),
        b.mdns_query_frame(mac, IP, "x._tcp.local"),
        b.mdns_announce_frame(mac, IP, "inst", "x._tcp.local"),
        b.ssdp_msearch_frame(mac, IP),
        b.ssdp_notify_frame(mac, IP, "http://x/desc.xml", "upnp:rootdevice", "uuid:1"),
        b.ntp_request_frame(mac, GW, IP, "17.1.1.1"),
        b.https_client_hello_frame(mac, GW, IP, "52.1.1.1", "a.example"),
        b.http_get_frame(mac, GW, IP, "52.1.1.1", "api.example", "/p"),
        b.http_post_frame(mac, GW, IP, "52.1.1.1", "api.example", "/p", b"xyz"),
        b.tcp_syn_frame(mac, GW, IP, "52.1.1.1", 1234, 80),
        b.tcp_raw_frame(mac, GW, IP, "52.1.1.1", 1234, 9999, b"\x01\x02\x03"),
        b.udp_raw_frame(mac, GW, IP, "52.1.1.1", 1234, 9999, b"\x01\x02"),
        b.icmp_echo_request_frame(mac, GW, IP, "8.8.8.8", 1, 1),
        b.icmpv6_router_solicit_frame(mac, IP6),
        b.igmp_join_frame(mac, IP, "224.0.0.251"),
        b.igmpv3_report_frame(mac, IP, ("224.0.0.251", "239.255.255.250")),
        b.mldv2_report_frame(mac, IP6),
        b.llc_frame(mac, payload=b"\xaa\xaa\x03extra"),
        b.eapol_frame(mac, GW, 1),
    ]


def expected_bits(facts):
    return sum(1 << i for i, key in enumerate(FLAG_FACTS) if facts[key])


def oracle_port_class(port):
    """Sect. IV-A's port classes: none, well-known, registered, dynamic."""
    if port is None:
        return 0
    return 1 if port <= 1023 else 2 if port <= 49151 else 3


def expected_features(facts):
    """The Table I row of one frame, with a fresh destination counter."""
    values = {name: int(facts[key]) for name, key in zip(FLAG_NAMES, FLAG_FACTS)}
    values.update(
        packet_size=facts["size"],
        raw_data=int(facts["has_raw_data"]),
        dst_ip_counter=int(facts["dst_ip"] is not None),
        src_port_class=oracle_port_class(facts["src_port"]),
        dst_port_class=oracle_port_class(facts["dst_port"]),
    )
    return np.array([values[name] for name in FEATURE_NAMES], dtype=np.float64)


def assert_matches_oracle(frame):
    """decode, its lazy layers and its feature row all equal the oracle."""
    try:
        facts, layers = layered_decode(frame)
    except DecodeError:
        with pytest.raises(DecodeError):
            decode(frame)
        return
    packet = decode(frame)
    got = {key: getattr(packet, key) for key in facts}
    assert got == facts, frame.hex()
    for key, value in facts.items():
        assert type(got[key]) is type(value), (key, frame.hex())
    assert packet.flag_bits == expected_bits(facts), frame.hex()
    assert packet.layers == layers, frame.hex()
    features = packet_features(packet, DestinationCounter())
    expected = expected_features(facts)
    assert np.array_equal(features, expected), (
        frame.hex(),
        [name for name, a, b in zip(FEATURE_NAMES, features, expected) if a != b],
    )


class TestCorpus:
    def test_oracle_reports_every_public_fact(self):
        public = set(FACT_DEFAULTS) | {"size"}
        assert set(layered_decode(corpus_frames()[0])[0]) == public
        assert set(FLAG_FACTS) <= public

    def test_every_corpus_frame(self):
        for frame in corpus_frames():
            assert_matches_oracle(frame)

    def test_every_truncation(self):
        for frame in corpus_frames():
            for cut in range(len(frame) + 1):
                assert_matches_oracle(frame[:cut])

    def test_ipv6_hop_by_hop_tcp(self):
        """Hop-by-hop options in front of a transport the corpus lacks."""
        tcp = builder.tcp_raw_frame(MAC, GW, IP, "52.1.1.1", 1234, 443, b"\x16\x03\x01\x00\x01x")
        segment = tcp[14 + 20 :]
        hbh = HopByHopOptions(next_header=6, router_alert=True, padding=True).pack(segment)
        inner = IPv6Header(src="2001:db8::1", dst="2001:db8::2", next_header=0).pack(hbh)
        frame = ethernet(GW, MAC, ETHERTYPE_IPV6, inner)
        assert decode(frame).is_tcp
        for cut in range(len(frame) + 1):
            assert_matches_oracle(frame[:cut])


class TestRunts:
    def test_runt_raises_at_decode(self):
        """The runt check is eager: decode raises, not a later .layers read."""
        for n in range(14):
            with pytest.raises(DecodeError):
                decode(b"\x00" * n)
        assert decode(b"\x00" * 14).layers != ()

    def test_layers_never_raise(self):
        packet = DecodedPacket(3, "", "", 0, True, None, None, None, None, b"abc")
        assert packet.layers == ()
        assert packet.layer(DecodedPacket) is None


class TestHypothesis:
    @given(dhcp_messages)
    @settings(deadline=None)
    def test_dhcp_frames(self, message):
        frame = builder.udp_raw_frame(
            MAC, GW, "0.0.0.0", "255.255.255.255", CLIENT_PORT, SERVER_PORT, message.pack()
        )
        assert_matches_oracle(frame)

    @given(dns_messages, st.sampled_from([PORT_DNS, PORT_MDNS]))
    @settings(deadline=None)
    def test_dns_frames(self, message, port):
        frame = builder.udp_raw_frame(MAC, GW, IP, "192.168.1.1", 49152, port, message.pack())
        assert_matches_oracle(frame)

    @given(ssdp_messages)
    @settings(deadline=None)
    def test_ssdp_frames(self, message):
        frame = builder.udp_raw_frame(
            MAC, GW, IP, "239.255.255.250", 50000, PORT_SSDP, message.pack()
        )
        assert_matches_oracle(frame)

    @given(ntp_packets)
    @settings(deadline=None)
    def test_ntp_frames(self, packet):
        frame = builder.udp_raw_frame(MAC, GW, IP, "17.1.1.1", 49500, PORT_NTP, packet.pack())
        assert_matches_oracle(frame)

    @given(arp_packets)
    @settings(deadline=None)
    def test_arp_frames(self, packet):
        frame = ethernet("ff:ff:ff:ff:ff:ff", packet.sender_mac, ETHERTYPE_ARP, packet.pack())
        assert_matches_oracle(frame)

    @given(st.data())
    @settings(deadline=None)
    def test_mutated_frames(self, data):
        frame = bytearray(data.draw(st.sampled_from(corpus_frames())))
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
            frame[pos] = data.draw(st.integers(min_value=0, max_value=255))
        assert_matches_oracle(bytes(frame))

    @given(st.data())
    @settings(deadline=None)
    def test_truncated_mutated_frames(self, data):
        frame = bytearray(data.draw(st.sampled_from(corpus_frames())))
        pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[pos] = data.draw(st.integers(min_value=0, max_value=255))
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        assert_matches_oracle(bytes(frame[:cut]))

    @given(st.binary(min_size=0, max_size=120))
    @settings(deadline=None)
    def test_random_bytes(self, frame):
        assert_matches_oracle(frame)
