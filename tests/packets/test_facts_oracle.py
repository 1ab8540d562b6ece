"""Oracle suite: the wire-level fact walk equals the layered codec walk.

``decode`` and ``PacketBatch.from_frames`` take every Table I fact from
:func:`repro.packets.facts.frame_facts`, which never builds a codec
object.  ``tests.oracles.layered_decode`` derives the same facts the
plain way, by parsing every layer and reading each fact off the parsed
header.  Every test here checks one frame against it: every public fact
of ``decode`` (value *and* type), ``decode(frame).layers`` against the
oracle's layers, and every column of a one-frame ``PacketBatch``.  The
frames are the stage-0 corpus, its truncations and byte mutations,
random bytes, and hypothesis-generated messages reusing the generators
from ``tests/packets``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packets import FLAG_NAMES, DecodedPacket, DecodeError, PacketBatch, builder, decode
from repro.packets.dhcp import CLIENT_PORT, SERVER_PORT
from repro.packets.dns import PORT_DNS, PORT_MDNS
from repro.packets.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV6, ethernet
from repro.packets.ipv6 import HopByHopOptions, IPv6Header
from repro.packets.ntp import PORT_NTP
from repro.packets.ssdp import PORT_SSDP
from tests.core.test_batch_extraction import GW, IP, MAC, corpus_frames
from tests.oracles import FACT_DEFAULTS, layered_decode
from tests.packets.test_roundtrip_properties import (
    arp_packets,
    dhcp_messages,
    dns_messages,
    ntp_packets,
    ssdp_messages,
)

#: Oracle fact key of each FLAG_NAMES bit.
FLAG_FACTS = tuple(name if name.startswith("ip_option") else f"is_{name}" for name in FLAG_NAMES)


def expected_bits(facts):
    return sum(1 << i for i, key in enumerate(FLAG_FACTS) if facts[key])


def assert_matches_oracle(frame):
    """decode, its lazy layers and a one-frame batch all equal the oracle."""
    try:
        facts, layers = layered_decode(frame)
    except DecodeError:
        with pytest.raises(DecodeError):
            decode(frame)
        with pytest.raises(DecodeError):
            PacketBatch.from_frames([frame], [0.0])
        return
    packet = decode(frame)
    got = {key: getattr(packet, key) for key in facts}
    assert got == facts, frame.hex()
    for key, value in facts.items():
        assert type(got[key]) is type(value), (key, frame.hex())
    assert packet.flag_bits == expected_bits(facts), frame.hex()
    assert packet.layers == layers, frame.hex()

    batch = PacketBatch.from_frames([frame], [0.0])
    assert batch.src_macs == (facts["src_mac"],)
    assert int(batch.flag_bits[0]) == expected_bits(facts)
    assert int(batch.sizes[0]) == len(frame)
    assert int(batch.raw[0]) == int(facts["has_raw_data"])
    assert int(batch.src_ports[0]) == (-1 if facts["src_port"] is None else facts["src_port"])
    assert int(batch.dst_ports[0]) == (-1 if facts["dst_port"] is None else facts["dst_port"])
    did = int(batch.dst_ids[0])
    assert (None if did < 0 else batch.dst_keys[did]) == facts["dst_ip"]


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
