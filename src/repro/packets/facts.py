"""The one wire-level fact walk: Table I observables straight off the bytes.

:func:`frame_facts` reads everything the fingerprint features, the flow
table and the gateway policy consume from a raw Ethernet frame —
protocol-presence bits, IP-option flags, raw-data presence, addresses and
ports — without building a single codec object.
:func:`repro.packets.decoder.decode` takes its facts from it, so there
is one derivation to keep correct.  Addresses come back as their wire
bytes, and ``decode`` formats them.

Each helper replays exactly the validation sequence of the corresponding
``unpack`` codec with structure checks only (no string or tuple
building), including the codecs' graceful degradation: where a codec
would raise :class:`DecodeError` on an inner layer, the facts gathered
from the outer layers are kept and the remainder counts as raw data.
The layered oracle in ``tests/oracles.py`` derives the same facts from
the codec objects, and ``tests/packets/test_facts_oracle.py`` pins the
two against each other.
"""

from __future__ import annotations

from .base import DecodeError, ipv4_to_str, ipv6_to_str
from .dhcp import CLIENT_PORT as DHCP_CLIENT_PORT
from .dhcp import MAGIC_COOKIE, OPTION_END, OPTION_MESSAGE_TYPE, OPTION_PAD
from .dhcp import SERVER_PORT as DHCP_SERVER_PORT
from .dns import PORT_DNS, PORT_MDNS
from .ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    LLC_THRESHOLD,
)
from .http import PORT_HTTPS, looks_like_http, looks_like_tls
from .igmp import TYPE_V3_REPORT
from .ipv4 import OPTION_EOL, OPTION_NOP, OPTION_ROUTER_ALERT
from .ipv4 import PROTO_ICMP as V4_PROTO_ICMP
from .ipv4 import PROTO_IGMP as V4_PROTO_IGMP
from .ipv4 import PROTO_TCP as V4_PROTO_TCP
from .ipv4 import PROTO_UDP as V4_PROTO_UDP
from .ipv6 import OPTION_PAD1, OPTION_PADN, PROTO_HOP_BY_HOP, PROTO_ICMPV6
from .ipv6 import OPTION_ROUTER_ALERT as V6_OPTION_ROUTER_ALERT
from .ntp import PORT_NTP
from .ssdp import PORT_SSDP, looks_like_ssdp

__all__ = ["FLAG_NAMES", "FrameFacts", "frame_facts", "ip_to_str"]

#: Bit order of the flag word; bit ``i`` is the presence flag named
#: ``FLAG_NAMES[i]``.  ``repro.core.features`` asserts this matches the
#: head of its ``FEATURE_NAMES`` tuple at import time.
FLAG_NAMES: tuple[str, ...] = (
    "arp",
    "llc",
    "ip",
    "icmp",
    "icmpv6",
    "eapol",
    "tcp",
    "udp",
    "http",
    "https",
    "dhcp",
    "bootp",
    "ssdp",
    "dns",
    "mdns",
    "ntp",
    "ip_option_padding",
    "ip_option_router_alert",
)

B_ARP = 1 << 0
B_LLC = 1 << 1
B_IP = 1 << 2
B_ICMP = 1 << 3
B_ICMPV6 = 1 << 4
B_EAPOL = 1 << 5
B_TCP = 1 << 6
B_UDP = 1 << 7
B_HTTP = 1 << 8
B_HTTPS = 1 << 9
B_DHCP = 1 << 10
B_BOOTP = 1 << 11
B_SSDP = 1 << 12
B_DNS = 1 << 13
B_MDNS = 1 << 14
B_NTP = 1 << 15
B_PAD = 1 << 16
B_RALERT = 1 << 17

#: ``(src_mac, dst_mac, flag_bits, raw, src_port, dst_port, src_ip, dst_ip)``;
#: addresses are wire bytes (IPs 4 or 16 long, ``None`` without an IP
#: header), ``raw`` is 0/1 raw-data presence, a port of -1 means "no port".
FrameFacts = tuple[bytes, bytes, int, int, int, int, bytes | None, bytes | None]

# (bits, raw, src_port, dst_port) of a transport layer; None = DecodeError.
_Transport = tuple[int, int, int, int] | None
# (bits, raw, src_port, dst_port, src_ip, dst_ip) of a network layer.
_Network = tuple[int, int, int, int, bytes | None, bytes | None]

_NO_IP: _Network = (0, 1, -1, -1, None, None)


def ip_to_str(raw: bytes) -> str:
    """Text form of an IP address :func:`frame_facts` returned as bytes."""
    return ipv4_to_str(raw) if len(raw) == 4 else ipv6_to_str(raw)


# --- application-layer walks ---------------------------------------------------


def _dhcp_verdict(data: bytes) -> bool | None:
    """None = DecodeError; False = plain BOOTP; True = DHCP (option 53)."""
    if len(data) < 236 or data[1] != 1 or data[2] != 6:
        return None
    rest = data[236:]
    if not rest.startswith(MAGIC_COOKIE):
        return False  # cookieless BOOTP carries no options
    n = len(rest)
    i = len(MAGIC_COOKIE)
    dhcp = False
    while i < n:
        code = rest[i]
        if code == OPTION_END:
            break
        if code == OPTION_PAD:
            i += 1
            continue
        if i + 2 > n:
            return None
        length = rest[i + 1]
        if i + 2 + length > n:
            return None
        if code == OPTION_MESSAGE_TYPE and length:
            dhcp = True
        i += 2 + length
    return dhcp


def _dns_skip_name(data: bytes, off: int, n: int) -> int:
    """Walk one possibly-compressed DNS name; -1 on DecodeError."""
    jumps = 0
    end = -1
    while True:
        if off + 1 > n:
            return -1
        length = data[off]
        if length == 0:
            off += 1
            break
        if length & 0xC0 == 0xC0:
            if off + 2 > n:
                return -1
            pointer = ((length & 0x3F) << 8) | data[off + 1]
            if end < 0:
                end = off + 2
            off = pointer
            jumps += 1
            if jumps > 32:
                return -1
            continue
        if off + 1 + length > n:
            return -1
        off += 1 + length
    return end if end >= 0 else off


def _dns_ok(data: bytes) -> bool:
    """Structural replay of ``DNSMessage.unpack`` (labels never raise)."""
    n = len(data)
    if n < 12:
        return False
    qd = (data[4] << 8) | data[5]
    records = ((data[6] << 8) | data[7]) + ((data[8] << 8) | data[9]) + (
        (data[10] << 8) | data[11]
    )
    off = 12
    for _ in range(qd):
        off = _dns_skip_name(data, off, n)
        if off < 0 or off + 4 > n:
            return False
        off += 4
    for _ in range(records):
        off = _dns_skip_name(data, off, n)
        if off < 0 or off + 10 > n:
            return False
        rdlength = (data[off + 8] << 8) | data[off + 9]
        if off + 10 + rdlength > n:
            return False
        off += 10 + rdlength
    return True


def _igmp_ok(inner: bytes) -> bool:
    """Replay the IGMP codec branch (no Table I flag either way)."""
    n = len(inner)
    if n < 8:
        return False
    if inner[0] != TYPE_V3_REPORT:
        return True  # IGMPv2 unpack only requires 8 bytes
    count = (inner[6] << 8) | inner[7]
    off = 8
    for _ in range(count):
        if n < off + 8:
            return False
        off += 8 + 4 * ((inner[off + 2] << 8) | inner[off + 3]) + 4 * inner[off + 1]
    return True


# --- transport-layer walks ----------------------------------------------------


def _tcp_facts(inner: bytes) -> _Transport:
    """(bits, raw, src_port, dst_port) for a TCP segment; None on DecodeError."""
    n = len(inner)
    if n < 20:
        return None
    header_len = (inner[12] >> 4) * 4
    if header_len < 20 or n < header_len:
        return None
    sp = (inner[0] << 8) | inner[1]
    dp = (inner[2] << 8) | inner[3]
    payload = inner[header_len:]
    if not payload:
        return B_TCP, 0, sp, dp
    if looks_like_http(payload):
        body = payload.partition(b"\r\n\r\n")[2]
        return B_TCP | B_HTTP, 1 if body else 0, sp, dp
    if (sp == PORT_HTTPS or dp == PORT_HTTPS) and looks_like_tls(payload):
        return B_TCP | B_HTTPS, 1, sp, dp
    return B_TCP, 1, sp, dp


def _udp_facts(inner: bytes) -> _Transport:
    """(bits, raw, src_port, dst_port) for a UDP datagram; None on DecodeError."""
    n = len(inner)
    if n < 8:
        return None
    length = (inner[4] << 8) | inner[5]
    if length < 8 or length > n:
        return None
    sp = (inner[0] << 8) | inner[1]
    dp = (inner[2] << 8) | inner[3]
    payload = inner[8:length]
    if not payload:
        return B_UDP, 0, sp, dp
    if sp in (DHCP_SERVER_PORT, DHCP_CLIENT_PORT) or dp in (
        DHCP_SERVER_PORT,
        DHCP_CLIENT_PORT,
    ):
        verdict = _dhcp_verdict(payload)
        if verdict is None:
            return B_UDP, 1, sp, dp
        bits = B_UDP | B_BOOTP | (B_DHCP if verdict else 0)
        return bits, 0, sp, dp
    if sp in (PORT_DNS, PORT_MDNS) or dp in (PORT_DNS, PORT_MDNS):
        if not _dns_ok(payload):
            return B_UDP, 1, sp, dp
        if sp == PORT_MDNS or dp == PORT_MDNS:
            return B_UDP | B_MDNS, 0, sp, dp
        return B_UDP | B_DNS, 0, sp, dp
    if (sp == PORT_SSDP or dp == PORT_SSDP) and looks_like_ssdp(payload):
        return B_UDP | B_SSDP, 0, sp, dp
    if sp == PORT_NTP or dp == PORT_NTP:
        if len(payload) >= 48:
            return B_UDP | B_NTP, 0, sp, dp
        return B_UDP, 1, sp, dp
    return B_UDP, 1, sp, dp


def _transport(bits: int, proto: int, inner: bytes, src: bytes, dst: bytes) -> _Network:
    """Facts below a parsed IP header; ``bits`` already holds the IP bits."""
    if proto == V4_PROTO_TCP:
        t = _tcp_facts(inner)
    elif proto == V4_PROTO_UDP:
        t = _udp_facts(inner)
    else:
        return bits, 1 if inner else 0, -1, -1, src, dst
    if t is None:
        return bits, 1, -1, -1, src, dst
    return bits | t[0], t[1], t[2], t[3], src, dst


# --- network-layer walks ------------------------------------------------------


def _ipv4_facts(payload: bytes) -> _Network:
    """Facts of the IPv4 branch; no IP facts at all if the header fails."""
    n = len(payload)
    if n < 20 or payload[0] >> 4 != 4:
        return _NO_IP
    ihl = (payload[0] & 0x0F) * 4
    if ihl < 20 or n < ihl:
        return _NO_IP
    total_length = (payload[2] << 8) | payload[3]
    if total_length < ihl or total_length > n:
        return _NO_IP
    bits = B_IP
    i = 20
    while i < ihl:
        kind = payload[i]
        if kind == OPTION_EOL:
            bits |= B_PAD
            break
        if kind == OPTION_NOP:
            bits |= B_PAD
            i += 1
            continue
        if i + 2 > ihl:
            return _NO_IP  # option-parse DecodeError: no IP facts at all
        length = payload[i + 1]
        if length < 2 or i + length > ihl:
            return _NO_IP
        if kind == OPTION_ROUTER_ALERT:
            bits |= B_RALERT
        i += length
    src = payload[12:16]
    dst = payload[16:20]
    proto = payload[9]
    inner = payload[ihl:total_length]
    if proto == V4_PROTO_ICMP:
        if len(inner) >= 4:
            return bits | B_ICMP, 0, -1, -1, src, dst
        return bits, 1, -1, -1, src, dst
    if proto == V4_PROTO_IGMP:
        return bits, 0 if _igmp_ok(inner) else 1, -1, -1, src, dst
    return _transport(bits, proto, inner, src, dst)


def _ipv6_facts(payload: bytes) -> _Network:
    """Facts of the IPv6 branch; a bad hop-by-hop header keeps the IP facts."""
    n = len(payload)
    if n < 40 or payload[0] >> 4 != 6:
        return _NO_IP
    payload_len = (payload[4] << 8) | payload[5]
    if n < 40 + payload_len:
        return _NO_IP
    bits = B_IP
    src = payload[8:24]
    dst = payload[24:40]
    next_header = payload[6]
    inner = payload[40 : 40 + payload_len]
    if next_header == PROTO_HOP_BY_HOP:
        hn = len(inner)
        if hn < 8:
            return bits, 1, -1, -1, src, dst
        length = (inner[1] + 1) * 8
        if hn < length:
            return bits, 1, -1, -1, src, dst
        body = inner[2:length]
        bn = len(body)
        i = 0
        while i < bn:
            kind = body[i]
            if kind == OPTION_PAD1:
                bits |= B_PAD
                i += 1
                continue
            if i + 2 > bn:
                # truncated option: DecodeError after the IP facts were set
                return B_IP, 1, -1, -1, src, dst
            if kind == OPTION_PADN:
                bits |= B_PAD
            elif kind == V6_OPTION_ROUTER_ALERT:
                bits |= B_RALERT
            i += 2 + body[i + 1]
        next_header = inner[0]
        inner = inner[length:]
    if next_header == PROTO_ICMPV6:
        if len(inner) >= 4:
            return bits | B_ICMPV6, 0, -1, -1, src, dst
        return bits, 1, -1, -1, src, dst
    return _transport(bits, next_header, inner, src, dst)


# --- the frame walk -----------------------------------------------------------


def frame_facts(frame: bytes) -> FrameFacts:
    """Every Table I observable of one Ethernet frame, read off the wire.

    Raises :class:`DecodeError` on a sub-Ethernet runt frame (the Ethernet
    header sits outside the degradation boundary); every inner failure
    degrades to raw-data presence instead.
    """
    if len(frame) < 14:
        raise DecodeError(f"truncated Ethernet header: need 14 bytes, have {len(frame)}")
    dst_mac = frame[0:6]
    src_mac = frame[6:12]
    ethertype = (frame[12] << 8) | frame[13]
    payload = frame[14:]
    if ethertype == ETHERTYPE_IPV4:
        bits, raw, sp, dp, src_ip, dst_ip = _ipv4_facts(payload)
        return src_mac, dst_mac, bits, raw, sp, dp, src_ip, dst_ip
    if ethertype < LLC_THRESHOLD:
        if len(payload) >= 3:
            return src_mac, dst_mac, B_LLC, 1 if len(payload) > 3 else 0, -1, -1, None, None
        return src_mac, dst_mac, 0, 1, -1, -1, None, None
    if ethertype == ETHERTYPE_ARP:
        if (
            len(payload) >= 28
            and payload[0] == 0
            and payload[1] == 1
            and payload[2] == 0x08
            and payload[3] == 0x00
            and payload[4] == 6
            and payload[5] == 4
        ):
            return src_mac, dst_mac, B_ARP, 0, -1, -1, None, None
        return src_mac, dst_mac, 0, 1, -1, -1, None, None
    if ethertype == ETHERTYPE_EAPOL:
        if len(payload) >= 4 and len(payload) >= 4 + ((payload[2] << 8) | payload[3]):
            return src_mac, dst_mac, B_EAPOL, 0, -1, -1, None, None
        return src_mac, dst_mac, 0, 1, -1, -1, None, None
    if ethertype == ETHERTYPE_IPV6:
        bits, raw, sp, dp, src_ip, dst_ip = _ipv6_facts(payload)
        return src_mac, dst_mac, bits, raw, sp, dp, src_ip, dst_ip
    return src_mac, dst_mac, 0, 1 if payload else 0, -1, -1, None, None
