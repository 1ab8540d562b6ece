"""Frame decoding into the view the fingerprinter, switch and gateway consume.

:func:`decode` reads the observable facts of a raw Ethernet frame — which
protocols are present, IP option flags, packet size, payload presence,
addresses and port numbers — straight off the wire bytes through
:func:`repro.packets.facts.frame_facts` and returns them as an
immutable :class:`DecodedPacket`.  Payload *content* is deliberately not
surfaced beyond "raw data present", matching the paper's
encrypted-traffic-compatible design.

The codec objects (Ethernet, IPv4/IPv6, TCP/UDP, DHCP/DNS/SSDP/HTTP/...)
are built only on demand: :attr:`DecodedPacket.layers` runs the codec
walk each time it is read.  The data plane never reads them; DHCP
snooping, the device responder and tooling do.
"""

from __future__ import annotations

from typing import NamedTuple

from . import dhcp as dhcp_mod
from . import dns as dns_mod
from . import http as http_mod
from . import ntp as ntp_mod
from . import ssdp as ssdp_mod
from .arp import ARPPacket
from .base import DecodeError
from .eapol import EAPOLFrame
from .ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    EthernetFrame,
)
from .facts import (
    B_ARP,
    B_BOOTP,
    B_DHCP,
    B_DNS,
    B_EAPOL,
    B_HTTP,
    B_HTTPS,
    B_ICMP,
    B_ICMPV6,
    B_IP,
    B_LLC,
    B_MDNS,
    B_NTP,
    B_PAD,
    B_RALERT,
    B_SSDP,
    B_TCP,
    B_UDP,
    frame_facts,
    ip_to_str,
)
from .icmp import ICMPMessage, ICMPv6Message
from .igmp import TYPE_V3_REPORT, IGMPv2Message, IGMPv3Report
from .ipv4 import PROTO_ICMP as IPV4_PROTO_ICMP
from .ipv4 import PROTO_IGMP as IPV4_PROTO_IGMP
from .ipv4 import PROTO_TCP as IPV4_PROTO_TCP
from .ipv4 import PROTO_UDP as IPV4_PROTO_UDP
from .ipv4 import IPv4Header
from .ipv6 import PROTO_HOP_BY_HOP, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP, HopByHopOptions, IPv6Header
from .llc import LLCHeader
from .tcp import TCPSegment
from .udp import UDPDatagram


def _flag(bit: int) -> property:
    """A read-only bool view of one bit of :attr:`DecodedPacket.flag_bits`."""

    def get(self: DecodedPacket) -> bool:
        return self.flag_bits & bit != 0

    return property(get)


# The fields live on a NamedTuple base and the derived views on a slotted
# subclass: a NamedTuple class body may hold only fields and methods.
class _PacketFacts(NamedTuple):
    size: int
    src_mac: str
    dst_mac: str
    flag_bits: int
    has_raw_data: bool
    src_ip: str | None
    dst_ip: str | None
    src_port: int | None
    dst_port: int | None
    #: The wire bytes, kept for the on-demand codec walk of ``layers``.
    frame: bytes


class DecodedPacket(_PacketFacts):
    """Everything the fingerprint features and flow table know about one frame.

    An immutable, slotted record of the facts :func:`frame_facts` reads.
    ``flag_bits`` is the protocol-presence word in
    :data:`~repro.packets.facts.FLAG_NAMES` order; the ``is_*`` and
    ``ip_option_*`` attributes read single bits of it.  Ports and IP
    addresses are ``None`` when the frame carries none.
    """

    __slots__ = ()

    # Link layer
    is_arp = _flag(B_ARP)
    is_llc = _flag(B_LLC)
    # Network layer
    is_ip = _flag(B_IP)
    is_icmp = _flag(B_ICMP)
    is_icmpv6 = _flag(B_ICMPV6)
    is_eapol = _flag(B_EAPOL)
    # Transport layer
    is_tcp = _flag(B_TCP)
    is_udp = _flag(B_UDP)
    # Application layer
    is_http = _flag(B_HTTP)
    is_https = _flag(B_HTTPS)
    is_dhcp = _flag(B_DHCP)
    is_bootp = _flag(B_BOOTP)
    is_ssdp = _flag(B_SSDP)
    is_dns = _flag(B_DNS)
    is_mdns = _flag(B_MDNS)
    is_ntp = _flag(B_NTP)
    # IP options
    ip_option_padding = _flag(B_PAD)
    ip_option_router_alert = _flag(B_RALERT)

    @property
    def layers(self) -> tuple[object, ...]:
        """Decoded codec objects, outermost first (for tooling and snooping).

        Parsed on every read, so a caller wanting several layers reads
        this once.  Never raises — a malformed inner layer ends the
        tuple, exactly where the fact walk degrades to raw data.
        """
        return _codec_layers(self.frame)

    def layer(self, layer_type: type) -> object | None:
        """Return the first decoded layer of the given type, if any."""
        for obj in self.layers:
            if isinstance(obj, layer_type):
                return obj
        return None


def decode(frame: bytes) -> DecodedPacket:
    """Read the facts of a raw Ethernet frame into a :class:`DecodedPacket`.

    A frame shorter than an Ethernet header raises :class:`DecodeError`.
    Unknown or truncated inner layers degrade gracefully: the outer facts
    already gathered are kept and the remaining bytes count as raw data,
    mirroring how a tcpdump-based pipeline treats unparseable payloads.
    """
    src_mac, dst_mac, bits, raw, sp, dp, src_ip, dst_ip = frame_facts(frame)
    return DecodedPacket(
        len(frame),
        src_mac.hex(":"),
        dst_mac.hex(":"),
        bits,
        raw == 1,
        None if src_ip is None else ip_to_str(src_ip),
        None if dst_ip is None else ip_to_str(dst_ip),
        sp if sp >= 0 else None,
        dp if dp >= 0 else None,
        frame,
    )


def _udp_layers(datagram: UDPDatagram) -> list[object]:
    """The application message a UDP payload parses as, if any."""
    payload = datagram.payload
    ports = (datagram.src_port, datagram.dst_port)
    if not payload:
        return []
    if dhcp_mod.SERVER_PORT in ports or dhcp_mod.CLIENT_PORT in ports:
        return [dhcp_mod.DHCPMessage.unpack(payload)[0]]
    if dns_mod.PORT_DNS in ports or dns_mod.PORT_MDNS in ports:
        return [dns_mod.DNSMessage.unpack(payload)[0]]
    if ssdp_mod.PORT_SSDP in ports and ssdp_mod.looks_like_ssdp(payload):
        return [ssdp_mod.SSDPMessage.unpack(payload)[0]]
    if ntp_mod.PORT_NTP in ports:
        return [ntp_mod.NTPPacket.unpack(payload)[0]]
    return []


def _tcp_layers(segment: TCPSegment) -> list[object]:
    """The HTTP message a TCP payload parses as, if any."""
    if segment.payload and http_mod.looks_like_http(segment.payload):
        return [http_mod.HTTPMessage.unpack(segment.payload)[0]]
    return []


def _codec_layers(frame: bytes) -> tuple[object, ...]:
    """Parse every codec layer of ``frame``; stop at the first that fails."""
    layers: list[object] = []
    try:
        eth, payload = EthernetFrame.unpack(frame)
        layers.append(eth)
        if eth.is_llc:
            layers.append(LLCHeader.unpack(payload)[0])
        elif eth.ethertype == ETHERTYPE_ARP:
            layers.append(ARPPacket.unpack(payload)[0])
        elif eth.ethertype == ETHERTYPE_EAPOL:
            layers.append(EAPOLFrame.unpack(payload)[0])
        elif eth.ethertype == ETHERTYPE_IPV4:
            ip, inner = IPv4Header.unpack(payload)
            layers.append(ip)
            if ip.proto == IPV4_PROTO_ICMP:
                layers.append(ICMPMessage.unpack(inner)[0])
            elif ip.proto == IPV4_PROTO_TCP:
                segment, _ = TCPSegment.unpack(inner)
                layers.append(segment)
                layers.extend(_tcp_layers(segment))
            elif ip.proto == IPV4_PROTO_UDP:
                datagram, _ = UDPDatagram.unpack(inner)
                layers.append(datagram)
                layers.extend(_udp_layers(datagram))
            elif ip.proto == IPV4_PROTO_IGMP:
                if inner and inner[0] == TYPE_V3_REPORT:
                    layers.append(IGMPv3Report.unpack(inner)[0])
                else:
                    layers.append(IGMPv2Message.unpack(inner)[0])
        elif eth.ethertype == ETHERTYPE_IPV6:
            ip6, inner = IPv6Header.unpack(payload)
            layers.append(ip6)
            next_header = ip6.next_header
            if next_header == PROTO_HOP_BY_HOP:
                hbh, inner = HopByHopOptions.unpack(inner)
                layers.append(hbh)
                next_header = hbh.next_header
            if next_header == PROTO_ICMPV6:
                layers.append(ICMPv6Message.unpack(inner)[0])
            elif next_header == PROTO_TCP:
                segment, _ = TCPSegment.unpack(inner)
                layers.append(segment)
                layers.extend(_tcp_layers(segment))
            elif next_header == PROTO_UDP:
                datagram, _ = UDPDatagram.unpack(inner)
                layers.append(datagram)
                layers.extend(_udp_layers(datagram))
    except DecodeError:
        pass
    return tuple(layers)
