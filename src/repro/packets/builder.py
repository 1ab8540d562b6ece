"""High-level frame constructors.

Each helper returns a complete raw Ethernet frame (bytes) ready to be fed
to :func:`repro.packets.decoder.decode`, recorded into a pcap, or pushed
through the SDN data plane.  The device-behaviour simulator composes setup
dialogues almost entirely out of these.
"""

from __future__ import annotations

from . import dhcp as dhcp_mod
from . import dns as dns_mod
from . import http as http_mod
from . import icmp as icmp_mod
from . import ntp as ntp_mod
from . import ssdp as ssdp_mod
from .arp import ARPPacket, OP_REQUEST, arp_announce, arp_probe
from .base import ipv6_to_bytes
from .eapol import eapol_key_frame
from .ethernet import (
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ethernet,
    ethernet_llc,
)
from .ipv4 import PROTO_ICMP, PROTO_IGMP, PROTO_TCP, PROTO_UDP, IPv4Header, router_alert_option
from .ipv6 import PROTO_HOP_BY_HOP, PROTO_ICMPV6, HopByHopOptions, IPv6Header
from .llc import LLCHeader
from .tcp import FLAG_ACK, FLAG_PSH, FLAG_SYN, TCPSegment, mss_option
from .udp import UDPDatagram

#: Multicast MAC for the all-routers / mDNS / SSDP groups.
MDNS_MAC = "01:00:5e:00:00:fb"
SSDP_MAC = "01:00:5e:7f:ff:fa"
IPV6_ALL_ROUTERS_MAC = "33:33:00:00:00:02"
IPV6_ALL_NODES_MAC = "33:33:00:00:00:01"


def _ipv4(src_mac: str, dst_mac: str, header: IPv4Header, payload: bytes) -> bytes:
    return ethernet(dst_mac, src_mac, ETHERTYPE_IPV4, header.pack(payload))


def _udp_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes,
    *,
    ttl: int = 64,
) -> bytes:
    datagram = UDPDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    header = IPv4Header(src=src_ip, dst=dst_ip, proto=PROTO_UDP, ttl=ttl)
    return _ipv4(src_mac, dst_mac, header, datagram.pack(src_ip, dst_ip))


def _tcp_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    segment: TCPSegment,
) -> bytes:
    header = IPv4Header(src=src_ip, dst=dst_ip, proto=PROTO_TCP)
    return _ipv4(src_mac, dst_mac, header, segment.pack(src_ip, dst_ip))


# --- Link layer -----------------------------------------------------------


def llc_frame(src_mac: str, dst_mac: str = BROADCAST_MAC, payload: bytes = b"") -> bytes:
    """An 802.3/LLC frame (hub devices bridging ZigBee/Z-Wave emit these)."""
    return ethernet_llc(dst_mac, src_mac, LLCHeader().pack(payload))


def eapol_frame(src_mac: str, dst_mac: str, message_index: int) -> bytes:
    """One message of the WPA2 4-way handshake."""
    return ethernet(dst_mac, src_mac, ETHERTYPE_EAPOL, eapol_key_frame(message_index).pack())


def arp_probe_frame(src_mac: str, target_ip: str) -> bytes:
    return ethernet(BROADCAST_MAC, src_mac, ETHERTYPE_ARP, arp_probe(src_mac, target_ip).pack())


def arp_announce_frame(src_mac: str, own_ip: str) -> bytes:
    return ethernet(BROADCAST_MAC, src_mac, ETHERTYPE_ARP, arp_announce(src_mac, own_ip).pack())


def arp_request_frame(src_mac: str, src_ip: str, target_ip: str) -> bytes:
    packet = ARPPacket(op=OP_REQUEST, sender_mac=src_mac, sender_ip=src_ip, target_ip=target_ip)
    return ethernet(BROADCAST_MAC, src_mac, ETHERTYPE_ARP, packet.pack())


def arp_reply_frame(src_mac: str, src_ip: str, target_mac: str, target_ip: str) -> bytes:
    """Unicast ARP reply answering a request for ``src_ip``."""
    from .arp import OP_REPLY

    packet = ARPPacket(
        op=OP_REPLY,
        sender_mac=src_mac,
        sender_ip=src_ip,
        target_mac=target_mac,
        target_ip=target_ip,
    )
    return ethernet(target_mac, src_mac, ETHERTYPE_ARP, packet.pack())


# --- DHCP / BOOTP ---------------------------------------------------------


def dhcp_discover_frame(src_mac: str, xid: int, hostname: str | None = None) -> bytes:
    message = dhcp_mod.discover(src_mac, xid, hostname)
    return _udp_frame(
        src_mac,
        BROADCAST_MAC,
        "0.0.0.0",
        "255.255.255.255",
        dhcp_mod.CLIENT_PORT,
        dhcp_mod.SERVER_PORT,
        message.pack(),
    )


def dhcp_request_frame(src_mac: str, xid: int, requested_ip: str, server_ip: str) -> bytes:
    message = dhcp_mod.request(src_mac, xid, requested_ip, server_ip)
    return _udp_frame(
        src_mac,
        BROADCAST_MAC,
        "0.0.0.0",
        "255.255.255.255",
        dhcp_mod.CLIENT_PORT,
        dhcp_mod.SERVER_PORT,
        message.pack(),
    )


def bootp_request_frame(src_mac: str, xid: int) -> bytes:
    """Optionless BOOTP (triggers the BOOTP-but-not-DHCP feature)."""
    message = dhcp_mod.bootp_request(src_mac, xid)
    return _udp_frame(
        src_mac,
        BROADCAST_MAC,
        "0.0.0.0",
        "255.255.255.255",
        dhcp_mod.CLIENT_PORT,
        dhcp_mod.SERVER_PORT,
        message.pack(),
    )


def _dhcp_server_reply(
    gateway_mac: str,
    gateway_ip: str,
    client_mac: str,
    xid: int,
    offered_ip: str,
    message_type: int,
) -> bytes:
    message = dhcp_mod.DHCPMessage(
        op=dhcp_mod.OP_REPLY,
        xid=xid,
        client_mac=client_mac,
        yiaddr=offered_ip,
        siaddr=gateway_ip,
        options=(
            (dhcp_mod.OPTION_MESSAGE_TYPE, bytes((message_type,))),
            (dhcp_mod.OPTION_SERVER_ID, bytes(int(x) for x in gateway_ip.split("."))),
            (dhcp_mod.OPTION_SUBNET_MASK, bytes((255, 255, 255, 0))),
            (dhcp_mod.OPTION_ROUTER, bytes(int(x) for x in gateway_ip.split("."))),
            (dhcp_mod.OPTION_DNS_SERVERS, bytes(int(x) for x in gateway_ip.split("."))),
        ),
    )
    return _udp_frame(
        gateway_mac,
        client_mac,
        gateway_ip,
        offered_ip,
        dhcp_mod.SERVER_PORT,
        dhcp_mod.CLIENT_PORT,
        message.pack(),
    )


def dhcp_offer_frame(
    gateway_mac: str, gateway_ip: str, client_mac: str, xid: int, offered_ip: str
) -> bytes:
    """Server-side DHCPOFFER answering a discover."""
    return _dhcp_server_reply(
        gateway_mac, gateway_ip, client_mac, xid, offered_ip, dhcp_mod.DHCPOFFER
    )


def dhcp_ack_frame(
    gateway_mac: str, gateway_ip: str, client_mac: str, xid: int, offered_ip: str
) -> bytes:
    """Server-side DHCPACK completing the lease."""
    return _dhcp_server_reply(
        gateway_mac, gateway_ip, client_mac, xid, offered_ip, dhcp_mod.DHCPACK
    )


# --- DNS / mDNS -----------------------------------------------------------


def dns_query_frame(
    src_mac: str,
    gateway_mac: str,
    src_ip: str,
    dns_server: str,
    name: str,
    *,
    src_port: int = 49152,
    txid: int = 1,
) -> bytes:
    message = dns_mod.query(name, txid=txid)
    return _udp_frame(
        src_mac, gateway_mac, src_ip, dns_server, src_port, dns_mod.PORT_DNS, message.pack()
    )


def mdns_query_frame(src_mac: str, src_ip: str, service: str) -> bytes:
    message = dns_mod.mdns_query(service)
    return _udp_frame(
        src_mac,
        MDNS_MAC,
        src_ip,
        dns_mod.MDNS_GROUP_V4,
        dns_mod.PORT_MDNS,
        dns_mod.PORT_MDNS,
        message.pack(),
        ttl=255,
    )


def mdns_announce_frame(src_mac: str, src_ip: str, instance: str, service: str) -> bytes:
    """An mDNS response announcing a service instance (unsolicited)."""
    record = dns_mod.DNSRecord(
        name=service, rtype=dns_mod.TYPE_PTR, rdata=dns_mod.encode_name(instance)
    )
    message = dns_mod.DNSMessage(is_response=True, answers=(record,))
    return _udp_frame(
        src_mac,
        MDNS_MAC,
        src_ip,
        dns_mod.MDNS_GROUP_V4,
        dns_mod.PORT_MDNS,
        dns_mod.PORT_MDNS,
        message.pack(),
        ttl=255,
    )


def dns_response_frame(
    gateway_mac: str,
    client_mac: str,
    dns_server: str,
    client_ip: str,
    name: str,
    answer_ip: str,
    *,
    txid: int,
    client_port: int,
) -> bytes:
    """Authoritative-ish A-record answer from the local resolver."""
    from .base import ipv4_to_bytes

    record = dns_mod.DNSRecord(name=name, rtype=dns_mod.TYPE_A, rdata=ipv4_to_bytes(answer_ip))
    message = dns_mod.DNSMessage(
        txid=txid,
        is_response=True,
        questions=(dns_mod.DNSQuestion(name=name),),
        answers=(record,),
    )
    return _udp_frame(
        gateway_mac, client_mac, dns_server, client_ip, dns_mod.PORT_DNS, client_port,
        message.pack(),
    )


# --- SSDP -----------------------------------------------------------------


def ssdp_msearch_frame(
    src_mac: str, src_ip: str, search_target: str = "ssdp:all", *, src_port: int = 50000
) -> bytes:
    message = ssdp_mod.m_search(search_target)
    return _udp_frame(
        src_mac,
        SSDP_MAC,
        src_ip,
        ssdp_mod.MULTICAST_GROUP,
        src_port,
        ssdp_mod.PORT_SSDP,
        message.pack(),
    )


def ssdp_notify_frame(src_mac: str, src_ip: str, location: str, nt: str, usn: str) -> bytes:
    message = ssdp_mod.notify_alive(location, nt, usn)
    return _udp_frame(
        src_mac,
        SSDP_MAC,
        src_ip,
        ssdp_mod.MULTICAST_GROUP,
        ssdp_mod.PORT_SSDP,
        ssdp_mod.PORT_SSDP,
        message.pack(),
    )


# --- NTP ------------------------------------------------------------------


def ntp_request_frame(
    src_mac: str, gateway_mac: str, src_ip: str, server_ip: str, *, src_port: int = 49500
) -> bytes:
    return _udp_frame(
        src_mac,
        gateway_mac,
        src_ip,
        server_ip,
        src_port,
        ntp_mod.PORT_NTP,
        ntp_mod.client_request().pack(),
    )


def ntp_response_frame(
    server_mac: str,
    client_mac: str,
    server_ip: str,
    client_ip: str,
    *,
    client_port: int,
    server_time: float = 0.0,
) -> bytes:
    """Stratum-2 server reply to a client request."""
    packet = ntp_mod.NTPPacket(mode=ntp_mod.MODE_SERVER, stratum=2, transmit_time=server_time)
    return _udp_frame(
        server_mac, client_mac, server_ip, client_ip, ntp_mod.PORT_NTP, client_port,
        packet.pack(),
    )


# --- TCP applications ------------------------------------------------------


def tcp_syn_frame(
    src_mac: str,
    gateway_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
) -> bytes:
    segment = TCPSegment(
        src_port=src_port, dst_port=dst_port, flags=FLAG_SYN, options=mss_option()
    )
    return _tcp_frame(src_mac, gateway_mac, src_ip, dst_ip, segment)


def tcp_synack_frame(
    server_mac: str,
    client_mac: str,
    server_ip: str,
    client_ip: str,
    server_port: int,
    client_port: int,
    *,
    ack: int = 1,
) -> bytes:
    """Server's SYN-ACK completing the second step of the handshake."""
    segment = TCPSegment(
        src_port=server_port,
        dst_port=client_port,
        seq=0,
        ack=ack,
        flags=FLAG_SYN | FLAG_ACK,
        options=mss_option(),
    )
    return _tcp_frame(server_mac, client_mac, server_ip, client_ip, segment)


def http_get_frame(
    src_mac: str,
    gateway_mac: str,
    src_ip: str,
    dst_ip: str,
    host: str,
    path: str = "/",
    *,
    src_port: int = 49600,
    dst_port: int = http_mod.PORT_HTTP,
    user_agent: str = "iot-device",
) -> bytes:
    request = http_mod.get_request(host, path, user_agent)
    segment = TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        flags=FLAG_PSH | FLAG_ACK,
        payload=request.pack(),
    )
    return _tcp_frame(src_mac, gateway_mac, src_ip, dst_ip, segment)


def http_post_frame(
    src_mac: str,
    gateway_mac: str,
    src_ip: str,
    dst_ip: str,
    host: str,
    path: str,
    body: bytes,
    *,
    src_port: int = 49601,
    dst_port: int = http_mod.PORT_HTTP,
) -> bytes:
    request = http_mod.post_request(host, path, body)
    segment = TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        flags=FLAG_PSH | FLAG_ACK,
        payload=request.pack(),
    )
    return _tcp_frame(src_mac, gateway_mac, src_ip, dst_ip, segment)


def https_client_hello_frame(
    src_mac: str,
    gateway_mac: str,
    src_ip: str,
    dst_ip: str,
    sni: str,
    *,
    src_port: int = 49700,
) -> bytes:
    segment = TCPSegment(
        src_port=src_port,
        dst_port=http_mod.PORT_HTTPS,
        flags=FLAG_PSH | FLAG_ACK,
        payload=http_mod.tls_client_hello(sni),
    )
    return _tcp_frame(src_mac, gateway_mac, src_ip, dst_ip, segment)


def tcp_raw_frame(
    src_mac: str,
    gateway_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    """Proprietary TCP app data — shows up as TCP + raw-data in features."""
    segment = TCPSegment(
        src_port=src_port, dst_port=dst_port, flags=FLAG_PSH | FLAG_ACK, payload=payload
    )
    return _tcp_frame(src_mac, gateway_mac, src_ip, dst_ip, segment)


def udp_raw_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    """Proprietary UDP app data — shows up as UDP + raw-data in features."""
    return _udp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload)


# --- ICMP / IGMP / ICMPv6 ---------------------------------------------------


def icmp_echo_request_frame(
    src_mac: str, gateway_mac: str, src_ip: str, dst_ip: str, ident: int, seq: int,
    payload: bytes = b"\x00" * 48,
) -> bytes:
    message = icmp_mod.echo_request(ident, seq, payload)
    header = IPv4Header(src=src_ip, dst=dst_ip, proto=PROTO_ICMP)
    return _ipv4(src_mac, gateway_mac, header, message.pack())


def igmp_join_frame(src_mac: str, src_ip: str, group: str) -> bytes:
    """IGMPv2 membership report; carries the IPv4 router-alert option."""
    from .igmp import v2_report

    header = IPv4Header(
        src=src_ip, dst=group, proto=PROTO_IGMP, ttl=1, options=(router_alert_option(),)
    )
    return _ipv4(src_mac, SSDP_MAC, header, v2_report(group).pack())


def igmp_leave_frame(src_mac: str, src_ip: str, group: str) -> bytes:
    """IGMPv2 leave-group message (sent to the all-routers group)."""
    from .igmp import v2_leave

    header = IPv4Header(
        src=src_ip, dst="224.0.0.2", proto=PROTO_IGMP, ttl=1, options=(router_alert_option(),)
    )
    return _ipv4(src_mac, "01:00:5e:00:00:02", header, v2_leave(group).pack())


def igmpv3_report_frame(src_mac: str, src_ip: str, groups: tuple[str, ...]) -> bytes:
    """IGMPv3 membership report for several groups at once."""
    from .igmp import IGMPv3Report

    header = IPv4Header(
        src=src_ip, dst="224.0.0.22", proto=PROTO_IGMP, ttl=1, options=(router_alert_option(),)
    )
    return _ipv4(src_mac, "01:00:5e:00:00:16", header, IGMPv3Report(groups=groups).pack())


def icmpv6_router_solicit_frame(src_mac: str, src_ip6: str) -> bytes:
    message = icmp_mod.router_solicitation()
    header = IPv6Header(
        src=src_ip6, dst="ff02::2", next_header=PROTO_ICMPV6, hop_limit=255
    )
    return ethernet(
        IPV6_ALL_ROUTERS_MAC,
        src_mac,
        ETHERTYPE_IPV6,
        header.pack(message.pack(src_ip6, "ff02::2")),
    )


def icmpv6_neighbor_solicit_frame(src_mac: str, src_ip6: str, target_ip6: str) -> bytes:
    message = icmp_mod.neighbor_solicitation(ipv6_to_bytes(target_ip6))
    header = IPv6Header(src=src_ip6, dst="ff02::1", next_header=PROTO_ICMPV6, hop_limit=255)
    return ethernet(
        IPV6_ALL_NODES_MAC,
        src_mac,
        ETHERTYPE_IPV6,
        header.pack(message.pack(src_ip6, "ff02::1")),
    )


def mldv2_report_frame(src_mac: str, src_ip6: str) -> bytes:
    """MLDv2 report inside hop-by-hop router-alert (IPv6 router alert)."""
    message = icmp_mod.mldv2_report()
    inner = message.pack(src_ip6, "ff02::16")
    hbh = HopByHopOptions(router_alert=True, next_header=PROTO_ICMPV6)
    header = IPv6Header(
        src=src_ip6, dst="ff02::16", next_header=PROTO_HOP_BY_HOP, hop_limit=1
    )
    return ethernet(
        "33:33:00:00:00:16", src_mac, ETHERTYPE_IPV6, header.pack(hbh.pack(inner))
    )
