"""Environment responder: the gateway/servers answering device traffic.

Real captures are bidirectional — the gateway ACKs DHCP, answers ARP and
DNS, NTP servers reply, cloud endpoints complete TCP handshakes.  The
fingerprint only uses packets *sent by* the device (Sect. IV-A), so the
responses must not change identification results; but a faithful capture
pipeline has to cope with them, and the monitor tests exercise exactly
that.  :class:`EnvironmentResponder` turns a device-originated frame into
the response frames the home network would produce.
"""

from __future__ import annotations

from repro.packets import builder, decode
from repro.packets.arp import ARPPacket
from repro.packets.dhcp import DHCPMessage
from repro.packets.dns import DNSMessage
from repro.packets.pcap import CaptureRecord
from repro.packets.tcp import TCPSegment

from .generator import NetworkEnvironment

__all__ = ["EnvironmentResponder", "bidirectional_capture"]


class EnvironmentResponder:
    """Produces the network's answers to a device's setup packets."""

    def __init__(self, env: NetworkEnvironment | None = None) -> None:
        self.env = env or NetworkEnvironment()
        self._server_macs: dict[str, str] = {}
        self.responses_generated = 0

    def _server_mac(self, ip: str) -> str:
        """A stable pseudo-MAC for a remote/server IP (the uplink hop)."""
        if ip not in self._server_macs:
            index = len(self._server_macs) + 1
            self._server_macs[ip] = f"0c:00:00:00:{(index >> 8) & 255:02x}:{index & 255:02x}"
        return self._server_macs[ip]

    def respond(self, frame: bytes) -> list[bytes]:
        """Response frames (possibly none) the environment sends back."""
        packet = decode(frame)
        out: list[bytes] = []
        gw_mac, gw_ip = self.env.gateway_mac, self.env.gateway_ip
        # One codec walk per frame; a frame holds at most one layer per type.
        layers = {type(layer): layer for layer in packet.layers}

        dhcp = layers.get(DHCPMessage)
        if dhcp is not None and dhcp.is_dhcp and packet.src_mac:
            from repro.packets.dhcp import DHCPDISCOVER, DHCPREQUEST

            offered = packet.src_ip if packet.src_ip not in (None, "0.0.0.0") else "192.168.1.199"
            if dhcp.message_type == DHCPDISCOVER:
                out.append(builder.dhcp_offer_frame(gw_mac, gw_ip, packet.src_mac, dhcp.xid, offered))
            elif dhcp.message_type == DHCPREQUEST:
                requested = dhcp.option(50)
                lease_ip = (
                    ".".join(str(b) for b in requested) if requested else offered
                )
                out.append(builder.dhcp_ack_frame(gw_mac, gw_ip, packet.src_mac, dhcp.xid, lease_ip))

        arp = layers.get(ARPPacket)
        if arp is not None and arp.is_request and not arp.is_gratuitous:
            if arp.target_ip == gw_ip:
                out.append(builder.arp_reply_frame(gw_mac, gw_ip, arp.sender_mac, arp.sender_ip))

        dns = layers.get(DNSMessage)
        if (
            dns is not None
            and packet.is_dns
            and not dns.is_response
            and dns.questions
            and packet.src_ip
            and packet.src_port
        ):
            name = dns.questions[0].name
            out.append(
                builder.dns_response_frame(
                    gw_mac,
                    packet.src_mac,
                    self.env.dns_server,
                    packet.src_ip,
                    name,
                    self.env.allocate_public_ip(),
                    txid=dns.txid,
                    client_port=packet.src_port,
                )
            )

        if packet.is_ntp and packet.src_ip and packet.src_port and packet.dst_ip:
            out.append(
                builder.ntp_response_frame(
                    self._server_mac(packet.dst_ip),
                    packet.src_mac,
                    packet.dst_ip,
                    packet.src_ip,
                    client_port=packet.src_port,
                )
            )

        segment = layers.get(TCPSegment)
        if segment is not None and segment.is_syn and packet.dst_ip and packet.src_ip:
            out.append(
                builder.tcp_synack_frame(
                    self._server_mac(packet.dst_ip),
                    packet.src_mac,
                    packet.dst_ip,
                    packet.src_ip,
                    segment.dst_port,
                    segment.src_port,
                    ack=segment.seq + 1,
                )
            )

        self.responses_generated += len(out)
        return out


def bidirectional_capture(
    device_records: list[CaptureRecord],
    *,
    env: NetworkEnvironment | None = None,
    response_delay: float = 0.004,
) -> list[CaptureRecord]:
    """Interleave environment responses into a device-only capture.

    The result resembles what tcpdump on the gateway actually sees; the
    extraction pipeline must produce the same fingerprint from it.
    """
    responder = EnvironmentResponder(env)
    merged: list[CaptureRecord] = []
    for record in device_records:
        merged.append(record)
        for i, response in enumerate(responder.respond(record.data)):
            merged.append(
                CaptureRecord(timestamp=record.timestamp + response_delay * (i + 1), data=response)
            )
    # A response can land after the device's next packet when the dialogue
    # is bursty; tcpdump would record arrival order, so sort by time.
    merged.sort(key=lambda r: r.timestamp)
    return merged
