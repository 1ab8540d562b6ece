"""Packet substrate: wire-format builders/parsers and pcap I/O.

This package replaces the scapy dependency of the original IoT Sentinel
prototype with a purpose-built implementation of every protocol the
Table I features reference.

Public entry points:

* :func:`repro.packets.decode` — raw Ethernet frame → :class:`DecodedPacket`
* :mod:`repro.packets.builder` — high-level frame constructors
* :func:`read_pcap` / :func:`write_pcap` — capture file interchange
"""

from .base import DecodeError, EncodeError, PacketError
from .decoder import DecodedPacket, decode
from .facts import FLAG_NAMES
from .pcap import CaptureRecord, PcapFile, read_capture, read_pcap, write_pcap
from .pcapng import read_pcapng

__all__ = [
    "CaptureRecord",
    "DecodeError",
    "DecodedPacket",
    "EncodeError",
    "FLAG_NAMES",
    "PacketError",
    "PcapFile",
    "decode",
    "read_capture",
    "read_pcap",
    "read_pcapng",
    "write_pcap",
]
