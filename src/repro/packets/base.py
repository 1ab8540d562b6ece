"""Shared low-level helpers for the packet substrate.

The :mod:`repro.packets` package is a from-scratch replacement for the
subset of scapy that IoT Sentinel's fingerprinting pipeline needs: binary
packing/parsing of the link, network, transport and application layer
headers listed in Table I of the paper, plus pcap file I/O.

Every protocol module follows the same contract:

* a header class with a ``pack() -> bytes`` method, and
* a classmethod ``unpack(data: bytes) -> (header, payload_bytes)`` that
  raises :class:`DecodeError` on truncated or malformed input.
"""

from __future__ import annotations

import struct


class PacketError(Exception):
    """Base class for all packet substrate errors."""


class DecodeError(PacketError):
    """Raised when a byte string cannot be parsed as the expected header."""


class EncodeError(PacketError):
    """Raised when a header cannot be serialized (invalid field values)."""


def mac_to_bytes(mac: str) -> bytes:
    """Convert ``aa:bb:cc:dd:ee:ff`` (or ``-`` separated) to 6 raw bytes."""
    parts = mac.replace("-", ":").split(":")
    if len(parts) != 6:
        raise EncodeError(f"invalid MAC address {mac!r}")
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError as exc:
        raise EncodeError(f"invalid MAC address {mac!r}") from exc


def mac_to_str(raw: bytes) -> str:
    """Convert 6 raw bytes to the canonical ``aa:bb:cc:dd:ee:ff`` form."""
    if len(raw) != 6:
        raise DecodeError(f"MAC address must be 6 bytes, got {len(raw)}")
    return raw.hex(":")


def ipv4_to_bytes(addr: str) -> bytes:
    """Convert dotted-quad IPv4 address to 4 raw bytes."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise EncodeError(f"invalid IPv4 address {addr!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise EncodeError(f"invalid IPv4 address {addr!r}") from exc
    if any(v < 0 or v > 255 for v in values):
        raise EncodeError(f"invalid IPv4 address {addr!r}")
    return bytes(values)


def ipv4_to_str(raw: bytes) -> str:
    """Convert 4 raw bytes to dotted-quad form."""
    if len(raw) != 4:
        raise DecodeError(f"IPv4 address must be 4 bytes, got {len(raw)}")
    return "%d.%d.%d.%d" % tuple(raw)


def ipv6_to_bytes(addr: str) -> bytes:
    """Convert textual IPv6 (with ``::`` compression) to 16 raw bytes."""
    if addr.count("::") > 1:
        raise EncodeError(f"invalid IPv6 address {addr!r}")
    if "::" in addr:
        head, _, tail = addr.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise EncodeError(f"invalid IPv6 address {addr!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = addr.split(":")
    if len(groups) != 8:
        raise EncodeError(f"invalid IPv6 address {addr!r}")
    try:
        values = [int(g, 16) for g in groups]
    except ValueError as exc:
        raise EncodeError(f"invalid IPv6 address {addr!r}") from exc
    if any(v < 0 or v > 0xFFFF for v in values):
        raise EncodeError(f"invalid IPv6 address {addr!r}")
    return struct.pack("!8H", *values)


def ipv6_to_str(raw: bytes) -> str:
    """Convert 16 raw bytes to a compressed textual IPv6 address."""
    if len(raw) != 16:
        raise DecodeError(f"IPv6 address must be 16 bytes, got {len(raw)}")
    groups = struct.unpack("!8H", raw)
    # Find the longest run of zero groups to compress with "::".
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, g in enumerate(groups):
        if g == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


def inet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum (ones-complement of ones-complement sum)."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def require(data: bytes, length: int, what: str) -> None:
    """Raise :class:`DecodeError` unless ``data`` holds at least ``length`` bytes."""
    if len(data) < length:
        raise DecodeError(f"truncated {what}: need {length} bytes, have {len(data)}")
