"""The 23 packet features of Table I.

Order and semantics follow the paper exactly:

* 16 binary protocol-presence features (link, network, transport and
  application layers),
* 2 binary IP-option features (padding, router alert),
* packet size (integer) and raw-data presence (binary),
* a per-fingerprint destination-IP counter (integer), and
* source / destination port *classes* (0 = none, 1 = well-known,
  2 = registered, 3 = dynamic).

None of the features read packet payload, so fingerprints extract equally
from encrypted traffic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.packets.decoder import DecodedPacket
from repro.packets.facts import FLAG_NAMES

from .constants import NUM_FEATURES

__all__ = [
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "INTEGER_FEATURES",
    "DestinationCounter",
    "port_class",
    "packet_features",
]

#: Feature names in Table I order; the index is the feature's row in F.
FEATURE_NAMES: tuple[str, ...] = (
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
    "packet_size",
    "raw_data",
    "dst_ip_counter",
    "src_port_class",
    "dst_port_class",
)

if len(FEATURE_NAMES) != NUM_FEATURES:  # pragma: no cover - import-time sanity
    raise AssertionError(
        f"FEATURE_NAMES has {len(FEATURE_NAMES)} entries, expected NUM_FEATURES="
        f"{NUM_FEATURES} (repro.core.constants)"
    )

#: Names of the integer-valued features (all others are binary).
INTEGER_FEATURES = frozenset({"packet_size", "dst_ip_counter", "src_port_class", "dst_port_class"})

_N_FLAGS = len(FLAG_NAMES)

if FLAG_NAMES != FEATURE_NAMES[:_N_FLAGS]:  # pragma: no cover - import-time sanity
    raise AssertionError(
        "repro.packets.facts.FLAG_NAMES must match the presence-flag head of "
        "FEATURE_NAMES so the flag-word bits line up with Table I"
    )

PORT_CLASS_NONE = 0
PORT_CLASS_WELL_KNOWN = 1
PORT_CLASS_REGISTERED = 2
PORT_CLASS_DYNAMIC = 3


def port_class(port: int | None) -> int:
    """Map a port number to the paper's four-valued port class."""
    if port is None:
        return PORT_CLASS_NONE
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range")
    if port <= 1023:
        return PORT_CLASS_WELL_KNOWN
    if port <= 49151:
        return PORT_CLASS_REGISTERED
    return PORT_CLASS_DYNAMIC


class DestinationCounter:
    """Per-fingerprint destination-IP numbering.

    The first destination address observed maps to 1, the second new one to
    2, and so on; repeated destinations keep their number.  This encodes
    *how many distinct endpoints* a device contacts during setup and in
    which order — without recording the addresses themselves.
    """

    def __init__(self) -> None:
        self._numbers: dict[str, int] = {}

    def number_for(self, dst_ip: str | None) -> int:
        """Counter value for a destination (0 when the packet has no IP)."""
        if dst_ip is None:
            return 0
        if dst_ip not in self._numbers:
            self._numbers[dst_ip] = len(self._numbers) + 1
        return self._numbers[dst_ip]

    @property
    def distinct_destinations(self) -> int:
        return len(self._numbers)


@lru_cache(maxsize=1024)
def _flag_row(bits: int) -> tuple[int, ...]:
    """The 18 presence-flag columns of one flag word (few distinct words occur)."""
    return tuple((bits >> i) & 1 for i in range(_N_FLAGS))


def packet_features(packet: DecodedPacket, counter: DestinationCounter) -> np.ndarray:
    """Compute the 23-feature vector for one decoded packet.

    The 18 presence flags come off ``packet.flag_bits``, bit ``i`` being
    feature ``i`` (:data:`~repro.packets.facts.FLAG_NAMES` order).
    ``counter`` carries the fingerprint-scoped destination-IP numbering
    state and is mutated by the call.
    """
    return np.array(
        (
            *_flag_row(packet.flag_bits),
            packet.size,
            int(packet.has_raw_data),
            counter.number_for(packet.dst_ip),
            port_class(packet.src_port),
            port_class(packet.dst_port),
        ),
        dtype=np.float64,
    )

