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

from repro.packets.batch import PacketBatch
from repro.packets.decoder import DecodedPacket
from repro.packets.facts import FLAG_NAMES

from .constants import NUM_FEATURES

__all__ = [
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "INTEGER_FEATURES",
    "DestinationCounter",
    "port_class",
    "port_class_array",
    "packet_features",
    "batch_features",
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

# Column indices used by the batch path; derived, not restated.
_SIZE_IDX = FEATURE_NAMES.index("packet_size")
_RAW_IDX = FEATURE_NAMES.index("raw_data")
_DST_IDX = FEATURE_NAMES.index("dst_ip_counter")
_SPORT_IDX = FEATURE_NAMES.index("src_port_class")
_DPORT_IDX = FEATURE_NAMES.index("dst_port_class")
_N_FLAGS = len(FLAG_NAMES)

if FLAG_NAMES != FEATURE_NAMES[:_N_FLAGS]:  # pragma: no cover - import-time sanity
    raise AssertionError(
        "repro.packets.facts.FLAG_NAMES must match the presence-flag head of "
        "FEATURE_NAMES so flag_matrix() columns line up with Table I"
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


def port_class_array(ports: np.ndarray) -> np.ndarray:
    """Vectorized :func:`port_class`; negative entries encode "no port"."""
    ports = np.asarray(ports)
    out = np.zeros(ports.shape, dtype=np.float64)
    valid = ports >= 0
    out[valid & (ports <= 1023)] = PORT_CLASS_WELL_KNOWN
    out[valid & (ports > 1023) & (ports <= 49151)] = PORT_CLASS_REGISTERED
    out[valid & (ports > 49151)] = PORT_CLASS_DYNAMIC
    return out


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

    The 18 presence flags come off ``packet.flag_bits`` in the
    :meth:`~repro.packets.batch.PacketBatch.flag_matrix` layout.
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


# PacketBatch.memo key for the per-chunk feature base (below).
_BASE_KEY = "core.feature_base"


def _feature_base(batch: PacketBatch) -> tuple[np.ndarray, list[int]]:
    """Session-independent feature columns, memoized on the batch.

    Every column of Table I except ``dst_ip_counter`` depends only on the
    packet bytes, so one ``(len(batch), NUM_FEATURES)`` matrix (dst column
    zero) serves every extractor session that slices rows out of the same
    chunk — the monitor's fleet sweep computes it once per chunk instead
    of once per device.  Returned read-only together with ``dst_ids`` as a
    plain list (cheap per-row iteration for the counter fill).
    """
    cached = batch.memo.get(_BASE_KEY)
    if cached is None:
        base = np.zeros((len(batch), NUM_FEATURES), dtype=np.float64)
        base[:, :_N_FLAGS] = batch.flag_matrix()
        base[:, _SIZE_IDX] = batch.sizes
        base[:, _RAW_IDX] = batch.raw
        base[:, _SPORT_IDX] = port_class_array(batch.src_ports)
        base[:, _DPORT_IDX] = port_class_array(batch.dst_ports)
        base.setflags(write=False)
        cached = (base, batch.dst_ids.tolist())
        batch.memo[_BASE_KEY] = cached
    return cached


def batch_features(
    batch: PacketBatch,
    counter: DestinationCounter,
    rows: list[int] | np.ndarray | range | None = None,
) -> np.ndarray:
    """Compute the ``(n, NUM_FEATURES)`` matrix for ``rows`` of the batch.

    ``rows`` selects batch rows in order (default: every row).  Byte-
    identical to stacking :func:`packet_features` over the selected decoded
    packets (pinned by ``tests/core/test_batch_extraction.py``): the
    session-independent columns come off the memoized per-chunk base, and
    the destination counter is advanced row by row in arrival order, so
    the fingerprint-scoped numbering state mutates just as the scalar
    loop would.
    """
    base, ids_all = _feature_base(batch)
    if rows is None:
        out = base.copy()
        ids = ids_all
    else:
        rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
        out = base[rows]
        ids = [ids_all[i] for i in rows]
    if ids:
        keys = batch.dst_keys
        number_for = counter.number_for
        col = [0.0] * len(ids)
        for j, did in enumerate(ids):
            if did >= 0:
                col[j] = float(number_for(keys[did]))
        out[:, _DST_IDX] = col
    return out
