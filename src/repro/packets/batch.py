"""Columnar packet batches: parse a capture chunk once into NumPy columns.

:class:`PacketBatch` holds the observable facts the Table I features
consume — protocol-presence bits, IP-option flags, sizes, ports,
destination addresses — for a chunk of frames, one NumPy column per
fact.  The facts come from :func:`repro.packets.facts.frame_facts`, the
same wire-level walk :func:`repro.packets.decoder.decode` uses for one
frame, so the batch and per-packet paths cannot drift apart.

Layering note: this module stores primitive columns only (bit masks,
sizes, ports, destination ids).  Assembling the feature matrix happens in
``repro.core.features.batch_features`` because ``packets`` sits below
``core`` in the import DAG and must not know the feature layout.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .facts import FLAG_NAMES, frame_facts, ip_to_str
from .pcap import CaptureRecord

__all__ = ["FLAG_NAMES", "PacketBatch"]


@dataclass(frozen=True)
class PacketBatch:
    """Columnar facts for a chunk of frames, in arrival order."""

    timestamps: np.ndarray  # float64 (n,)
    src_macs: tuple[str, ...]
    flag_bits: np.ndarray  # uint32 (n,), bit i = FLAG_NAMES[i]
    sizes: np.ndarray  # int64 (n,) frame lengths
    raw: np.ndarray  # uint8 (n,) raw-data presence
    src_ports: np.ndarray  # int32 (n,), -1 = no port
    dst_ports: np.ndarray  # int32 (n,), -1 = no port
    dst_ids: np.ndarray  # int32 (n,) index into dst_keys, -1 = no dst IP
    dst_keys: tuple[str, ...]  # batch-local id -> destination address string
    #: Downstream per-batch caches (e.g. the feature-base matrix computed
    #: by ``repro.core.features``); excluded from equality, never copied
    #: into subsets by :meth:`take`.
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.src_macs)

    @classmethod
    def from_frames(
        cls, frames: Sequence[bytes], timestamps: Sequence[float] | np.ndarray
    ) -> "PacketBatch":
        """Parse raw Ethernet frames once into columns."""
        # One fact row per frame, transposed into columns in one C-level pass.
        columns = list(zip(*[frame_facts(frame) for frame in frames])) or [()] * 8
        macs, _, bits_col, raw_col, sp_col, dp_col, _, dsts = columns
        # Addresses arrive as wire bytes; each distinct one is formatted once.
        mac_strs = {mac: mac.hex(":") for mac in set(macs)}
        dst_index: dict[bytes, int] = {}
        did_col = [
            -1 if dst is None else dst_index.setdefault(dst, len(dst_index))
            for dst in dsts
        ]
        return cls(
            timestamps=np.asarray(timestamps, dtype=np.float64),
            src_macs=tuple(map(mac_strs.__getitem__, macs)),
            flag_bits=np.array(bits_col, dtype=np.uint32),
            sizes=np.array([len(frame) for frame in frames], dtype=np.int64),
            raw=np.array(raw_col, dtype=np.uint8),
            src_ports=np.array(sp_col, dtype=np.int32),
            dst_ports=np.array(dp_col, dtype=np.int32),
            dst_ids=np.array(did_col, dtype=np.int32),
            dst_keys=tuple(map(ip_to_str, dst_index)),
        )

    @classmethod
    def from_records(cls, records: list[CaptureRecord]) -> "PacketBatch":
        """Parse pcap capture records (timestamp + frame bytes) once."""
        return cls.from_frames(
            [record.data for record in records],
            [record.timestamp for record in records],
        )

    def flag_matrix(self) -> np.ndarray:
        """(n, len(FLAG_NAMES)) 0/1 matrix in :data:`FLAG_NAMES` order."""
        shifts = np.arange(len(FLAG_NAMES), dtype=np.uint32)
        return ((self.flag_bits[:, None] >> shifts) & 1).astype(np.uint8)

    def take(self, indices: Sequence[int] | np.ndarray) -> "PacketBatch":
        """Row subset (e.g. one device's packets), order preserved."""
        idx = np.asarray(indices, dtype=np.intp)
        return PacketBatch(
            timestamps=self.timestamps[idx],
            src_macs=tuple(self.src_macs[i] for i in idx),
            flag_bits=self.flag_bits[idx],
            sizes=self.sizes[idx],
            raw=self.raw[idx],
            src_ports=self.src_ports[idx],
            dst_ports=self.dst_ports[idx],
            dst_ids=self.dst_ids[idx],
            dst_keys=self.dst_keys,
        )
