"""Packet stream → fingerprint extraction with setup-phase end detection.

The Security Gateway records packets *sent by* a newly-seen MAC during its
setup phase; "the end of the setup phase can be automatically identified by
a decrease in the rate of packets sent" (Sect. IV-A).  The detector here
declares the phase over when the inter-packet gap exceeds ``idle_gap``
seconds after at least ``min_packets`` packets, or when ``max_packets`` /
``max_duration`` caps are hit — the same observable the paper describes,
made explicit and testable.

Instrumented with ``repro.obs``: :func:`fingerprint_from_records` runs
inside the ``extract.fingerprint`` span (Table IV's "Fingerprint
extraction" row) — see ``docs/observability.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs import names as obs_names
from repro.obs import span as obs_span
from repro.packets.decoder import DecodedPacket, decode
from repro.packets.pcap import CaptureRecord

from .features import DestinationCounter, packet_features
from .fingerprint import Fingerprint

__all__ = [
    "SetupPhaseDetector",
    "RateDropDetector",
    "FingerprintExtractor",
    "fingerprint_from_records",
]


@dataclass
class SetupPhaseDetector:
    """Declares the end of a device's setup phase from packet timing."""

    idle_gap: float = 5.0
    min_packets: int = 4
    max_packets: int = 200
    max_duration: float = 300.0
    _first_ts: float | None = field(default=None, repr=False)
    _last_ts: float | None = field(default=None, repr=False)
    _count: int = field(default=0, repr=False)

    def observe(self, timestamp: float) -> bool:
        """Feed one packet timestamp; True once the setup phase has ended.

        The packet that triggers the end is *not* part of the setup phase.
        """
        if self._first_ts is None:
            self._first_ts = self._last_ts = timestamp
            self._count = 1
            return False
        if timestamp < self._last_ts:
            raise ValueError("timestamps must be non-decreasing")
        gap = timestamp - self._last_ts
        elapsed = timestamp - self._first_ts
        if self._count >= self.min_packets and gap > self.idle_gap:
            return True
        if self._count >= self.max_packets or elapsed > self.max_duration:
            return True
        self._last_ts = timestamp
        self._count += 1
        return False

    def reset(self) -> None:
        self._first_ts = self._last_ts = None
        self._count = 0


@dataclass
class RateDropDetector:
    """The paper's literal criterion: a *decrease in the rate* of packets.

    Tracks the packet rate over a sliding window; once the device has been
    transmitting for at least ``warmup`` packets, the phase ends when the
    current windowed rate falls below ``drop_fraction`` of the peak
    windowed rate.  More faithful to Sect. IV-A's wording than the
    idle-gap heuristic, at the cost of two tunables instead of one;
    both detectors are interchangeable via ``detector_factory``.
    """

    window: float = 10.0
    drop_fraction: float = 0.2
    warmup: int = 6
    max_packets: int = 200
    max_duration: float = 300.0
    _times: deque = field(default_factory=deque, repr=False)
    _first_ts: float | None = field(default=None, repr=False)
    _last_ts: float | None = field(default=None, repr=False)
    _count: int = field(default=0, repr=False)
    _peak_rate: float = field(default=0.0, repr=False)

    def observe(self, timestamp: float) -> bool:
        """Feed one packet timestamp; True once the setup phase has ended.

        The packet that triggers the end is *not* part of the setup phase:
        caps are tested before the packet is counted, mirroring
        :class:`SetupPhaseDetector`, and a triggering timestamp is never
        retained in the sliding window.
        """
        if self._first_ts is None:
            self._first_ts = self._last_ts = timestamp
            self._count = 1
            self._times.append(timestamp)
            return False
        if timestamp < self._last_ts:
            raise ValueError("timestamps must be non-decreasing")
        elapsed = timestamp - self._first_ts
        if self._count >= self.max_packets or elapsed > self.max_duration:
            return True
        # Prune timestamps that fell out of the sliding window: amortised
        # O(1) per packet, versus the old O(n) rescan of the full history.
        while self._times and timestamp - self._times[0] > self.window:
            self._times.popleft()
        # Rate over the *observed* span of the window, not the nominal
        # width: before the window fills, dividing by the full width
        # understates the rate (and hence the peak the drop is measured
        # against).  A lone packet has no span; fall back to the width.
        span = timestamp - self._times[0] if self._times else 0.0
        in_window = len(self._times) + 1
        denom = min(self.window, span) if span > 0 else self.window
        rate = in_window / denom
        if self._count + 1 >= self.warmup:
            if self._peak_rate > 0 and rate < self.drop_fraction * self._peak_rate:
                return True
        self._peak_rate = max(self._peak_rate, rate)
        self._times.append(timestamp)
        self._last_ts = timestamp
        self._count += 1
        return False

    def reset(self) -> None:
        self._times.clear()
        self._first_ts = self._last_ts = None
        self._count = 0
        self._peak_rate = 0.0


class FingerprintExtractor:
    """Accumulates one device's setup packets into a fingerprint.

    Feed decoded packets via :meth:`add`; when :meth:`add` returns True the
    setup phase ended and :meth:`fingerprint` yields the final result.
    """

    def __init__(
        self,
        device_mac: str,
        *,
        detector: SetupPhaseDetector | None = None,
    ) -> None:
        self.device_mac = device_mac
        self.detector = detector or SetupPhaseDetector()
        self._counter = DestinationCounter()
        self._vectors: list[np.ndarray] = []
        self._complete = False

    @property
    def complete(self) -> bool:
        return self._complete

    @property
    def packet_count(self) -> int:
        return len(self._vectors)

    def add(self, timestamp: float, packet: DecodedPacket) -> bool:
        """Add one packet (must originate from the device). Returns done."""
        if self._complete:
            return True
        if packet.src_mac and packet.src_mac != self.device_mac:
            raise ValueError(
                f"packet from {packet.src_mac} fed to extractor for {self.device_mac}"
            )
        if self.detector.observe(timestamp):
            self._complete = True
            return True
        self._vectors.append(packet_features(packet, self._counter))
        return False

    def finish(self) -> None:
        """Force completion (e.g. capture file exhausted)."""
        self._complete = True

    def fingerprint(self, label: str | None = None) -> Fingerprint:
        if not self._vectors:
            return Fingerprint.from_vectors(
                [], device_mac=self.device_mac, label=label
            )
        return Fingerprint.from_matrix(
            np.vstack(self._vectors), device_mac=self.device_mac, label=label
        )


def fingerprint_from_records(
    records: list[CaptureRecord],
    device_mac: str,
    *,
    label: str | None = None,
    detector: SetupPhaseDetector | None = None,
) -> Fingerprint:
    """Extract a fingerprint from pcap records, filtering by source MAC."""
    with obs_span(obs_names.SPAN_EXTRACT, records=len(records)) as span:
        extractor = FingerprintExtractor(device_mac, detector=detector)
        for record in records:
            packet = decode(record.data)
            if packet.src_mac != device_mac:
                continue
            if extractor.add(record.timestamp, packet):
                break
        extractor.finish()
        span.set(packets=extractor.packet_count)
        return extractor.fingerprint(label=label)

