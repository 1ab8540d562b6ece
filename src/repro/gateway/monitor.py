"""Device monitoring: new-MAC detection and per-device capture.

The Security Gateway watches all traffic on its interfaces; when a MAC it
has never seen starts talking, it opens a fingerprinting session (Sect.
IV-A) and collects that device's packets until the setup-phase detector
fires.  For legacy installations (Sect. VIII-A) the same machinery can be
pointed at an *already-connected* device to profile its standby traffic.

Instrumented with ``repro.obs``: packets seen, sessions opened/completed
(labelled by mode) and setup-phase detector fires — the operational
counters behind the Fig. 6 overhead view; see ``docs/observability.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.extractor import FingerprintExtractor, SetupPhaseDetector
from repro.core.fingerprint import Fingerprint
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import names as obs_names
from repro.packets.decoder import DecodedPacket

__all__ = ["MonitorEvent", "DeviceMonitor"]


@dataclass(frozen=True)
class MonitorEvent:
    """Emitted when a device's profiling session completes."""

    device_mac: str
    fingerprint: Fingerprint
    packet_count: int
    mode: str  # "setup" or "standby"


class DeviceMonitor:
    """Tracks devices and runs one fingerprint extractor per new device.

    With ``buffer_completions=True`` the monitor runs in the fleet-scale
    *batched* mode: sessions that complete inside :meth:`observe` are
    queued instead of returned, and a periodic :meth:`drain_completed`
    sweep hands the whole batch to ``SentinelModule.process_batch`` for
    one compiled-bank identification pass.  Until drained, a completed
    device counts as profiled but has no directive, so the enforcement
    path holds it at default-deny (see ``docs/scaling.md``).
    :meth:`flush` always completes immediately, bypassing the buffer.
    """

    def __init__(
        self,
        *,
        detector_factory=SetupPhaseDetector,
        ignore_macs: set[str] | None = None,
        buffer_completions: bool = False,
    ) -> None:
        self._detector_factory = detector_factory
        self._ignore = set(ignore_macs or ())
        self._sessions: dict[str, FingerprintExtractor] = {}
        self._modes: dict[str, str] = {}
        self._profiled: set[str] = set()
        self.buffer_completions = buffer_completions
        # The completion buffer is the one piece of monitor state a drain
        # sweep may read from another thread than the capture loop writes
        # from; every ``_completed`` access happens under this lock.
        self._lock = threading.Lock()
        self._completed: list[MonitorEvent] = []

    # --- bookkeeping --------------------------------------------------------

    @property
    def profiling(self) -> list[str]:
        """MACs currently being fingerprinted."""
        return sorted(self._sessions)

    @property
    def profiled(self) -> list[str]:
        """MACs whose profiling has completed."""
        return sorted(self._profiled)

    def is_profiling(self, mac: str) -> bool:
        return mac in self._sessions

    def is_profiled(self, mac: str) -> bool:
        return mac in self._profiled

    def ignore(self, mac: str) -> None:
        """Never profile this MAC (e.g. the gateway's own interfaces)."""
        self._ignore.add(mac)

    def forget(self, mac: str) -> None:
        """Drop all state for a device (it left the network)."""
        self._sessions.pop(mac, None)
        self._modes.pop(mac, None)
        self._profiled.discard(mac)
        with self._lock:
            if self._completed:
                self._completed = [e for e in self._completed if e.device_mac != mac]
                self._sync_buffered_gauge()

    def mark_profiled(self, mac: str) -> None:
        """Record a device as already profiled without a capture session.

        Used when enforcement state is provisioned out-of-band (e.g. the
        performance experiments pre-authorize their measurement devices).
        """
        self._sessions.pop(mac, None)
        self._modes.pop(mac, None)
        self._profiled.add(mac)

    def start_standby_profiling(self, mac: str) -> None:
        """Re-profile an already-known device from its standby traffic.

        Legacy-installation support (Sect. VIII-A): fingerprinting happens
        after the device has long been connected, based on heartbeat /
        normal-operation traffic instead of the setup dialogue.
        """
        self._profiled.discard(mac)
        self._sessions[mac] = FingerprintExtractor(mac, detector=self._detector_factory())
        self._modes[mac] = "standby"
        obs_counter(obs_names.METRIC_SESSIONS_OPENED, mode="standby").inc()

    def _sync_buffered_gauge(self) -> None:
        """Re-publish the buffer depth; call after every ``_completed`` change."""
        obs_gauge(obs_names.METRIC_COMPLETIONS_BUFFERED).set(float(len(self._completed)))

    # --- the observation path ----------------------------------------------

    def observe(self, timestamp: float, packet: DecodedPacket) -> MonitorEvent | None:
        """Feed one packet seen by the gateway; may complete a session.

        A capture record whose timestamp runs backwards (clock skew,
        out-of-order delivery) is dropped and counted — one bad clock must
        not abort the whole observation sweep.
        """
        obs_counter(obs_names.METRIC_PACKETS_SEEN).inc()
        mac = packet.src_mac
        if not mac or mac in self._ignore or mac in self._profiled:
            return None
        session = self._sessions.get(mac)
        if session is None:
            session = FingerprintExtractor(mac, detector=self._detector_factory())
            self._sessions[mac] = session
            self._modes[mac] = "setup"
            obs_counter(obs_names.METRIC_SESSIONS_OPENED, mode="setup").inc()
        try:
            done = session.add(timestamp, packet)
        except ValueError:
            obs_counter(obs_names.METRIC_PACKETS_DROPPED, reason="clock").inc()
            return None
        if done:
            obs_counter(obs_names.METRIC_DETECTOR_FIRES).inc()
            event = self._complete(mac)
            if self.buffer_completions:
                with self._lock:
                    self._completed.append(event)
                    self._sync_buffered_gauge()
                return None
            return event
        return None

    def drain_completed(self) -> list[MonitorEvent]:
        """Take (and clear) the buffered completion events, oldest first."""
        with self._lock:
            events = self._completed
            self._completed = []
            if events:
                self._sync_buffered_gauge()
        return events

    def flush(self, mac: str) -> MonitorEvent | None:
        """Force-complete a session (e.g. gateway-side timeout sweep).

        Always returns the event directly, even with ``buffer_completions``
        on: callers such as ``SecurityGateway.finish_profiling`` need the
        fingerprint immediately, so the event never enters ``_completed``
        and the buffer-depth gauge is unaffected.
        """
        if mac not in self._sessions:
            return None
        self._sessions[mac].finish()
        return self._complete(mac)

    def _complete(self, mac: str) -> MonitorEvent:
        session = self._sessions.pop(mac)
        mode = self._modes.pop(mac)
        self._profiled.add(mac)
        obs_counter(obs_names.METRIC_SESSIONS_COMPLETED, mode=mode).inc()
        fingerprint = session.fingerprint()
        return MonitorEvent(
            device_mac=mac,
            fingerprint=fingerprint,
            packet_count=len(fingerprint),
            mode=mode,
        )
