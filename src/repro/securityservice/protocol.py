"""Gateway ↔ IoT Security Service message types and transports.

The service is deliberately client-stateless: a gateway submits a
:class:`FingerprintReport` and receives an :class:`IsolationDirective`;
nothing about the gateway is retained (Sect. III-B).  Transports are
pluggable — :class:`DirectTransport` for in-process use and
:class:`AnonymizingTransport` modelling the paper's suggested Tor path
(identity stripped, extra latency).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.fingerprint import Fingerprint
from repro.sdn.overlay import IsolationLevel

__all__ = [
    "FingerprintReport",
    "IsolationDirective",
    "Transport",
    "DirectTransport",
    "AnonymizingTransport",
]


@dataclass(frozen=True)
class FingerprintReport:
    """What a Security Gateway submits for one new device."""

    fingerprint: Fingerprint
    gateway_id: str | None = None  # optional; anonymized transports strip it


@dataclass(frozen=True)
class IsolationDirective:
    """What the IoTSSP returns: type, level, allow-list, cache lifetime."""

    device_type: str
    level: IsolationLevel
    permitted_endpoints: frozenset[str] = frozenset()
    ttl_seconds: float = 86400.0
    vulnerability_ids: tuple[str, ...] = ()
    #: True for gateway-minted degraded-mode directives (the service was
    #: unreachable, so the device sits in strict quarantine until the
    #: pending report is accepted — see ``docs/robustness.md``).  Real
    #: service responses always carry False.
    provisional: bool = False


class Transport:
    """Carries reports to a service object and directives back.

    Every transport has one real operation, :meth:`submit_many`: a batch
    of reports out, one directive per report back, in one exchange.  A
    single report is a batch of one.  ``now`` is the caller's clock
    reading (simulation timestamps in the gateway); wrappers that keep
    time, such as ``ResilientTransport``, use it and the rest ignore it.
    """

    #: Simulated one-way latency in seconds (used by netsim experiments).
    latency: float = 0.0

    def __init__(self, service: "object") -> None:
        self._service = service

    def submit(
        self, report: FingerprintReport, *, now: float | None = None
    ) -> IsolationDirective:
        """Carry one report: a batch of one through :meth:`submit_many`."""
        return self.submit_many([report], now=now)[0]

    def submit_many(
        self, reports: list[FingerprintReport], *, now: float | None = None
    ) -> list[IsolationDirective]:
        """Carry a whole batch in one round trip.

        One ``service.handle_reports`` call (one compiled-bank stage-1
        pass); the directives are positionally aligned with ``reports``.
        """
        return self._service.handle_reports(list(reports))


class DirectTransport(Transport):
    """In-process call, negligible latency."""

    latency = 0.005


class AnonymizingTransport(Transport):
    """Tor-like path: strips the gateway identity, adds onion latency."""

    latency = 0.350

    def submit_many(
        self, reports: list[FingerprintReport], *, now: float | None = None
    ) -> list[IsolationDirective]:
        return super().submit_many(
            [replace(report, gateway_id=None) for report in reports], now=now
        )
