"""Consistent-hash sharding for the IoTSSP (the fleet-scale service tier).

The paper's IoTSSP is one service: it identifies every gateway's
reports and cross-correlates their incident reports into vulnerability
records (Sect. III-B).  This module puts that one
:class:`~repro.securityservice.service.IoTSecurityService` behind a ring
of shards, where a shard is a failure domain, not a replica:

* :class:`HashRing` — a deterministic consistent-hash ring.  Virtual-node
  positions are derived from SHA-256 over ``(seed, shard id, vnode index)``
  so the layout is identical across processes and runs (Python's ``hash``
  is salted per process and never used).  Adding or removing a shard moves
  only the keys on the arcs its virtual nodes own — bounded remapping,
  pinned by ``tests/securityservice/test_ring_properties.py``.
* :class:`ShardedSecurityService` — the front.  It holds one service
  (one identifier, one vulnerability database, one endpoint directory,
  one incident aggregator) and N :class:`Shard` s, each a ring id, a
  down flag and a report counter.  Reports route by device MAC and
  incidents by device type; the route decides only which shard's
  outage fails the call and which shard counts it.  A batch is served
  by one ``service.handle_reports`` call, so one snapshot version
  answers it even while an enrolment is in flight, and the N=1 front is
  byte-identical to a bare service (pinned by the differential test).
  A shard joining later trains, copies and publishes nothing.

Shard **outage** (``kill_shard``) keeps ring membership — keys do not
remap during a blip; routes to a dead shard raise
:class:`~repro.securityservice.resilience.ServiceUnavailable` and the
gateway's resilience stack (pending queue + provisional quarantine)
carries the affected devices until ``revive_shard``.  Shard
**decommission** (``remove_shard``) takes it out of the ring and remaps
only its keys; the incident counts it saw stay with the one aggregator.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right, insort
from collections import Counter
from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.identifier import DeviceIdentifier
from repro.core.persistence import ModelStore, warm_start_identifier
from repro.core.registry import DeviceTypeRegistry
from repro.ml.parallel import derive_entropy
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .assessment import Assessment
from .incidents import IncidentReport
from .protocol import FingerprintReport, IsolationDirective
from .resilience import ServiceUnavailable
from .service import IoTSecurityService
from .vulndb import VulnerabilityDatabase

__all__ = ["DEFAULT_VNODES", "HashRing", "Shard", "ShardedSecurityService"]

#: Virtual nodes per shard.  64 keeps worst-case load imbalance under
#: ~1.35x the mean (property-tested) at negligible routing cost.
DEFAULT_VNODES = 64


def _hash64(text: str) -> int:
    """Stable 64-bit position from a string (top 8 bytes of SHA-256)."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring over named shards.

    Each shard owns ``vnodes`` points on a 2**64 circle; a key routes to
    the shard owning the first point at or clockwise-after the key's own
    hash.  Positions depend only on ``(seed, shard_id, vnode index)``, so
    two rings built with the same inputs — in any insertion order, in any
    process — route every key identically.
    """

    def __init__(
        self,
        shard_ids: Iterable[str] = (),
        *,
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        self._members: set[str] = set()
        #: Sorted ``(position, shard_id)`` points; ties (astronomically
        #: unlikely) break on the shard id, keeping order deterministic.
        self._points: list[tuple[int, str]] = []
        for shard_id in shard_ids:
            self.add(shard_id)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._members

    def shard_ids(self) -> list[str]:
        return sorted(self._members)

    def _positions_for(self, shard_id: str) -> list[int]:
        return [
            _hash64(f"ring:{self.seed}:{shard_id}:{vnode}")
            for vnode in range(self.vnodes)
        ]

    def add(self, shard_id: str) -> None:
        if shard_id in self._members:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._members.add(shard_id)
        for position in self._positions_for(shard_id):
            insort(self._points, (position, shard_id))

    def remove(self, shard_id: str) -> None:
        if shard_id not in self._members:
            raise ValueError(f"shard {shard_id!r} not on the ring")
        self._members.remove(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]

    def load_fractions(self) -> dict[str, float]:
        """Exact fraction of the key space each shard owns.

        Sums every shard's arc lengths on the 2**64 circle — the expected
        share of a uniform key population, free of sampling noise.  At 64
        vnodes the worst shard stays under ~1.35x the fair share
        (property-tested); useful for capacity planning before pointing
        real load at a layout.
        """
        if not self._points:
            return {}
        modulus = 2**64
        owned: dict[str, int] = {shard_id: 0 for shard_id in self._members}
        for index, (position, shard_id) in enumerate(self._points):
            previous = self._points[index - 1][0] if index else self._points[-1][0] - modulus
            owned[shard_id] += position - previous
        return {shard_id: arc / modulus for shard_id, arc in owned.items()}

    def route(self, key: str) -> str:
        """Shard id owning ``key`` (first vnode clockwise of its hash)."""
        if not self._points:
            raise ValueError("cannot route on an empty ring")
        position = _hash64(f"key:{self.seed}:{key}")
        # (position, "") sorts before any real point at the same position,
        # so a key hashing exactly onto a vnode routes to that vnode.
        index = bisect_right(self._points, (position, ""))
        if index == len(self._points):
            index = 0  # wrap past the top of the circle
        return self._points[index][1]


class Shard:
    """One failure domain on the ring: a down flag and a report counter.

    A shard holds no model, vulnerability database or endpoint
    directory; the front's one :class:`IoTSecurityService` serves every
    report.  ``identifier`` is the front's one identifier, kept so that
    callers reading it per shard see the model being served.
    """

    def __init__(self, shard_id: str, identifier: DeviceIdentifier) -> None:
        self.shard_id = shard_id
        self.identifier = identifier
        self.down = False
        self.reports_handled = 0
        self._counting = threading.Lock()

    def count(self, reports: int) -> None:
        """Count ``reports`` served for keys this shard owns."""
        with self._counting:
            self.reports_handled += reports
            obs_counter(obs_names.METRIC_SHARD_REPORTS, shard=self.shard_id).inc(reports)


class ShardedSecurityService:
    """One ``IoTSecurityService`` behind a consistent-hash ring of shards.

    The front mirrors the single-service surface (``handle_report``,
    ``handle_reports``, ``train``, ``enroll_type`` …) so gateways and
    transports are oblivious to sharding; ``DirectTransport(front)``
    works unchanged.  :attr:`service` is the one service: it owns the
    one :attr:`identifier` (model and corpus), the vulnerability
    database, the endpoint directory and the incident aggregator.  The
    ring decides which shard a report or an incident belongs to, and so
    which outage fails it; each shard counts the reports it owns.

    ``random_state`` is normalized to one entropy value up front, so a
    warm start from the store loads the bank a fresh fit would train
    even when a ``Generator`` is passed.
    """

    def __init__(
        self,
        num_shards: int = 4,
        *,
        store: ModelStore | None = None,
        vnodes: int = DEFAULT_VNODES,
        ring_seed: int = 0,
        vulndb: VulnerabilityDatabase | None = None,
        endpoint_directory: Mapping[str, frozenset[str]] | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.store = store
        self._entropy = derive_entropy(random_state)
        self.service = IoTSecurityService(
            identifier=DeviceIdentifier(random_state=self._entropy),
            vulndb=vulndb,
            endpoint_directory=endpoint_directory,
        )
        #: The one model (and corpus) the service serves.
        self.identifier = self.service.identifier
        self.ring = HashRing(vnodes=vnodes, seed=ring_seed)
        self.shards: dict[str, Shard] = {}
        self._next_index = 0
        #: Warm-start cache hits: the store-backed ``train`` loads once per shard.
        self.cache_hits = 0
        for _ in range(num_shards):
            self.add_shard()

    # --- membership --------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_ids(self) -> list[str]:
        return self.ring.shard_ids()

    def add_shard(self) -> str:
        """Join a new shard; only keys on its new arcs remap to it.

        Nothing is trained or copied: the front's one service serves the
        new shard's keys too.
        """
        shard_id = f"shard-{self._next_index}"
        self._next_index += 1
        self.shards[shard_id] = Shard(shard_id, self.identifier)
        self.ring.add(shard_id)
        return shard_id

    def _shard(self, shard_id: str) -> Shard:
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        return self.shards[shard_id]

    def remove_shard(self, shard_id: str) -> None:
        """Decommission a shard; only its keys remap, to surviving shards."""
        self._shard(shard_id)
        if len(self.shards) == 1:
            raise ValueError("cannot remove the last shard")
        self.ring.remove(shard_id)
        del self.shards[shard_id]

    def kill_shard(self, shard_id: str) -> None:
        """Mark a shard down (outage, not decommission — no key remap)."""
        self._shard(shard_id).down = True

    def revive_shard(self, shard_id: str) -> None:
        self._shard(shard_id).down = False

    @property
    def down_shards(self) -> frozenset[str]:
        return frozenset(shard_id for shard_id, shard in self.shards.items() if shard.down)

    # --- training / enrollment (one identifier, one service) ---------------

    def train(self, registry: DeviceTypeRegistry) -> None:
        """Train the bank once; the one service serves it.

        With a store, each shard's turn warm-starts from it: the first
        fits (or loads) the bank and the other N-1 load the
        byte-identical cached one (``cache_hits == N-1``).  Each load is
        adopted by the one identifier, so only the last stays live.
        """
        if self.store is None:
            self.identifier.fit(registry)
            return
        for _ in self.shards:
            loaded, hit = warm_start_identifier(registry, self.store, random_state=self._entropy)
            self.cache_hits += int(hit)
            self.identifier.adopt(loaded.snapshot, registry)

    def enroll_type(self, label: str, fingerprints: Iterable[Fingerprint]) -> None:
        """Enroll one new type: trained once, served for every shard.

        See :meth:`~repro.core.identifier.DeviceIdentifier.add_type`; no
        other type is retrained or recompiled.
        """
        self.identifier.add_type(label, fingerprints)

    def retire_type(self, label: str) -> None:
        self.identifier.remove_type(label)

    def register_endpoints(self, device_type: str, endpoints: Iterable[str]) -> None:
        self.service.register_endpoints(device_type, endpoints)

    @property
    def vulndb(self) -> VulnerabilityDatabase:
        return self.service.vulndb

    @property
    def known_types(self) -> list[str]:
        return self.service.known_types

    @property
    def reports_handled(self) -> int:
        return self.service.reports_handled

    # --- routing -----------------------------------------------------------

    @staticmethod
    def _routing_key(report: FingerprintReport) -> str:
        return report.fingerprint.device_mac

    def handle_report(self, report: FingerprintReport) -> IsolationDirective:
        """Route one report to its owning shard and serve it."""
        return self.handle_reports([report])[0]

    def handle_reports(self, reports: list[FingerprintReport]) -> list[IsolationDirective]:
        """Serve a batch in one service call, counted on each report's shard.

        A route to a down shard fails the whole batch with
        ``ServiceUnavailable`` *before* any work — the gateway then
        bisects the batch, isolating the outage to the dead shard's
        devices without serving any report twice.  Otherwise the one
        service identifies the whole batch in one pass over the current
        snapshot, so one model version answers it, and returns the
        directives in submission order.
        """
        with obs_span(obs_names.SPAN_SHARD_ROUTE, batch=len(reports)) as span:
            owners = Counter(self.ring.route(self._routing_key(report)) for report in reports)
            for shard_id in owners:
                if self.shards[shard_id].down:
                    raise ServiceUnavailable(f"shard {shard_id} is down")
            directives = self.service.handle_reports(reports)
            for shard_id, count in owners.items():
                self.shards[shard_id].count(count)
            span.set(shards=len(owners))
            return directives

    def directive_for_type(self, device_type: str) -> IsolationDirective:
        """Directive lookup by type: any live shard can answer it."""
        if all(shard.down for shard in self.shards.values()):
            raise ServiceUnavailable("all shards are down")
        return self.service.directive_for_type(device_type)

    def report_incident(self, report: IncidentReport):
        """Submit an incident to the one aggregator, unless the type's home
        shard is down.  A confirmed record lands in the service's vulndb
        and changes every later directive for the type."""
        shard_id = self.ring.route(report.device_type)
        if self.shards[shard_id].down:
            raise ServiceUnavailable(f"shard {shard_id} is down")
        return self.service.report_incident(report)

    def assess_type(self, device_type: str) -> Assessment:
        return self.service.assess_type(device_type)
