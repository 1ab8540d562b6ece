"""Consistent-hash sharding for the IoTSSP (the fleet-scale service tier).

One :class:`~repro.securityservice.service.IoTSecurityService` instance
serves one box; millions of devices need N of them.  This module adds the
routing tier:

* :class:`HashRing` — a deterministic consistent-hash ring.  Virtual-node
  positions are derived from SHA-256 over ``(seed, shard id, vnode index)``
  so the layout is identical across processes and runs (Python's ``hash``
  is salted per process and never used).  Adding or removing a shard moves
  only the keys on the arcs its virtual nodes own — bounded remapping,
  pinned by ``tests/securityservice/test_ring_properties.py``.
* :class:`ShardedSecurityService` — N shards behind one front, all
  serving one :class:`~repro.core.identifier.DeviceIdentifier`.  The
  model is shared, not partitioned or copied: ``train`` fits the bank
  once, and each enrolment or retirement trains or drops one type once,
  on that identifier, which publishes the next immutable
  :class:`~repro.core.identifier.ModelSnapshot` to every shard at once.
  A shard joining later serves the same identifier; nothing is trained
  or published.  Shards also share one vulnerability database, so any
  shard can answer any directive lookup; the ring spreads report load by
  device MAC.
  A batch is identified once, in one two-stage pass over the current
  snapshot, so one model version answers the whole batch even while an
  enrolment is in flight; each shard then only turns its reports'
  labels into directives (counting them and reading its own endpoint
  directory), and the directives return in submission order.  That
  makes the N=1 front byte-identical to a bare service (pinned by the
  differential test).

Shard **outage** (``kill_shard``) keeps ring membership — keys do not
remap during a blip; routes to a dead shard raise
:class:`~repro.securityservice.resilience.ServiceUnavailable` and the
gateway's resilience stack (pending queue + provisional quarantine)
carries the affected devices until ``revive_shard``.  Shard
**decommission** (``remove_shard``) takes it out of the ring and remaps
only its keys.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
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

from .incidents import IncidentReport
from .protocol import FingerprintReport, IsolationDirective
from .resilience import ServiceUnavailable
from .service import IoTSecurityService
from .vulndb import VulnerabilityDatabase, seed_database

__all__ = ["DEFAULT_VNODES", "HashRing", "ShardedSecurityService"]

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


class ShardedSecurityService:
    """N ``IoTSecurityService`` shards behind a consistent-hash front.

    The front mirrors the single-service surface (``handle_report``,
    ``handle_reports``, ``train``, ``enroll_type`` …) so gateways and
    transports are oblivious to sharding; ``DirectTransport(front)``
    works unchanged.  Every shard serves the front's one
    :attr:`identifier` (one model, one corpus); each batch is identified
    once on its current snapshot, and each report is served (counted,
    given its directive) by the one shard its device MAC routes to.

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
        self.vulndb = vulndb if vulndb is not None else seed_database()
        self._endpoint_directory = dict(endpoint_directory or {})
        self._entropy = derive_entropy(random_state)
        #: The one model (and corpus) every shard serves.
        self.identifier = DeviceIdentifier(random_state=self._entropy)
        self.ring = HashRing(vnodes=vnodes, seed=ring_seed)
        self.shards: dict[str, IoTSecurityService] = {}
        self._next_index = 0
        self._down: set[str] = set()
        #: Warm-start cache hits observed while training shards.
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

        The new shard serves the front's identifier; nothing is trained.
        """
        shard_id = f"shard-{self._next_index}"
        self._next_index += 1
        self.shards[shard_id] = IoTSecurityService(
            identifier=self.identifier,
            vulndb=self.vulndb,
            endpoint_directory=self._endpoint_directory,
        )
        self.ring.add(shard_id)
        return shard_id

    def remove_shard(self, shard_id: str) -> None:
        """Decommission a shard; only its keys remap, to surviving shards."""
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        if len(self.shards) == 1:
            raise ValueError("cannot remove the last shard")
        self.ring.remove(shard_id)
        del self.shards[shard_id]
        self._down.discard(shard_id)

    def kill_shard(self, shard_id: str) -> None:
        """Mark a shard down (outage, not decommission — no key remap)."""
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        self._down.add(shard_id)

    def revive_shard(self, shard_id: str) -> None:
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        self._down.discard(shard_id)

    @property
    def down_shards(self) -> frozenset[str]:
        return frozenset(self._down)

    # --- training / enrollment (one identifier, shared by every shard) ------

    def train(self, registry: DeviceTypeRegistry) -> None:
        """Train the bank once; every shard serves it.

        With a shared store each shard's turn warm-starts from it: the
        first fits (or loads) the bank and the other N-1 load the
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
        """Enroll one new type: trained once, served by every shard.

        See :meth:`~repro.core.identifier.DeviceIdentifier.add_type`; no
        other type is retrained or recompiled.
        """
        self.identifier.add_type(label, fingerprints)

    def retire_type(self, label: str) -> None:
        self.identifier.remove_type(label)

    def register_endpoints(self, device_type: str, endpoints: Iterable[str]) -> None:
        batch = list(endpoints)
        # Keep the front's own copy current too: it seeds shards joining later.
        current = set(self._endpoint_directory.get(device_type, frozenset()))
        current.update(batch)
        self._endpoint_directory[device_type] = frozenset(current)
        for shard in self.shards.values():
            shard.register_endpoints(device_type, batch)

    @property
    def known_types(self) -> list[str]:
        return self.identifier.labels

    @property
    def reports_handled(self) -> int:
        return sum(shard.reports_handled for shard in self.shards.values())

    # --- routing -----------------------------------------------------------

    @staticmethod
    def _routing_key(report: FingerprintReport) -> str:
        return report.fingerprint.device_mac

    def _live_shard(self, shard_id: str) -> IoTSecurityService:
        if shard_id in self._down:
            raise ServiceUnavailable(f"shard {shard_id} is down")
        return self.shards[shard_id]

    def handle_report(self, report: FingerprintReport) -> IsolationDirective:
        """Route one report to its owning shard and serve it there."""
        return self.handle_reports([report])[0]

    def handle_reports(self, reports: list[FingerprintReport]) -> list[IsolationDirective]:
        """Identify a batch once, then serve each report on its shard.

        A route to a down shard fails the whole batch with
        ``ServiceUnavailable`` *before* any work — the gateway then
        bisects the batch, isolating the outage to the dead shard's
        devices without serving any report twice.  The whole batch is
        identified in one pass over the current snapshot, so one model
        version answers it; each shard's bucket then only turns its
        labels into directives, in submission order.
        """
        with obs_span(obs_names.SPAN_SHARD_ROUTE, batch=len(reports)) as span:
            buckets: dict[str, list[int]] = {}
            for index, report in enumerate(reports):
                buckets.setdefault(self.ring.route(self._routing_key(report)), []).append(index)
            for shard_id in buckets:
                if shard_id in self._down:
                    raise ServiceUnavailable(f"shard {shard_id} is down")
            results = self.identifier.identify_batch([r.fingerprint for r in reports])
            labels = [result.label for result in results]
            directives: list[IsolationDirective | None] = [None] * len(reports)
            for shard_id, indexes in buckets.items():
                obs_counter(obs_names.METRIC_SHARD_REPORTS, shard=shard_id).inc(len(indexes))
                shard_out = self.shards[shard_id].directives_for([labels[i] for i in indexes])
                for i, directive in zip(indexes, shard_out):
                    directives[i] = directive
            span.set(shards=len(buckets))
            return directives  # type: ignore[return-value]

    def directive_for_type(self, device_type: str) -> IsolationDirective:
        """Cross-shard directive lookup by type.

        Routes to the type's home shard for cache affinity, but any live
        shard can answer (shared vulndb + fanned-out endpoint
        directory), so a down home shard falls back to a surviving one.
        """
        shard_id = self.ring.route(device_type)
        if shard_id in self._down:
            for candidate in self.ring.shard_ids():
                if candidate not in self._down:
                    shard_id = candidate
                    break
            else:
                raise ServiceUnavailable("all shards are down")
        return self.shards[shard_id].directive_for_type(device_type)

    def report_incident(self, report: IncidentReport):
        """Route incident reports by device type so one shard's aggregator
        sees the whole cluster; a confirmed record lands in the shared
        vulndb and is instantly visible to every shard's assessments."""
        shard_id = self.ring.route(report.device_type)
        return self._live_shard(shard_id).report_incident(report)

    def assess_type(self, device_type: str):
        return next(iter(self.shards.values())).assess_type(device_type)
