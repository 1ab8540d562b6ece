"""The IoT Security Service (IoTSSP) façade.

Combines the classifier bank (:class:`~repro.core.identifier.DeviceIdentifier`),
the vulnerability repository and the endpoint directory into the single
operation the Security Gateway consumes: fingerprint in, isolation
directive out.  New device types can be enrolled at runtime without
retraining existing classifiers (the paper's scalability property).

Instrumented with ``repro.obs``: each :meth:`~IoTSecurityService.handle_reports`
batch runs in a ``service.handle_reports`` span (a single report is a
batch of one), with counters for reports handled and directives issued
per isolation level — see ``docs/observability.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.identifier import DeviceIdentifier, ModelSnapshot
from repro.core.registry import DeviceTypeRegistry
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .assessment import Assessment, assess_device_type
from .incidents import IncidentAggregator, IncidentReport
from .protocol import FingerprintReport, IsolationDirective
from .vulndb import VulnerabilityDatabase, seed_database

__all__ = ["IoTSecurityService", "NoCorpusError"]


class NoCorpusError(RuntimeError):
    """Enrolment asked of a service that holds no training corpus.

    A new type's classifier trains against every other type's
    fingerprints, so a service serving a model file loaded without its
    corpus can identify but cannot enrol.
    """


class IoTSecurityService:
    """Device-type identification + vulnerability assessment service."""

    def __init__(
        self,
        *,
        identifier: DeviceIdentifier | None = None,
        vulndb: VulnerabilityDatabase | None = None,
        endpoint_directory: Mapping[str, frozenset[str]] | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        self.identifier = identifier or DeviceIdentifier(random_state=random_state)
        self.vulndb = vulndb if vulndb is not None else seed_database()
        self.endpoint_directory = dict(endpoint_directory or {})
        self._registry = DeviceTypeRegistry()
        self.incidents = IncidentAggregator(vulndb=self.vulndb)
        self.reports_handled = 0

    # --- training / enrollment --------------------------------------------

    def train(self, registry: DeviceTypeRegistry) -> None:
        """Bulk-train from a labelled corpus (initial lab ground truth)."""
        self._registry = registry
        self.identifier.fit(registry)

    def adopt_model(self, registry: DeviceTypeRegistry, snapshot: ModelSnapshot) -> None:
        """Serve a model snapshot trained elsewhere on ``registry``.

        Equivalent to :meth:`train` when ``snapshot`` was trained on
        ``registry`` with this service's hyper-parameters and entropy —
        the path the sharded front uses to load ModelStore warm starts
        and to publish one enrolment's snapshot to every replica.
        """
        self._registry = registry
        self.identifier.adopt(snapshot)

    def enroll_type(self, label: str, fingerprints: Iterable[Fingerprint]) -> None:
        """Add one new device type incrementally (no global relearning).

        Trains on a copy of the corpus and keeps it only once training
        succeeded, so a failed enrolment leaves the corpus and the model
        as they were.  Raises :class:`NoCorpusError` when there is no
        corpus to train against.
        """
        if not len(self._registry):
            raise NoCorpusError(
                "no training corpus: this service serves a model without the "
                "corpus it was trained on, so it cannot train a new type"
            )
        registry = self._registry.with_added(label, fingerprints)
        self.identifier.add_type(registry, label)
        self._registry = registry

    def retire_type(self, label: str) -> None:
        self._registry.remove_type(label)
        self.identifier.remove_type(label)

    @property
    def known_types(self) -> list[str]:
        return self.identifier.labels

    def register_endpoints(self, device_type: str, endpoints: Iterable[str]) -> None:
        """Record a type's vendor-cloud endpoints for restricted devices."""
        current = set(self.endpoint_directory.get(device_type, frozenset()))
        current.update(endpoints)
        self.endpoint_directory[device_type] = frozenset(current)

    def report_incident(self, report: IncidentReport):
        """Anonymous incident submission from a gateway (Sect. III-B).

        Returns the synthesized vulnerability record when the report
        confirms a cluster, else None.  Devices of the affected type get
        the *restricted* level from their next (or refreshed) directive.
        """
        return self.incidents.submit(report)

    # --- the service operation --------------------------------------------

    def assess_type(self, device_type: str) -> Assessment:
        return assess_device_type(
            device_type, self.vulndb, endpoint_directory=self.endpoint_directory
        )

    def handle_report(self, report: FingerprintReport) -> IsolationDirective:
        """Identify the device type and return the isolation directive."""
        return self.handle_reports([report])[0]

    def handle_reports(self, reports: list[FingerprintReport]) -> list[IsolationDirective]:
        """Identify a batch of reports, then issue one directive per label.

        Deliberately ignores ``report.gateway_id`` beyond transport needs:
        the service stores nothing about its clients (Sect. III-B).
        """
        with obs_span(obs_names.SPAN_SERVICE_BATCH, batch=len(reports)):
            return self.directives_for(self.identify_reports(reports))

    def identify_reports(self, reports: list[FingerprintReport]) -> list[str]:
        """Device-type labels for a batch: one ``identify_batch`` pass,
        answered by one model snapshot."""
        results = self.identifier.identify_batch([report.fingerprint for report in reports])
        return [result.label for result in results]

    def directives_for(self, labels: list[str]) -> list[IsolationDirective]:
        """Serve identified reports: one directive per label, counted as handled."""
        self.reports_handled += len(labels)
        obs_counter(obs_names.METRIC_REPORTS_HANDLED).inc(len(labels))
        return [self._directive_for(label) for label in labels]

    def directive_for_type(self, device_type: str) -> IsolationDirective:
        """Issue a directive for an already-identified type (no classification).

        The cross-shard directive lookup: a gateway holding a verdict from
        one shard can ask any replica for the current isolation policy.
        """
        return self._directive_for(device_type)

    def _directive_for(self, label: str) -> IsolationDirective:
        assessment = self.assess_type(label)
        obs_counter(obs_names.METRIC_DIRECTIVES, level=assessment.level.value).inc()
        return IsolationDirective(
            device_type=label,
            level=assessment.level,
            permitted_endpoints=assessment.permitted_endpoints,
            vulnerability_ids=assessment.vulnerability_ids,
        )
