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

import threading
from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.identifier import DeviceIdentifier, DuplicateTypeError, NoCorpusError
from repro.core.registry import DeviceTypeRegistry
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .assessment import Assessment, assess_device_type
from .incidents import IncidentAggregator, IncidentReport
from .protocol import FingerprintReport, IsolationDirective
from .vulndb import VulnerabilityDatabase, seed_database

__all__ = ["IoTSecurityService", "DuplicateTypeError", "NoCorpusError"]


class IoTSecurityService:
    """Device-type identification + vulnerability assessment service.

    The model and the corpus it was trained on belong to the
    :class:`~repro.core.identifier.DeviceIdentifier`, which changes both
    in one locked step; the service holds no copy of either, so it is
    safe to call from many threads at once.
    """

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
        self.incidents = IncidentAggregator(vulndb=self.vulndb)
        self.reports_handled = 0
        self._counting = threading.Lock()

    # --- training / enrollment --------------------------------------------

    def train(self, registry: DeviceTypeRegistry) -> None:
        """Bulk-train from a labelled corpus (initial lab ground truth).

        The identifier trains on its own copy of ``registry``.
        """
        self.identifier.fit(registry)

    def enroll_type(self, label: str, fingerprints: Iterable[Fingerprint]) -> None:
        """Add one new device type incrementally (no global relearning).

        Raises :class:`DuplicateTypeError` for a type already served and
        :class:`NoCorpusError` when the model came without its corpus; a
        failed enrolment leaves the corpus and the model as they were.
        """
        self.identifier.add_type(label, fingerprints)

    def retire_type(self, label: str) -> None:
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
            results = self.identifier.identify_batch([report.fingerprint for report in reports])
            return self.directives_for([result.label for result in results])

    def directives_for(self, labels: list[str]) -> list[IsolationDirective]:
        """Serve identified reports: one directive per label, counted as handled."""
        with self._counting:
            self.reports_handled += len(labels)
        obs_counter(obs_names.METRIC_REPORTS_HANDLED).inc(len(labels))
        return [self.directive_for_type(label) for label in labels]

    def directive_for_type(self, device_type: str) -> IsolationDirective:
        """Issue a directive for an already-identified type (no classification).

        The cross-shard directive lookup: a gateway holding a verdict from
        one shard can ask any shard for the current isolation policy.
        """
        assessment = self.assess_type(device_type)
        obs_counter(obs_names.METRIC_DIRECTIVES, level=assessment.level.value).inc()
        return IsolationDirective(
            device_type=device_type,
            level=assessment.level,
            permitted_endpoints=assessment.permitted_endpoints,
            vulnerability_ids=assessment.vulnerability_ids,
        )
