"""The IoT Security Service (IoTSSP) façade.

Combines the classifier bank (:class:`~repro.core.identifier.DeviceIdentifier`),
the vulnerability repository and the endpoint directory into the single
operation the Security Gateway consumes: fingerprint in, isolation
directive out.  New device types can be enrolled at runtime without
retraining existing classifiers (the paper's scalability property).

Instrumented with ``repro.obs``: each :meth:`~IoTSecurityService.handle_report`
runs in a ``service.handle_report`` span, with counters for reports
handled and directives issued per isolation level — see
``docs/observability.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.identifier import DeviceIdentifier
from repro.core.registry import DeviceTypeRegistry
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .assessment import Assessment, assess_device_type
from .incidents import IncidentAggregator, IncidentReport
from .protocol import FingerprintReport, IsolationDirective
from .vulndb import VulnerabilityDatabase, seed_database

__all__ = ["IoTSecurityService"]


class IoTSecurityService:
    """Device-type identification + vulnerability assessment service."""

    def __init__(
        self,
        *,
        identifier: DeviceIdentifier | None = None,
        vulndb: VulnerabilityDatabase | None = None,
        endpoint_directory: Mapping[str, frozenset[str]] | None = None,
        random_state: int | np.random.Generator | None = None,
        n_jobs: int | None = None,
    ) -> None:
        self.identifier = identifier or DeviceIdentifier(random_state=random_state)
        #: Worker-pool width for bulk training (None/1 serial, -1 all cores).
        #: Trained models are identical for any value; see repro.ml.parallel.
        self.n_jobs = n_jobs
        self.vulndb = vulndb if vulndb is not None else seed_database()
        self.endpoint_directory = dict(endpoint_directory or {})
        self._registry = DeviceTypeRegistry()
        self.incidents = IncidentAggregator(vulndb=self.vulndb)
        self.reports_handled = 0

    # --- training / enrollment --------------------------------------------

    def train(self, registry: DeviceTypeRegistry) -> None:
        """Bulk-train from a labelled corpus (initial lab ground truth)."""
        self._registry = registry
        self.identifier.fit(registry, n_jobs=self.n_jobs)

    def adopt_model(self, registry: DeviceTypeRegistry, identifier: DeviceIdentifier) -> None:
        """Install a pre-trained identifier (e.g. a ModelStore warm start).

        Equivalent to :meth:`train` when ``identifier`` was fit on
        ``registry`` with the same entropy — the path the sharded front
        uses to train once and load N byte-identical shard replicas.
        """
        self._registry = registry
        self.identifier = identifier

    def enroll_type(self, label: str, fingerprints: Iterable[Fingerprint]) -> None:
        """Add one new device type incrementally (no global relearning)."""
        self._registry.add_many(label, list(fingerprints))
        self.identifier.add_type(self._registry, label)

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
        """Identify the device type and return the isolation directive.

        Deliberately ignores ``report.gateway_id`` beyond transport needs:
        the service stores nothing about its clients (Sect. III-B).
        """
        with obs_span(obs_names.SPAN_SERVICE_REPORT) as span:
            self.reports_handled += 1
            obs_counter(obs_names.METRIC_REPORTS_HANDLED).inc()
            result = self.identifier.identify(report.fingerprint)
            directive = self._directive_for(result.label)
            span.set(device_type=result.label, level=directive.level.value)
            return directive

    def handle_reports(self, reports: list[FingerprintReport]) -> list[IsolationDirective]:
        """Handle a batch of reports through one stage-1 bank pass.

        Semantically identical to mapping :meth:`handle_report` over the
        batch (``identify_batch`` is pinned against scalar ``identify``),
        but stage 1 evaluates the whole classifier bank over all stacked
        F' vectors at once — the fleet-scale path drained batches from
        ``SentinelModule.process_batch`` take.
        """
        with obs_span(obs_names.SPAN_SERVICE_BATCH, batch=len(reports)) as span:
            self.reports_handled += len(reports)
            obs_counter(obs_names.METRIC_REPORTS_HANDLED).inc(len(reports))
            results = self.identifier.identify_batch(
                [report.fingerprint for report in reports]
            )
            directives = [self._directive_for(result.label) for result in results]
            span.set(batch=len(reports))
            return directives

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
