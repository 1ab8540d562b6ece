"""End-to-end observability: the pipeline emits exactly the documented names.

Every span and metric observed here must come from ``repro.obs.names`` —
the same constants ``docs/observability.md`` tables document and
``tools/check_obs_docs.py`` enforces.  A rename or an undocumented
instrumentation point fails these tests before it fails CI's docs check.
"""

import numpy as np

from repro.core import DeviceIdentifier, fingerprint_from_records
from repro.devices import profile_by_name, simulate_setup_capture
from repro.gateway import DeviceMonitor
from repro.ml.parallel import parallel_map
from repro.obs import RecordingProvider, metrics_snapshot, names, use_provider
from repro.packets.decoder import decode
from repro.securityservice import FingerprintReport, IoTSecurityService


def recorded_names(provider):
    spans = {r.name for r in provider.tracer.records()}
    metrics = {f.name for f in provider.metrics.families()}
    return spans, metrics


class TestIdentifyPath:
    def test_identify_emits_documented_spans(self, small_registry, small_identifier):
        probe = small_registry.fingerprints(small_registry.labels[0])[0]
        provider = RecordingProvider()
        with use_provider(provider):
            result = small_identifier.identify(probe)
        spans, metrics = recorded_names(provider)
        assert spans <= names.SPAN_NAMES
        assert metrics <= names.METRIC_NAMES
        assert {names.SPAN_IDENTIFY, names.SPAN_CLASSIFY,
                names.SPAN_CLASSIFY_BANK} <= spans
        # One bank span under the classify span, which itself nests under
        # the single identify root (compiled stage 1, the default).
        (root,) = provider.tracer.records_named(names.SPAN_IDENTIFY)
        assert root.parent_id is None
        assert root.attributes["label"] == result.label
        (classify,) = provider.tracer.records_named(names.SPAN_CLASSIFY)
        assert classify.parent_id == root.span_id
        (bank,) = provider.tracer.records_named(names.SPAN_CLASSIFY_BANK)
        assert bank.parent_id == classify.span_id
        assert bank.attributes["types"] == len(small_identifier.labels)

    def test_interpreted_path_emits_per_model_spans(
        self, small_registry, small_identifier
    ):
        probe = small_registry.fingerprints(small_registry.labels[0])[0]
        provider = RecordingProvider()
        small_identifier.compiled = False
        try:
            with use_provider(provider):
                small_identifier.identify(probe)
        finally:
            small_identifier.compiled = True
        # One model span per known type, all under the classify span.
        (classify,) = provider.tracer.records_named(names.SPAN_CLASSIFY)
        models = provider.tracer.records_named(names.SPAN_CLASSIFY_MODEL)
        assert len(models) == len(small_identifier.labels)
        assert {m.parent_id for m in models} == {classify.span_id}

    def test_identification_counter_labelled_by_outcome(
        self, small_registry, small_identifier
    ):
        probe = small_registry.fingerprints(small_registry.labels[0])[0]
        provider = RecordingProvider()
        with use_provider(provider):
            small_identifier.identify(probe)
        snap = metrics_snapshot(provider.metrics)
        (sample,) = snap[names.METRIC_IDENTIFICATIONS]["samples"]
        assert sample["labels"]["outcome"] in {"known", "unknown"}
        assert sample["value"] == 1.0


class TestTrainingPath:
    def test_fit_emits_training_spans_and_counters(self, small_registry):
        provider = RecordingProvider()
        with use_provider(provider):
            DeviceIdentifier(random_state=5).fit(small_registry)
        spans, metrics = recorded_names(provider)
        assert spans <= names.SPAN_NAMES
        n_types = len(small_registry.labels)
        (fit_span,) = provider.tracer.records_named(names.SPAN_TRAIN_FIT)
        assert fit_span.attributes["types"] == n_types
        per_type = provider.tracer.records_named(names.SPAN_TRAIN_TYPE)
        assert sorted(r.attributes["label"] for r in per_type) == list(
            small_registry.labels
        )
        snap = metrics_snapshot(provider.metrics)
        (sample,) = snap[names.METRIC_TYPES_TRAINED]["samples"]
        assert sample["value"] == float(n_types)


class TestExtractionPath:
    def test_extraction_span_counts_records_and_packets(self):
        mac, records = simulate_setup_capture(
            profile_by_name("Aria"), np.random.default_rng(3)
        )
        provider = RecordingProvider()
        with use_provider(provider):
            fingerprint_from_records(records, mac)
        (span,) = provider.tracer.records_named(names.SPAN_EXTRACT)
        assert span.attributes["records"] == len(records)
        assert span.attributes["packets"] > 0


class TestServicePath:
    def test_handle_report_span_wraps_identification(
        self, small_registry, small_identifier
    ):
        service = IoTSecurityService(identifier=small_identifier)
        probe = small_registry.fingerprints(small_registry.labels[0])[0]
        provider = RecordingProvider()
        with use_provider(provider):
            directive = service.handle_report(FingerprintReport(fingerprint=probe))
        (root,) = provider.tracer.records_named(names.SPAN_SERVICE_REPORT)
        assert root.parent_id is None
        assert root.attributes["level"] == directive.level.value
        (identify,) = provider.tracer.records_named(names.SPAN_IDENTIFY)
        assert identify.parent_id == root.span_id
        snap = metrics_snapshot(provider.metrics)
        assert snap[names.METRIC_REPORTS_HANDLED]["samples"][0]["value"] == 1.0
        (directives,) = snap[names.METRIC_DIRECTIVES]["samples"]
        assert directives["labels"]["level"] == directive.level.value

    def test_handle_reports_counts_every_report(self, small_registry, small_identifier):
        service = IoTSecurityService(identifier=small_identifier)
        reports = [
            FingerprintReport(fingerprint=small_registry.fingerprints(label)[0])
            for label in small_registry.labels
        ]
        provider = RecordingProvider()
        with use_provider(provider):
            service.handle_reports(reports)
            service.handle_reports(reports[:2])
        snap = metrics_snapshot(provider.metrics)
        (handled,) = snap[names.METRIC_REPORTS_HANDLED]["samples"]
        assert handled["value"] == len(reports) + 2
        assert service.reports_handled == len(reports) + 2


class TestMonitorPath:
    def test_monitor_counters_follow_a_profiling_session(self):
        mac, records = simulate_setup_capture(
            profile_by_name("HueBridge"), np.random.default_rng(5)
        )
        monitor = DeviceMonitor()
        provider = RecordingProvider()
        with use_provider(provider):
            event = None
            for record in records:
                event = monitor.observe(record.timestamp, decode(record.data))
                if event is not None:
                    break
            if event is None:
                event = monitor.flush(mac)
        assert event is not None and event.device_mac == mac
        snap = metrics_snapshot(provider.metrics)
        assert snap[names.METRIC_PACKETS_SEEN]["samples"][0]["value"] >= 1.0
        (opened,) = snap[names.METRIC_SESSIONS_OPENED]["samples"]
        assert opened["labels"] == {"mode": "setup"} and opened["value"] == 1.0
        (completed,) = snap[names.METRIC_SESSIONS_COMPLETED]["samples"]
        assert completed["labels"] == {"mode": "setup"} and completed["value"] == 1.0


class TestParallelPath:
    def test_parallel_map_spans_and_pool_metrics(self):
        provider = RecordingProvider()
        with use_provider(provider):
            out = parallel_map(lambda x: 2 * x, [1, 2, 3], n_jobs=2)
        assert out == [2, 4, 6]
        (map_span,) = provider.tracer.records_named(names.SPAN_PARALLEL_MAP)
        assert map_span.attributes == {"workers": 2, "items": 3}
        tasks = provider.tracer.records_named(names.SPAN_PARALLEL_TASK)
        assert sorted(t.attributes["index"] for t in tasks) == [0, 1, 2]
        assert all("thread" in t.attributes for t in tasks)
        snap = metrics_snapshot(provider.metrics)
        assert snap[names.METRIC_PARALLEL_WORKERS]["samples"][0]["value"] == 2.0
        assert snap[names.METRIC_PARALLEL_ITEMS]["samples"][0]["value"] == 3.0
