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
        # the single identify root: a scalar identify is a batch of one.
        (root,) = provider.tracer.records_named(names.SPAN_IDENTIFY)
        assert root.parent_id is None
        assert root.attributes == {
            "batch": 1,
            "unknown": int(result.is_unknown),
            "discriminated": int(result.used_discrimination),
        }
        (classify,) = provider.tracer.records_named(names.SPAN_CLASSIFY)
        assert classify.parent_id == root.span_id
        (bank,) = provider.tracer.records_named(names.SPAN_CLASSIFY_BANK)
        assert bank.parent_id == classify.span_id
        assert bank.attributes == {"batch": 1, "types": len(small_identifier.labels)}

    def test_identify_batch_span_counts_outcomes(self, small_registry, small_identifier):
        probes = [fp for label in small_registry.labels for fp in small_registry.fingerprints(label)]
        provider = RecordingProvider()
        with use_provider(provider):
            results = small_identifier.identify_batch(probes)
        # One root per batch, one bank pass under it, one discrimination
        # span per multi-candidate fingerprint.
        (root,) = provider.tracer.records_named(names.SPAN_IDENTIFY)
        assert root.attributes == {
            "batch": len(probes),
            "unknown": sum(r.is_unknown for r in results),
            "discriminated": sum(r.used_discrimination for r in results),
        }
        assert root.attributes["discriminated"] > 0
        (bank,) = provider.tracer.records_named(names.SPAN_CLASSIFY_BANK)
        assert bank.attributes["batch"] == len(probes)
        discriminations = provider.tracer.records_named(names.SPAN_DISCRIMINATE)
        assert len(discriminations) == root.attributes["discriminated"]
        assert {d.parent_id for d in discriminations} == {root.span_id}

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
        # A single report is a batch of one: the batch span is the root.
        (root,) = provider.tracer.records_named(names.SPAN_SERVICE_BATCH)
        assert root.parent_id is None
        assert root.attributes == {"batch": 1}
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
