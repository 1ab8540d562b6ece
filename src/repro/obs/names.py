"""Canonical span and metric names — the single source of truth.

Instrumented modules import these constants instead of spelling string
literals; ``docs/observability.md``'s instrumentation table documents the
same set, and ``tools/check_obs_docs.py`` (run in CI) verifies the two
stay in lockstep in both directions.  Adding an instrumentation point
therefore means: add the constant here, use it at the call site, and add
a row to the docs table.

Naming conventions
------------------
* **Spans** are dotted paths mirroring the pipeline hierarchy
  (``identify.classify.bank`` nests under ``identify.classify`` nests
  under ``identify``).
* **Metrics** follow Prometheus conventions: ``snake_case``, a
  ``_total`` suffix on counters, base units in the name.  Dots are not
  legal in Prometheus metric names, so metric names never contain them.
"""

from __future__ import annotations

__all__ = [
    # spans
    "SPAN_IDENTIFY",
    "SPAN_CLASSIFY",
    "SPAN_CLASSIFY_BANK",
    "SPAN_DISCRIMINATE",
    "SPAN_EXTRACT",
    "SPAN_TRAIN_FIT",
    "SPAN_TRAIN_TYPE",
    "SPAN_SERVICE_BATCH",
    "SPAN_TRANSPORT_SUBMIT",
    "SPAN_TRANSPORT_ATTEMPT",
    "SPAN_GATEWAY_BATCH",
    "SPAN_HTTP_REQUEST",
    "SPAN_SHARD_ROUTE",
    # metrics
    "METRIC_PACKETS_SEEN",
    "METRIC_PACKETS_DROPPED",
    "METRIC_SESSIONS_OPENED",
    "METRIC_SESSIONS_COMPLETED",
    "METRIC_DETECTOR_FIRES",
    "METRIC_IDENTIFICATIONS",
    "METRIC_DISCRIMINATIONS",
    "METRIC_TYPES_TRAINED",
    "METRIC_REPORTS_HANDLED",
    "METRIC_DIRECTIVES",
    "METRIC_PACKET_INS",
    "METRIC_FLOW_MODS",
    "METRIC_SPAN_DURATION",
    "METRIC_TRANSPORT_RETRIES",
    "METRIC_TRANSPORT_FAULTS",
    "METRIC_BREAKER_TRANSITIONS",
    "METRIC_DEGRADED_DIRECTIVES",
    "METRIC_PENDING_REPORTS",
    "METRIC_REPORT_RECOVERIES",
    "METRIC_REFRESH_SKIPPED",
    "METRIC_MODEL_STORE_HITS",
    "METRIC_MODEL_STORE_MISSES",
    "METRIC_GATEWAY_BATCHES",
    "METRIC_COMPLETIONS_BUFFERED",
    "METRIC_HTTP_REQUESTS",
    "METRIC_HTTP_RATE_LIMITED",
    "METRIC_HTTP_AUTH_FAILURES",
    "METRIC_HTTP_CONNECTIONS",
    "METRIC_SHARD_REPORTS",
    "METRIC_FLEET_QUEUE_DEPTH",
    "METRIC_FLEET_QUEUE_DROPPED",
    "SPAN_NAMES",
    "METRIC_NAMES",
]

# --- spans -------------------------------------------------------------------

#: Both stages over one ``identify_batch`` call (Table IV "Type Identification").
SPAN_IDENTIFY = "identify"
#: Stage 1: the whole classifier-bank pass (Table IV "27 Classifications").
SPAN_CLASSIFY = "identify.classify"
#: One compiled-bank pass: every type's forest over the whole batch at once
#: (divided by its ``types`` attribute: Table IV "1 Classification").
SPAN_CLASSIFY_BANK = "identify.classify.bank"
#: Stage 2: edit-distance discrimination (Table IV "Discrimination").
SPAN_DISCRIMINATE = "identify.discriminate"
#: Packet records -> fingerprint (Table IV "Fingerprint extraction").
SPAN_EXTRACT = "extract.fingerprint"
#: Bulk-training the whole classifier bank (``DeviceIdentifier.fit``).
SPAN_TRAIN_FIT = "train.fit"
#: Training one device type's binary forest + reference selection.
SPAN_TRAIN_TYPE = "train.type"
#: One bare ``IoTSecurityService.handle_reports`` batch (shared stage-1
#: pass); a single ``handle_report`` is a batch of one.
SPAN_SERVICE_BATCH = "service.handle_reports"
#: One ``ResilientTransport.submit_many`` exchange (a whole batch), retries included.
SPAN_TRANSPORT_SUBMIT = "transport.submit"
#: One attempt within a resilient exchange (nests under ``transport.submit``).
SPAN_TRANSPORT_ATTEMPT = "transport.submit.attempt"
#: One ``SentinelModule.process_batch`` call over drained completions.
SPAN_GATEWAY_BATCH = "gateway.process_batch"
#: One HTTP request through the IoTSSP serving tier's router.
SPAN_HTTP_REQUEST = "service.http.request"
#: One sharded-front batch: routing, one identification pass, per-shard directives.
SPAN_SHARD_ROUTE = "service.shard.route"

# --- metrics -----------------------------------------------------------------

#: Every frame fed to ``DeviceMonitor.observe`` (Fig. 6 traffic overhead).
METRIC_PACKETS_SEEN = "monitor_packets_seen_total"
#: Frames the monitor discarded instead of feeding to a session, labelled
#: ``reason`` (``"clock"``: capture timestamp went backwards).
METRIC_PACKETS_DROPPED = "monitor_packets_dropped_total"
#: Profiling sessions opened, labelled ``mode="setup"|"standby"``.
METRIC_SESSIONS_OPENED = "monitor_sessions_opened_total"
#: Profiling sessions completed, labelled ``mode="setup"|"standby"``.
METRIC_SESSIONS_COMPLETED = "monitor_sessions_completed_total"
#: Completions triggered by the setup-phase detector (vs. forced ``flush``).
METRIC_DETECTOR_FIRES = "monitor_detector_fires_total"
#: Identifications, labelled ``outcome="known"|"unknown"``.
METRIC_IDENTIFICATIONS = "identify_identifications_total"
#: Stage-2 edit-distance tie-breaks (the Table III multi-match cases).
METRIC_DISCRIMINATIONS = "identify_discriminations_total"
#: Device-type classifiers trained (fit + incremental add_type).
METRIC_TYPES_TRAINED = "train_types_trained_total"
#: Fingerprint reports handled by the IoTSSP.
METRIC_REPORTS_HANDLED = "service_reports_handled_total"
#: Isolation directives issued, labelled ``level`` (Fig. 3 levels).
METRIC_DIRECTIVES = "service_directives_total"
#: Packet-in events punted to the controller (Fig. 6b/c CPU/memory driver).
METRIC_PACKET_INS = "sdn_packet_ins_total"
#: Flow-mods sent to the switch, labelled ``command="add"|"delete"`` (Fig. 6a).
METRIC_FLOW_MODS = "sdn_flow_mods_total"
#: Histogram of finished-span durations, labelled ``span=<span name>``;
#: recorded automatically by the recording provider.
METRIC_SPAN_DURATION = "span_duration_seconds"
#: Resilient-transport retries (backoffs actually slept).
METRIC_TRANSPORT_RETRIES = "transport_retries_total"
#: Submit attempt failures, labelled ``kind="error"|"timeout"|"fatal"|"circuit_open"``.
METRIC_TRANSPORT_FAULTS = "transport_faults_total"
#: Circuit-breaker state changes, labelled ``from_state``/``to_state``.
METRIC_BREAKER_TRANSITIONS = "transport_breaker_transitions_total"
#: Provisional STRICT quarantine directives issued while the IoTSSP is down.
METRIC_DEGRADED_DIRECTIVES = "gateway_degraded_directives_total"
#: Depth of the gateway's pending-report retry queue.
METRIC_PENDING_REPORTS = "gateway_pending_reports"
#: Pending reports finally accepted by the service (provisional → final).
METRIC_REPORT_RECOVERIES = "gateway_report_recoveries_total"
#: Directive-refresh sweep entries skipped because their submit failed.
METRIC_REFRESH_SKIPPED = "gateway_refresh_skipped_total"
#: Model-store lookups answered from a cached payload (retraining skipped).
METRIC_MODEL_STORE_HITS = "model_store_hits_total"
#: Model-store lookups that missed (absent, stale hash, or unreadable).
METRIC_MODEL_STORE_MISSES = "model_store_misses_total"
#: Profiling batches pushed through ``SentinelModule.process_batch``.
METRIC_GATEWAY_BATCHES = "gateway_profiling_batches_total"
#: Completed setup captures waiting in the monitor's drain buffer.
METRIC_COMPLETIONS_BUFFERED = "monitor_completions_buffered"
#: HTTP requests served, labelled ``endpoint``/``status``.
METRIC_HTTP_REQUESTS = "service_http_requests_total"
#: Requests rejected 429 by the per-gateway token bucket.
METRIC_HTTP_RATE_LIMITED = "service_http_rate_limited_total"
#: Requests rejected 401 (missing, unknown, or wrong API key).
METRIC_HTTP_AUTH_FAILURES = "service_http_auth_failures_total"
#: TCP connections the HTTP server accepted (kept-alive ones count once).
METRIC_HTTP_CONNECTIONS = "service_http_connections_total"
#: Fingerprint reports routed to each shard, labelled ``shard``.
METRIC_SHARD_REPORTS = "service_shard_reports_total"
#: Items sitting in fleet-gateway bounded queues, labelled ``stage``
#: (aggregated across gateways via deltas to keep cardinality bounded).
METRIC_FLEET_QUEUE_DEPTH = "fleet_queue_depth"
#: Items evicted by the drop-oldest overflow policy, labelled ``stage``.
METRIC_FLEET_QUEUE_DROPPED = "fleet_queue_dropped_total"

#: Every canonical span name (checked against the docs table by CI).
SPAN_NAMES = frozenset(
    {
        SPAN_IDENTIFY,
        SPAN_CLASSIFY,
        SPAN_CLASSIFY_BANK,
        SPAN_DISCRIMINATE,
        SPAN_EXTRACT,
        SPAN_TRAIN_FIT,
        SPAN_TRAIN_TYPE,
        SPAN_SERVICE_BATCH,
        SPAN_TRANSPORT_SUBMIT,
        SPAN_TRANSPORT_ATTEMPT,
        SPAN_GATEWAY_BATCH,
        SPAN_HTTP_REQUEST,
        SPAN_SHARD_ROUTE,
    }
)

#: Every canonical metric name (checked against the docs table by CI).
METRIC_NAMES = frozenset(
    {
        METRIC_PACKETS_SEEN,
        METRIC_PACKETS_DROPPED,
        METRIC_SESSIONS_OPENED,
        METRIC_SESSIONS_COMPLETED,
        METRIC_DETECTOR_FIRES,
        METRIC_IDENTIFICATIONS,
        METRIC_DISCRIMINATIONS,
        METRIC_TYPES_TRAINED,
        METRIC_REPORTS_HANDLED,
        METRIC_DIRECTIVES,
        METRIC_PACKET_INS,
        METRIC_FLOW_MODS,
        METRIC_SPAN_DURATION,
        METRIC_TRANSPORT_RETRIES,
        METRIC_TRANSPORT_FAULTS,
        METRIC_BREAKER_TRANSITIONS,
        METRIC_DEGRADED_DIRECTIVES,
        METRIC_PENDING_REPORTS,
        METRIC_REPORT_RECOVERIES,
        METRIC_REFRESH_SKIPPED,
        METRIC_MODEL_STORE_HITS,
        METRIC_MODEL_STORE_MISSES,
        METRIC_GATEWAY_BATCHES,
        METRIC_COMPLETIONS_BUFFERED,
        METRIC_HTTP_REQUESTS,
        METRIC_HTTP_RATE_LIMITED,
        METRIC_HTTP_AUTH_FAILURES,
        METRIC_HTTP_CONNECTIONS,
        METRIC_SHARD_REPORTS,
        METRIC_FLEET_QUEUE_DEPTH,
        METRIC_FLEET_QUEUE_DROPPED,
    }
)
