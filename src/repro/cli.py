"""Command-line interface: the IoT Sentinel toolchain as a CLI.

Subcommands mirror the operational workflow:

* ``devices``  — list the catalogue of simulated device types
* ``simulate`` — run one device setup and write the capture to a pcap
* ``dataset``  — build a labelled fingerprint corpus (JSON)
* ``train``    — train the per-type classifier bank from a corpus
* ``identify`` — identify the device in a pcap with a trained model
* ``evaluate`` — cross-validate a corpus and print per-type accuracy
* ``obs``      — pretty-print a trace captured with ``--trace-out``
* ``faultsim`` — drive the gateway pipeline through a scripted IoTSSP
  outage (retries, circuit breaker, degraded-mode quarantine; see
  ``docs/robustness.md``)
* ``fleetsim`` — drive a sharded IoTSSP with a simulated gateway fleet
  (consistent-hash routing, bounded queues, backpressure policies; see
  ``docs/scaling.md``)
* ``serve``    — stand the IoTSSP up as a real HTTP service (report
  submission, directive lookup, type enrolment, live ``/metrics``; see
  ``docs/serving.md``)

``train`` and ``identify`` accept ``--trace-out``/``--metrics-out`` to
capture the run's spans (JSON-lines) and metrics (Prometheus text) — see
``docs/observability.md``.

Example session::

    iot-sentinel dataset --runs 20 --seed 7 --output corpus.json
    iot-sentinel train --corpus corpus.json --output model.npz
    iot-sentinel simulate --device iKettle2 --seed 3 --output kettle.pcap
    iot-sentinel identify --model model.npz --pcap kettle.pcap \\
        --trace-out trace.jsonl --metrics-out metrics.prom
    iot-sentinel obs --trace trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from repro.core import (
    DeviceIdentifier,
    DeviceTypeRegistry,
    ModelStore,
    fingerprint_from_records,
    warm_start_identifier,
)
from repro.core.persistence import (
    load_identifier,
    load_registry,
    save_identifier,
    save_registry,
)
from repro.devices import DEVICE_PROFILES, collect_dataset, profile_by_name, simulate_setup_capture
from repro.obs import (
    RecordingProvider,
    registry_to_prometheus,
    render_trace_tree,
    trace_from_jsonl,
    trace_to_jsonl,
    use_provider,
)
from repro.packets import decode, read_capture, write_pcap
from repro.reporting import crossvalidate_identification, render_accuracy_bars
from repro.securityservice import IoTSecurityService, seed_database
from repro.securityservice.assessment import assess_device_type

__all__ = ["main", "build_parser"]


@contextmanager
def _observed(args: argparse.Namespace):
    """Record spans/metrics for a command when exporter flags are set.

    With neither ``--trace-out`` nor ``--metrics-out`` the global no-op
    provider stays installed and the command runs uninstrumented.
    Exports are written even when the command fails partway — a trace of
    a failed run is exactly what an operator wants to look at.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield
        return
    provider = RecordingProvider()
    try:
        with use_provider(provider):
            yield
    finally:
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as handle:
                handle.write(trace_to_jsonl(provider.tracer.records()))
            print(f"wrote trace to {trace_out}", file=sys.stderr)
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                handle.write(registry_to_prometheus(provider.metrics))
            print(f"wrote metrics to {metrics_out}", file=sys.stderr)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's spans as JSON-lines (inspect with `iot-sentinel obs`)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics in Prometheus text format",
    )


def _cmd_devices(_args: argparse.Namespace) -> int:
    for profile in DEVICE_PROFILES:
        techs = [
            name
            for name in ("wifi", "zigbee", "ethernet", "zwave", "other")
            if getattr(profile.connectivity, name)
        ]
        group = f"  [confusion group: {profile.confusion_group}]" if profile.confusion_group else ""
        print(f"{profile.identifier:<20} {profile.model:<50} {','.join(techs)}{group}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = profile_by_name(args.device)
    rng = np.random.default_rng(args.seed)
    mac, records = simulate_setup_capture(profile, rng)
    write_pcap(args.output, records)
    print(f"device MAC: {mac}")
    print(f"wrote {len(records)} frames to {args.output}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    profiles = DEVICE_PROFILES
    if args.devices:
        wanted = set(args.devices)
        profiles = [p for p in DEVICE_PROFILES if p.identifier in wanted]
        missing = wanted - {p.identifier for p in profiles}
        if missing:
            print(f"error: unknown device types {sorted(missing)}", file=sys.stderr)
            return 1
    registry = collect_dataset(profiles, runs_per_device=args.runs, seed=args.seed)
    save_registry(registry, args.output)
    total = sum(registry.count(label) for label in registry.labels)
    print(f"wrote {total} fingerprints ({len(registry)} types) to {args.output}")
    return 0


def _trained_identifier(
    registry: DeviceTypeRegistry, args: argparse.Namespace
) -> DeviceIdentifier:
    """Train on ``registry``, or load the byte-identical model from ``--store``."""
    if not args.store:
        return DeviceIdentifier(random_state=args.seed).fit(registry)
    identifier, cache_hit = warm_start_identifier(
        registry, ModelStore(args.store), random_state=args.seed
    )
    print("model store: cache hit (training skipped)" if cache_hit
          else "model store: cache miss (trained and cached)")
    return identifier


def _loaded_identifier(path: str) -> DeviceIdentifier | None:
    """The model at ``path``, or None once the reason was printed."""
    try:
        return load_identifier(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_train(args: argparse.Namespace) -> int:
    registry = load_registry(args.corpus)
    with _observed(args):
        identifier = _trained_identifier(registry, args)
    save_identifier(identifier, args.output)
    print(f"trained {len(identifier.labels)} classifiers -> {args.output}")
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    identifier = _loaded_identifier(args.model)
    if identifier is None:
        return 1
    capture = read_capture(args.pcap)  # classic pcap or pcapng
    mac = args.mac
    if mac is None:
        if not capture.records:
            print("error: empty capture", file=sys.stderr)
            return 1
        mac = decode(capture.records[0].data).src_mac
        print(f"(inferred device MAC {mac} from the first frame)")
    with _observed(args):
        fingerprint = fingerprint_from_records(capture.records, mac)
        if len(fingerprint) == 0:
            print(f"error: no packets from {mac} in capture", file=sys.stderr)
            return 1
        result = identifier.identify(fingerprint)
    assessment = assess_device_type(result.label, seed_database())
    print(f"device type     : {result.label}")
    if result.candidates:
        print(f"matched by      : {', '.join(result.candidates)}")
    if result.used_discrimination:
        scores = ", ".join(f"{k}={v:.2f}" for k, v in sorted(result.scores.items()))
        print(f"dissimilarity   : {scores}")
    print(f"isolation level : {assessment.level.value}")
    if assessment.vulnerability_ids:
        print(f"vulnerabilities : {', '.join(assessment.vulnerability_ids)}")
    return 0


def _cmd_export_captures(args: argparse.Namespace) -> int:
    """Materialize the evaluation corpus as pcap files on disk.

    Produces the public equivalent of the paper's "dataset collected from
    our evaluation setup is available on request": one pcap per setup run,
    laid out as ``<out>/<DeviceType>/run_<NN>.pcap``.
    """
    from pathlib import Path

    out_dir = Path(args.output)
    rng = np.random.default_rng(args.seed)
    profiles = DEVICE_PROFILES
    if args.devices:
        wanted = set(args.devices)
        profiles = [p for p in DEVICE_PROFILES if p.identifier in wanted]
    total = 0
    for profile in profiles:
        type_dir = out_dir / profile.identifier
        type_dir.mkdir(parents=True, exist_ok=True)
        for run in range(args.runs):
            mac, records = simulate_setup_capture(profile, rng)
            if args.bidirectional:
                from repro.devices import bidirectional_capture

                records = bidirectional_capture(records)
            write_pcap(type_dir / f"run_{run:02d}.pcap", records)
            total += 1
    print(f"wrote {total} captures under {out_dir}")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    """Run a full collection campaign (pcaps + provenance manifest)."""
    from repro.labtools import CollectionCampaign

    profiles = DEVICE_PROFILES
    if args.devices:
        wanted = set(args.devices)
        profiles = [p for p in DEVICE_PROFILES if p.identifier in wanted]
    campaign = CollectionCampaign(
        args.output,
        profiles=profiles,
        runs_per_device=args.runs,
        seed=args.seed,
        bidirectional=not args.device_only,
    )
    manifest = campaign.run()
    summary = manifest.summary()
    print(
        f"{summary['total_runs']} runs / {summary['device_types']} types / "
        f"{summary['total_packets']} packets -> {args.output}"
    )
    problems = manifest.validate(args.output)
    if problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_script(args: argparse.Namespace) -> int:
    """Print the scripted setup instructions for one device type."""
    from repro.labtools import setup_script

    profile = profile_by_name(args.device)
    print(f"Setup script: {profile.vendor} {profile.model}\n")
    for step in setup_script(profile):
        marker = "   <- capture checkpoint" if step.expects_traffic else ""
        print(f"{step}{marker}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Pretty-print a JSON-lines trace captured with ``--trace-out``."""
    try:
        with open(args.trace, encoding="utf-8") as handle:
            records = trace_from_jsonl(handle.read())
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.span:
        records = [r for r in records if r.name == args.span]
    if not records:
        print("(no spans)")
        return 0
    print(render_trace_tree(records))
    durations = {}
    for record in records:
        durations.setdefault(record.name, []).append(record.duration * 1e3)
    print()
    print(f"{'span':<32} {'count':>6} {'total ms':>10} {'mean ms':>10}")
    for name in sorted(durations):
        values = durations[name]
        print(
            f"{name:<32} {len(values):>6} {sum(values):>10.3f} "
            f"{sum(values) / len(values):>10.3f}"
        )
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    """Full gateway pipeline under a scripted IoTSSP outage.

    A device joins, its setup is profiled, and the first ``--fail-submits``
    report submissions fail.  The device must land in provisional STRICT
    quarantine, then recover to the service's real directive via the
    periodic retry sweeps — with zero lost reports.  Exit status 1 if it
    does not (this is CI's fault-injection smoke check).
    """
    import json as _json

    from repro.gateway import SecurityGateway
    from repro.packets import builder
    from repro.sdn import IsolationLevel
    from repro.securityservice import (
        CircuitBreaker,
        DirectTransport,
        FaultInjectingTransport,
        IsolationDirective,
        ManualClock,
        ResilientTransport,
        RetryPolicy,
    )

    class _CannedService:
        """Stands in for the trained IoTSSP: always identifies the device."""

        def __init__(self) -> None:
            self.reports = 0

        def handle_reports(self, reports):
            self.reports += len(reports)
            return [
                IsolationDirective(device_type="demo-device", level=IsolationLevel.TRUSTED)
                for _ in reports
            ]

    clock = ManualClock()
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay=args.base_delay,
        multiplier=args.multiplier,
        max_delay=args.max_delay,
        jitter=args.jitter,
        attempt_timeout=args.attempt_timeout,
    )
    breaker = CircuitBreaker(
        failure_threshold=args.breaker_threshold, reset_timeout=args.breaker_reset
    )
    service = _CannedService()
    faulty = FaultInjectingTransport.failing(
        DirectTransport(service), args.fail_submits, clock=clock
    )
    transport = ResilientTransport(
        faulty, policy=policy, seed=args.seed, clock=clock, breaker=breaker
    )

    mac = "aa:00:00:00:00:01"
    ip = "192.168.1.20"
    timeline: list[tuple[float, str]] = []
    with _observed(args):
        gateway = SecurityGateway(transport)
        gateway.attach_device(mac)
        frames = [
            builder.dhcp_discover_frame(mac, 1, "demo"),
            builder.arp_probe_frame(mac, ip),
            builder.arp_announce_frame(mac, ip),
            builder.dns_query_frame(mac, gateway.gateway_mac, ip, "192.168.1.1", "c.example"),
            builder.https_client_hello_frame(mac, gateway.gateway_mac, ip, "52.10.0.1", "c.example"),
        ]
        now = 0.0
        for frame in frames:
            gateway.process_frame(mac, frame, now)
            now += 0.3
        # The idle gap closes the profiling session on the next packet,
        # which triggers the (failing) submit inside the pipeline.
        now += 30.0
        gateway.process_frame(mac, builder.arp_announce_frame(mac, ip), now)
        first = gateway.directive_for(mac)
        timeline.append(
            (now, f"profiled: level={first.level.value} type={first.device_type} "
                  f"provisional={first.provisional}")
        )
        sweeps_used = 0
        for sweep in range(1, args.sweeps + 1):
            final = gateway.directive_for(mac)
            if final is not None and not final.provisional:
                break
            now += args.sweep_interval
            sweeps_used = sweep
            changed = gateway.refresh_directives(now)
            queue = gateway.pending_report_count
            if changed:
                upgraded = gateway.directive_for(mac)
                timeline.append(
                    (now, f"sweep {sweep}: recovered -> level={upgraded.level.value} "
                          f"type={upgraded.device_type}; flow rules flushed")
                )
            else:
                timeline.append(
                    (now, f"sweep {sweep}: still degraded (queue depth {queue}, "
                          f"breaker {transport.breaker.state.value})")
                )

    final = gateway.directive_for(mac)
    ok = (
        final is not None
        and not final.provisional
        and gateway.pending_report_count == 0
        and service.reports >= 1
    )
    summary = {
        "ok": ok,
        "fail_submits": args.fail_submits,
        "seed": args.seed,
        "first_directive_provisional": bool(first.provisional),
        "final_level": final.level.value if final else None,
        "final_type": final.device_type if final else None,
        "sweeps_used": sweeps_used,
        "submits": transport.submits,
        "attempts": transport.attempts,
        "faults_injected": faulty.faults_injected,
        "retry_schedule": [round(d, 6) for d in transport.backoff_log],
        "breaker_transitions": [
            {"from": old.value, "to": new.value, "at": round(at, 3)}
            for old, new, at in transport.breaker.transitions
        ],
        "pending_reports": gateway.pending_report_count,
        "reports_accepted": service.reports,
    }
    if args.json:
        print(_json.dumps(summary, indent=2))
    else:
        for at, message in timeline:
            print(f"t={at:8.2f}  {message}")
        print()
        print(f"retry schedule (seed={args.seed}): "
              + ", ".join(f"{d:.3f}s" for d in transport.backoff_log))
        for old, new, at in transport.breaker.transitions:
            print(f"breaker: {old.value} -> {new.value} at t={at:.2f}")
        print(f"submits={transport.submits} attempts={transport.attempts} "
              f"faults={faulty.faults_injected} accepted={service.reports}")
        print("outcome: " + ("recovered, zero lost reports" if ok else "NOT recovered"))
    return 0 if ok else 1


def _cmd_fleetsim(args: argparse.Namespace) -> int:
    """Simulated gateway fleet against a sharded IoTSSP.

    Trains an N-shard :class:`ShardedSecurityService` (warm-started from
    a shared model store when ``--store`` is given) and streams
    ``--devices`` simulated devices through bounded gateway pipelines,
    printing sustained identifications/sec, p50/p99 directive latency,
    and the drop/stall counts the chosen overflow policy produced.
    """
    import json as _json

    from repro.devices import collect_fingerprints
    from repro.netsim import FleetSimulator, OverflowPolicy
    from repro.securityservice import DirectTransport, ShardedSecurityService

    rng = np.random.default_rng(args.seed)
    names = args.types or [
        "Aria", "HueBridge", "WeMoSwitch", "EdnetGateway",
        "MAXGateway", "EdimaxCam", "HomeMaticPlug", "Lightify",
    ]
    registry = DeviceTypeRegistry()
    pool = {}
    for name in names:
        fingerprints = collect_fingerprints(profile_by_name(name), runs=args.runs, rng=rng)
        registry.add_many(name, fingerprints)
        pool[name] = fingerprints[: max(1, args.runs // 2)]

    store = ModelStore(args.store) if args.store else None
    with _observed(args):
        front = ShardedSecurityService(args.shards, store=store, random_state=args.seed)
        front.train(registry)
        simulator = FleetSimulator(
            DirectTransport(front),
            pool,
            num_devices=args.devices,
            devices_per_gateway=args.devices_per_gateway,
            queue_capacity=args.capacity,
            policy=OverflowPolicy(args.policy),
            arrivals_per_round=args.arrival_rate,
        )
        stats = simulator.run()

    summary = {
        "devices": stats.devices,
        "gateways": stats.gateways,
        "shards": front.num_shards,
        "policy": args.policy,
        "processed": stats.processed,
        "dropped": stats.dropped,
        "stalled": stats.stalled_devices,
        "accuracy": round(stats.accuracy, 4),
        "ids_per_sec": round(stats.ids_per_sec, 1),
        "p50_latency_ms": round(stats.p50_latency_s * 1e3, 3),
        "p99_latency_ms": round(stats.p99_latency_s * 1e3, 3),
        "warm_start_hits": front.cache_hits,
    }
    if args.json:
        print(_json.dumps(summary, indent=2))
    else:
        print(
            f"{stats.devices:,} devices across {stats.gateways:,} gateways "
            f"-> {front.num_shards} shards ({args.policy})"
        )
        print(
            f"processed {stats.processed:,} (accuracy {stats.accuracy:.1%}), "
            f"dropped {stats.dropped:,}, stalled {stats.stalled_devices:,}"
        )
        print(
            f"sustained {stats.ids_per_sec:,.0f} ids/sec, directive latency "
            f"p50 {stats.p50_latency_s * 1e3:.2f} ms / "
            f"p99 {stats.p99_latency_s * 1e3:.2f} ms"
        )
    return 0 if stats.processed else 1


def _serving_service(args: argparse.Namespace) -> IoTSecurityService | None:
    """The IoTSSP ``serve`` exposes: the model and the corpus it trained on.

    ``--model`` serves a model file without a corpus, so the service
    identifies but cannot enrol; ``--corpus`` trains (or warm-starts from
    ``--store``) and keeps the corpus for enrolment.  None once a load
    error was printed.
    """
    if args.model:
        identifier = _loaded_identifier(args.model)
        if identifier is None:
            return None
        registry = DeviceTypeRegistry()
        print(f"loaded model with {len(identifier.labels)} types from {args.model}")
    else:
        registry = load_registry(args.corpus)
        identifier = _trained_identifier(registry, args)
        print(f"trained {len(identifier.labels)} types from {args.corpus}")
    service = IoTSecurityService(identifier=identifier)
    service.adopt_model(registry, identifier.snapshot)
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the IoTSSP over HTTP until interrupted (``docs/serving.md``)."""
    import time as _time

    from repro.securityservice.http import (
        ApiKeyRegistry,
        GatewayRateLimiter,
        SecurityServiceHTTPServer,
        ServiceApp,
    )
    from repro.securityservice.http.server import DEFAULT_MAX_SPAN_RECORDS

    service = _serving_service(args)
    if service is None:
        return 1
    auth = ApiKeyRegistry.from_file(args.api_keys) if args.api_keys else ApiKeyRegistry()
    limiter = None
    if args.rate > 0:
        limiter = GatewayRateLimiter(args.rate, args.burst, clock=_time.monotonic)
    app = ServiceApp(service, auth=auth, limiter=limiter)
    server = SecurityServiceHTTPServer(
        app,
        args.host,
        args.port,
        provider=RecordingProvider(
            max_span_records=args.max_span_records or DEFAULT_MAX_SPAN_RECORDS
        ),
    )
    mode = "open (no API keys)" if auth.open else f"{len(auth.gateway_ids)} gateway keys"
    limits = (
        f"{args.rate:g} req/s (burst {args.burst:g}) per gateway"
        if limiter is not None else "disabled"
    )
    print(f"IoTSSP serving on {server.base_url}")
    print(f"  auth       : {mode}")
    print(f"  rate limit : {limits}")
    print(f"  try        : curl {server.base_url}/healthz")
    print(f"               curl {server.base_url}/metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    registry = load_registry(args.corpus)
    result = crossvalidate_identification(
        registry, n_splits=args.folds, repetitions=args.repetitions, seed=args.seed
    )
    print(render_accuracy_bars(dict(sorted(result.per_class().items()))))
    print(f"\nglobal accuracy: {result.global_accuracy:.3f}")
    print(f"multi-match rate: {result.multi_match_fraction:.0%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iot-sentinel",
        description="IoT Sentinel reproduction: device-type identification toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated device-type catalogue")

    p_sim = sub.add_parser("simulate", help="simulate one device setup into a pcap")
    p_sim.add_argument("--device", required=True, help="device type identifier (see `devices`)")
    p_sim.add_argument("--output", required=True, help="pcap output path")
    p_sim.add_argument("--seed", type=int, default=None)

    p_data = sub.add_parser("dataset", help="build a labelled fingerprint corpus")
    p_data.add_argument("--runs", type=int, default=20, help="setup runs per device type")
    p_data.add_argument("--seed", type=int, default=None)
    p_data.add_argument("--output", required=True, help="corpus JSON output path")
    p_data.add_argument(
        "--devices", nargs="+", default=None,
        help="restrict to these device types (default: all 27)",
    )

    p_train = sub.add_parser("train", help="train the classifier bank")
    p_train.add_argument("--corpus", required=True, help="corpus JSON from `dataset`")
    p_train.add_argument("--output", required=True, help="model file output path (npz)")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument(
        "--store", default=None, metavar="DIR",
        help="warm-start model store directory: skip training when a "
        "cached model matches the corpus content hash, cache it otherwise",
    )
    _add_obs_flags(p_train)

    p_id = sub.add_parser("identify", help="identify the device in a pcap")
    p_id.add_argument("--model", required=True, help="model file from `train`")
    p_id.add_argument("--pcap", required=True, help="capture of the device's setup")
    p_id.add_argument("--mac", default=None, help="device MAC (default: first frame's source)")
    _add_obs_flags(p_id)

    p_export = sub.add_parser(
        "export-captures", help="materialize the evaluation corpus as pcaps"
    )
    p_export.add_argument("--output", required=True, help="output directory")
    p_export.add_argument("--runs", type=int, default=20)
    p_export.add_argument("--seed", type=int, default=None)
    p_export.add_argument("--devices", nargs="+", default=None)
    p_export.add_argument(
        "--bidirectional", action="store_true",
        help="include the environment's responses (DHCP offers, ARP replies, ...)",
    )

    p_collect = sub.add_parser(
        "collect", help="run a collection campaign with a provenance manifest"
    )
    p_collect.add_argument("--output", required=True, help="dataset directory")
    p_collect.add_argument("--runs", type=int, default=20)
    p_collect.add_argument("--seed", type=int, default=None)
    p_collect.add_argument("--devices", nargs="+", default=None)
    p_collect.add_argument(
        "--device-only", action="store_true",
        help="omit the environment's response frames",
    )

    p_script = sub.add_parser("script", help="show a device type's setup script")
    p_script.add_argument("--device", required=True)

    p_eval = sub.add_parser("evaluate", help="cross-validate a corpus")
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--folds", type=int, default=10)
    p_eval.add_argument("--repetitions", type=int, default=1)
    p_eval.add_argument("--seed", type=int, default=None)

    p_obs = sub.add_parser("obs", help="pretty-print a captured span trace")
    p_obs.add_argument("--trace", required=True, help="JSON-lines trace from --trace-out")
    p_obs.add_argument("--span", default=None, help="show only spans with this name")

    p_fault = sub.add_parser(
        "faultsim", help="run the gateway pipeline through a scripted IoTSSP outage"
    )
    p_fault.add_argument(
        "--fail-submits", type=int, default=6,
        help="number of report submissions that fail before the service recovers",
    )
    p_fault.add_argument("--seed", type=int, default=0, help="backoff-jitter seed")
    p_fault.add_argument("--max-attempts", type=int, default=3, help="tries per submit call")
    p_fault.add_argument("--base-delay", type=float, default=0.5, help="first backoff, seconds")
    p_fault.add_argument("--multiplier", type=float, default=2.0, help="backoff growth factor")
    p_fault.add_argument("--max-delay", type=float, default=30.0, help="backoff cap, seconds")
    p_fault.add_argument("--jitter", type=float, default=0.1, help="jitter fraction [0,1)")
    p_fault.add_argument(
        "--attempt-timeout", type=float, default=5.0, help="per-attempt latency budget, seconds"
    )
    p_fault.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive failures before the circuit opens",
    )
    p_fault.add_argument(
        "--breaker-reset", type=float, default=30.0,
        help="seconds an open circuit waits before a half-open probe",
    )
    p_fault.add_argument(
        "--sweep-interval", type=float, default=60.0,
        help="simulated seconds between periodic retry sweeps",
    )
    p_fault.add_argument("--sweeps", type=int, default=10, help="maximum retry sweeps to run")
    p_fault.add_argument("--json", action="store_true", help="machine-readable summary")
    _add_obs_flags(p_fault)

    p_fleet = sub.add_parser(
        "fleetsim", help="drive a sharded IoTSSP with a simulated gateway fleet"
    )
    p_fleet.add_argument("--devices", type=int, default=10_000, help="fleet size")
    p_fleet.add_argument("--shards", type=int, default=4, help="IoTSSP shard count")
    p_fleet.add_argument(
        "--devices-per-gateway", type=int, default=200, help="devices behind each gateway"
    )
    p_fleet.add_argument(
        "--capacity", type=int, default=64, help="bounded-queue capacity per pipeline hop"
    )
    p_fleet.add_argument(
        "--policy", choices=["drop-oldest", "block"], default="drop-oldest",
        help="overflow policy for full queues",
    )
    p_fleet.add_argument(
        "--arrival-rate", type=int, default=64,
        help="profiling completions arriving per pipeline pass "
        "(raise past --capacity to force overload)",
    )
    p_fleet.add_argument(
        "--types", nargs="+", default=None, help="device types to simulate"
    )
    p_fleet.add_argument("--runs", type=int, default=8, help="training runs per type")
    p_fleet.add_argument(
        "--store", default=None, metavar="DIR",
        help="shared model store: train one shard, warm-start the rest",
    )
    p_fleet.add_argument("--seed", type=int, default=3)
    p_fleet.add_argument("--json", action="store_true", help="machine-readable summary")
    _add_obs_flags(p_fleet)

    p_serve = sub.add_parser(
        "serve", help="serve the IoTSSP over HTTP (see docs/serving.md)"
    )
    source = p_serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", help="corpus JSON from `dataset` (train at startup)")
    source.add_argument("--model", help="model file from `train` (skip training; enrolment is refused)")
    p_serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="with --corpus: warm-start model store (skip training on a "
        "content-hash cache hit)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8799, help="0 = ephemeral")
    p_serve.add_argument("--seed", type=int, default=None)
    p_serve.add_argument(
        "--api-keys", default=None, metavar="FILE",
        help='JSON {"gateway_id": "key"} table; omit to serve open',
    )
    p_serve.add_argument(
        "--rate", type=float, default=50.0,
        help="per-gateway sustained tokens/second (<= 0 disables limiting); "
        "batch submits cost one token per report",
    )
    p_serve.add_argument(
        "--burst", type=float, default=100.0, help="per-gateway bucket capacity"
    )
    p_serve.add_argument(
        "--max-span-records", type=int, default=None,
        help="span ring-buffer bound for /metrics' recording provider",
    )

    return parser


_COMMANDS = {
    "devices": _cmd_devices,
    "simulate": _cmd_simulate,
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "identify": _cmd_identify,
    "export-captures": _cmd_export_captures,
    "collect": _cmd_collect,
    "script": _cmd_script,
    "evaluate": _cmd_evaluate,
    "obs": _cmd_obs,
    "faultsim": _cmd_faultsim,
    "fleetsim": _cmd_fleetsim,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
