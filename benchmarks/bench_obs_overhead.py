"""Obs overhead harness — the no-op provider must stay near-free.

Every instrumentation point in the pipeline delegates to the global
observability provider; by default that is the no-op provider, so the
cost of *having* instrumentation is one delegating call returning an
inert singleton.  This harness pins that contract from two angles:

* **micro** — ns/op for a no-op span enter/exit and a no-op counter
  increment, next to their recording-provider equivalents;
* **macro** — identify throughput on a small corpus under the no-op
  provider vs. under a recording provider.

Run standalone (writes ``benchmarks/results/obs_overhead.txt``)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

``--smoke`` runs a reduced iteration count, asserts the *functional*
no-op contract (nothing recorded globally, recording provider sees the
documented spans), prints the report, and skips the results file — CI
uses it as a correctness gate that never fails on timing.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.core import DeviceIdentifier
from repro.devices import DEVICE_PROFILES, collect_dataset
from repro.obs import (
    NOOP_PROVIDER,
    RecordingProvider,
    counter,
    get_provider,
    names,
    span,
    use_provider,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE_PROFILE_NAMES = (
    "Aria", "HueBridge", "TP-LinkPlugHS110", "TP-LinkPlugHS100",
)


def _ns_per_op(fn, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations * 1e9


def _span_op() -> None:
    with span("bench.noop", probe=1):
        pass


def _counter_op() -> None:
    counter("bench_noop_total").inc()


def run_benchmark(*, smoke: bool = False, seed: int = 7) -> dict:
    iterations = 20_000 if smoke else 200_000

    # --- micro: instrument op cost, no-op vs recording -----------------------
    assert get_provider() is NOOP_PROVIDER, "benchmark must start uninstrumented"
    noop_span_ns = _ns_per_op(_span_op, iterations)
    noop_counter_ns = _ns_per_op(_counter_op, iterations)
    with use_provider(RecordingProvider(record_span_durations=False)):
        recording_span_ns = _ns_per_op(_span_op, iterations)
        recording_counter_ns = _ns_per_op(_counter_op, iterations)

    # --- macro: identify throughput, no-op vs recording ----------------------
    profile_names = SMOKE_PROFILE_NAMES if smoke else tuple(
        p.identifier for p in DEVICE_PROFILES[:8]
    )
    profiles = [p for p in DEVICE_PROFILES if p.identifier in profile_names]
    registry = collect_dataset(
        profiles, runs_per_device=6 if smoke else 12, seed=seed
    )
    fps = [fp for label in registry.labels for fp in registry.fingerprints(label)]
    identifier = DeviceIdentifier(random_state=23).fit(registry)
    identifier.identify_batch(fps)  # warm the fingerprint caches once

    start = time.perf_counter()
    noop_results = identifier.identify_batch(fps)
    noop_elapsed = time.perf_counter() - start

    recording = RecordingProvider()
    with use_provider(recording):
        start = time.perf_counter()
        recording_results = identifier.identify_batch(fps)
        recording_elapsed = time.perf_counter() - start

    # --- the functional no-op contract ---------------------------------------
    labels_agree = [r.label for r in noop_results] == [
        r.label for r in recording_results
    ]
    if not labels_agree:
        raise AssertionError("recording a run must never change its results")
    recorded_names = {r.name for r in recording.tracer.records()}
    expected = {names.SPAN_IDENTIFY, names.SPAN_CLASSIFY_BANK}
    if not expected <= recorded_names:
        raise AssertionError(
            f"recording provider missed documented spans: {expected - recorded_names}"
        )
    if get_provider() is not NOOP_PROVIDER:
        raise AssertionError("use_provider must restore the no-op provider")

    report = "\n".join(
        [
            "obs_overhead — no-op provider cost (micro ns/op + macro identify)",
            f"iterations: {iterations}, corpus: {len(registry)} types x "
            f"{len(fps)} fingerprints" + (" [smoke]" if smoke else ""),
            "",
            f"span enter/exit   no-op: {noop_span_ns:8.0f} ns/op   "
            f"recording: {recording_span_ns:8.0f} ns/op",
            f"counter inc       no-op: {noop_counter_ns:8.0f} ns/op   "
            f"recording: {recording_counter_ns:8.0f} ns/op",
            "",
            f"identify_batch    no-op: {noop_elapsed:8.3f} s "
            f"({len(fps) / noop_elapsed:7.1f} fp/s)",
            f"identify_batch recording: {recording_elapsed:6.3f} s "
            f"({len(fps) / recording_elapsed:7.1f} fp/s)",
            f"recording overhead: "
            f"{(recording_elapsed / noop_elapsed - 1) * 100:+.1f}%",
            "",
            f"label agreement no-op vs recording: {labels_agree}",
            f"documented spans observed: {sorted(expected)}",
        ]
    )
    return {
        "report": report,
        "noop_span_ns": noop_span_ns,
        "noop_counter_ns": noop_counter_ns,
        "noop_elapsed": noop_elapsed,
        "recording_elapsed": recording_elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced iterations, functional assertions only, no results file",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", default=None,
        help="results path (default benchmarks/results/obs_overhead.txt; "
        "ignored with --smoke)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(smoke=args.smoke, seed=args.seed)
    print(result["report"])
    if not args.smoke:
        output = Path(args.output) if args.output else RESULTS_DIR / "obs_overhead.txt"
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(result["report"] + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
