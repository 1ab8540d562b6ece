"""Stage-0 throughput: per-packet decoding vs. the columnar batch pipeline.

Measures the profile→verdict path over a synthetic fleet of devices
joining the network: capture records → ``DeviceMonitor`` → fingerprints →
``DeviceIdentifier.identify_batch`` verdicts.  The scalar pipeline
decodes one frame at a time and feeds :meth:`DeviceMonitor.observe`; the
batch pipeline parses each capture chunk once into a
:class:`~repro.packets.batch.PacketBatch` and sweeps it through
:meth:`DeviceMonitor.observe_batch`.  Both read their facts through the
same wire-level walk (``repro.packets.facts.frame_facts``), so the ratio
measures the vectorized feature assembly, not the parser.  Fingerprints must agree
byte-for-byte — any disagreement fails the run before a single timing is
reported (the same differential discipline ``bench_fleet.py`` applies to
the compiled classifier bank).

Run standalone (writes ``benchmarks/results/stage0.txt``)::

    PYTHONPATH=src python benchmarks/bench_stage0.py
    PYTHONPATH=src python benchmarks/bench_stage0.py --smoke

``--smoke`` uses the smallest fleet only, asserts fingerprint agreement,
and skips the results file and the speedup floor — CI's correctness gate.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.core import DeviceIdentifier, SetupPhaseDetector
from repro.devices import DEVICE_PROFILES, collect_dataset, simulate_setup_capture
from repro.gateway import DeviceMonitor
from repro.packets import PacketBatch, decode

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Fleet sizes (concurrently-joining devices per observation sweep).
FLEET_SIZES = (50, 200)
SMOKE_FLEET = 10
#: Records per observe_batch call — a gateway's capture ring read.
CHUNK = 256
#: Acceptance floor: batch stage-0 throughput vs. scalar at every fleet size.
MIN_SPEEDUP = 3.0


def _detector():
    return SetupPhaseDetector(idle_gap=2.0, min_packets=3)


def _fleet_capture(n_devices: int, seed: int):
    """One merged observation sweep: ``n_devices`` staggered setup captures."""
    records = []
    for i in range(n_devices):
        profile = DEVICE_PROFILES[i % len(DEVICE_PROFILES)]
        _, recs = simulate_setup_capture(
            profile, np.random.default_rng(seed + i), start_time=i * 0.05
        )
        records.extend(recs)
    records.sort(key=lambda r: r.timestamp)
    return records


def _scalar_sweep(records):
    monitor = DeviceMonitor(detector_factory=_detector, buffer_completions=True)
    for record in records:
        monitor.observe(record.timestamp, decode(record.data))
    for mac in list(monitor.profiling):
        monitor.flush(mac)
    return monitor.drain_completed()


def _batch_sweep(records):
    monitor = DeviceMonitor(detector_factory=_detector, buffer_completions=True)
    for i in range(0, len(records), CHUNK):
        monitor.observe_batch(PacketBatch.from_records(records[i : i + CHUNK]))
    for mac in list(monitor.profiling):
        monitor.flush(mac)
    return monitor.drain_completed()


def _best_of(repetitions: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repetitions)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(*, smoke: bool = False, repetitions: int = 3, seed: int = 5) -> dict:
    fleet_sizes = (SMOKE_FLEET,) if smoke else FLEET_SIZES

    # One trained identifier serves both pipelines: the verdict stage is
    # shared, the comparison isolates stage 0.
    registry = collect_dataset(DEVICE_PROFILES[:6], runs_per_device=8, seed=101)
    identifier = DeviceIdentifier(random_state=11).fit(registry)

    rows = []
    for n_devices in fleet_sizes:
        records = _fleet_capture(n_devices, seed)
        n_packets = len(records)

        scalar_events = _scalar_sweep(records)
        batch_events = _batch_sweep(records)
        scalar_fps = {e.device_mac: e.fingerprint.packets for e in scalar_events}
        batch_fps = {e.device_mac: e.fingerprint.packets for e in batch_events}
        if scalar_fps != batch_fps:
            raise AssertionError(
                f"batch pipeline fingerprints diverge from scalar at "
                f"{n_devices} devices"
            )

        t_scalar = _best_of(repetitions, lambda: _scalar_sweep(records))
        t_batch = _best_of(repetitions, lambda: _batch_sweep(records))

        # End to end: the same sweep plus one identify_batch verdict pass.
        fingerprints = [e.fingerprint for e in scalar_events]
        t_verdict = _best_of(
            repetitions, lambda: identifier.identify_batch(fingerprints)
        )

        rows.append(
            {
                "devices": n_devices,
                "packets": n_packets,
                "scalar_s": t_scalar,
                "batch_s": t_batch,
                "verdict_s": t_verdict,
                "speedup": t_scalar / t_batch,
                "e2e_speedup": (t_scalar + t_verdict) / (t_batch + t_verdict),
            }
        )

    lines = [
        "stage0 — fleet observation sweep, per-packet decode vs. columnar batch",
        f"chunk {CHUNK} records, best of {repetitions}, seed {seed}"
        + (" [smoke]" if smoke else ""),
        "",
        f"{'devices':>8}  {'packets':>8}  {'scalar':>10}  {'batch':>10}  "
        f"{'stage0 x':>9}  {'batch pkt/s':>12}  {'e2e x':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['devices']:>8}  {row['packets']:>8}  "
            f"{row['scalar_s'] * 1e3:>8.1f}ms  {row['batch_s'] * 1e3:>8.1f}ms  "
            f"{row['speedup']:>8.1f}x  {row['packets'] / row['batch_s']:>12.0f}  "
            f"{row['e2e_speedup']:>5.1f}x"
        )
    lines += [
        "",
        "stage0 x: records -> fingerprints (monitor sweep incl. parse).",
        "e2e x: the same sweep plus the shared identify_batch verdict pass.",
    ]
    return {
        "report": "\n".join(lines),
        "rows": rows,
        "min_speedup": min(row["speedup"] for row in rows),
    }


def test_stage0_batch_throughput(benchmark):
    """Pytest entry: regenerate the results artifact and hold the floor."""
    result = benchmark.pedantic(
        lambda: run_benchmark(repetitions=2), rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "stage0.txt").write_text(result["report"] + "\n")
    assert result["min_speedup"] >= MIN_SPEEDUP, result["report"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest fleet only, agreement assertions, no results file",
    )
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--output", default=None,
        help="results path (default benchmarks/results/stage0.txt; "
        "ignored with --smoke)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        smoke=args.smoke, repetitions=args.repetitions, seed=args.seed
    )
    print(result["report"])
    if not args.smoke:
        if result["min_speedup"] < MIN_SPEEDUP:
            print(f"\nFAIL: stage-0 speedup below {MIN_SPEEDUP}x")
            return 1
        output = Path(args.output) if args.output else RESULTS_DIR / "stage0.txt"
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(result["report"] + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
