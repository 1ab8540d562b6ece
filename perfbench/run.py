"""Run one benchmark workload, or repeat one and summarise the spread.

One run::

    python3 perfbench/run.py --workload iotssp_bank --seed 1 --seconds 20 --trace 0

prints a table of every metric with its unit and sample count, an
``info`` line (model key and digest, drift probe, distinct inputs), and
as its last line the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a traced run whose
timed phase alternates untraced and traced segments (their ratio is
``trace.overhead``) and writes the spans under ``perfbench/.cache``.
The exit code is 1 when any correctness check failed.

``--workload all`` runs the three workloads one after another, each in
a fresh process, prints all their reports, and ends with one line
holding every workload's result object.

Repeat mode::

    python3 perfbench/run.py --workload iotssp_bank --repeat 10 --seconds 20

runs the workload once per seed (``--seed``, ``--seed + 1``, ...) in
fresh processes and prints each metric's median, quartiles and relative
spread (IQR / median) beside the spread of the unscaled values, the
speed factor of each run, and whether the model was the same in every
run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    LAYERS,
    RATIO_UNITS,
    Tracer,
    layer_metrics,
    link_remote,
    load_spans,
    write_spans,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ids_per_s": ("ids/s", "higher"),
    "id_p50_ms": ("ms", "lower"),
    "id_p99_ms": ("ms", "lower"),
    "accuracy": ("share", "higher"),
    "rss_mb": ("MB", "lower"),
    "enroll_p50_ms": ("ms", "lower"),
}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "higher")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.share"] = ("share", "lower")
    PER_LAYER[f"{_layer}.p50_us"] = ("us", "lower")
PER_LAYER.update(RATIO_UNITS)
PER_LAYER["sdn.fwd_pkts_per_s"] = ("frames/s", "higher")
PER_LAYER["trace.overhead"] = ("share", "lower")

#: Traced runs alternate untraced and traced segments, this many each.
TRACE_SEGMENTS = 2
#: The timed loop runs in slices of this many seconds, each followed by
#: a drift probe of ``PROBE_S`` seconds that is not timed.
SLICE_S = 1.0
PROBE_S = 0.03

#: Layers predicted to take the most self time in each timed phase.
PREDICTED = {
    "home_gateway": ("sdn.switch", "sdn.controller", "gateway.sentinel", "gateway.monitor"),
    "iotssp_bank": ("ml.bank", "core.discriminate"),
    "iotssp_http": ("securityservice.http.client", "securityservice.http.app"),
}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, int]:
    """One run; returns (result object, info, exit code)."""
    workload = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    workload.tracing = trace
    setups, probes = [], []
    try:
        for _ in range(common.SETUP_REPS):
            if tracer:
                tracer.install()
            setups.append(workload.setup())
            if tracer:
                tracer.uninstall()
        workload.warm_up()
        cpu = common.cpu_times()
        segments = _timed_phase(workload, seconds, tracer, probes)
        steal = common.steal_share(cpu, common.cpu_times())
        rss = workload.peak_rss_mb()
        workload.verify()
    finally:
        workload.close()

    untraced = [s for s in segments if not s["traced"]]
    ids = sum(s["ids"] for s in untraced)
    wall = sum(s["seconds"] for s in untraced)
    latencies = [ns / 1e6 for ns in workload.latencies_ns]
    samples = {
        "setup_s": len(setups),
        "ids_per_s": ids,
        "id_p50_ms": len(latencies),
        "id_p99_ms": len(latencies),
        "accuracy": workload.ids,
        "rss_mb": 1,
        "enroll_p50_ms": len(workload.enroll_ns),
    }
    info = {
        "workload": name,
        "seed": seed,
        "model_key": common.model_key(
            common.registry_from(
                workload.lab["base"],
                common.BASE_HTTP_TYPES if name == "iotssp_http" else common.ALL_TYPES,
            )
        ),
        "model_digests": sorted(workload.digests),
        "drift_loops_per_s": common.median(probes),
        "speed_factor": common.speed_factor(probes),
        "cpu_steal_share": steal,
        "distinct_fingerprints": common.distinct_contents(workload.used.values()),
        "identifications": workload.ids,
        "timed_s": sum(s["seconds"] for s in segments),
        "samples": samples,
        "failures": workload.checks.notes,
        **workload.info(),
    }
    checks = workload.checks
    correct = checks.failed == 0 and len(workload.digests) == 1 and workload.ids > 0
    if trace:
        metrics, info["dominant"] = _layer_metrics(workload, tracer, segments)
    else:
        raw = {
            "setup_s": common.median(setups),
            "ids_per_s": ids / wall,
            "id_p50_ms": common.percentile(latencies, 50),
            "id_p99_ms": common.percentile(latencies, 99),
            "accuracy": workload.correct / workload.ids,
            "rss_mb": rss,
            "enroll_p50_ms": common.median(workload.enroll_ns) / 1e6,
        }
        info["raw"] = raw
        values = _at_reference_speed(raw, info["speed_factor"])
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, info, 0 if correct else 1


def _at_reference_speed(raw: dict, speed: float) -> dict:
    """Scale the time-based metrics to the VM's reference speed.

    A shared VM's speed can drift by a third over minutes, far more than
    a run averages out.  The drift probe interleaved with the run tracks
    it, and it runs no code from ``src/``, so dividing it out removes the
    machine's drift and keeps every change to the program.  The cold
    starts run seconds before the timed phase, so they share its factor:
    short probes around them alone would track the machine less well.
    """
    scaled = dict(raw)
    scaled["ids_per_s"] = raw["ids_per_s"] / speed
    for name in ("setup_s", "id_p50_ms", "id_p99_ms", "enroll_p50_ms"):
        scaled[name] = raw[name] * speed
    return scaled


def _timed_phase(
    workload, seconds: float, tracer: Tracer | None, probes: list[float]
) -> list[dict]:
    """Run the closed loop; traced runs alternate untraced/traced segments.

    The loop runs in slices of ``SLICE_S``; a short drift probe follows
    each slice, outside the timed segments, and lands in ``probes``.
    """
    plan = [False, True] * TRACE_SEGMENTS if tracer else [False]
    length = seconds / len(plan)
    segments = []
    workload.begin()
    for traced in plan:
        segments.append(_segment(workload, length, tracer if traced else None, probes))
    while not workload.done():
        segments.append(_segment(workload, SLICE_S, None, probes))
    workload.end()
    return segments


def _segment(workload, length: float, tracer: Tracer | None, probes: list[float]) -> dict:
    ids, frames, frame_ns = workload.ids, workload.data_frames, workload.data_ns
    if tracer:
        tracer.install()
        workload.set_remote_tracing(True)
    start = time.perf_counter_ns()
    busy, own_probes = 0, []
    while busy < length * 1e9:
        slice_start = time.perf_counter_ns()
        workload.run(slice_start / 1e9 + min(SLICE_S, length - busy / 1e9))
        busy += time.perf_counter_ns() - slice_start
        own_probes.append(common.drift_probe(PROBE_S))
    end = time.perf_counter_ns()
    probes += own_probes
    if tracer:
        workload.set_remote_tracing(False)
        tracer.uninstall()
    return {
        "traced": tracer is not None,
        "seconds": busy / 1e9,
        "speed": common.speed_factor(own_probes),
        "span_ns": (start, end),
        "ids": workload.ids - ids,
        "frames": workload.data_frames - frames,
        "frame_ns": workload.data_ns - frame_ns,
    }


def _layer_metrics(workload, tracer: Tracer, segments: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics over everything traced, and the timed phase's top layers."""
    spans, counts = list(tracer.spans), tracer.counts.copy()
    for path in getattr(workload, "trace_files", []):
        remote, remote_counts = load_spans(path)
        spans += link_remote(tracer.spans, remote)
        counts.update(remote_counts)
    values = layer_metrics(spans, counts, tracer.traced_ns / 1e9)

    def rate(traced: bool) -> float:
        """Identifications per second at reference speed, over these segments."""
        chosen = [s for s in segments if s["traced"] is traced]
        speed = common.median([s["speed"] for s in chosen])
        return sum(s["ids"] for s in chosen) / sum(s["seconds"] for s in chosen) / speed

    untraced = [s for s in segments if not s["traced"]]
    frame_ns = sum(s["frame_ns"] for s in untraced)
    values["trace.overhead"] = 1.0 - rate(True) / rate(False)
    values["sdn.fwd_pkts_per_s"] = (
        1e9 * sum(s["frames"] for s in untraced) / frame_ns if frame_ns else 0.0
    )
    trace_path = common.CACHE_DIR / f"trace-{workload.name}-s{workload.seed}.jsonl"
    write_spans(trace_path, spans, counts, tracer.traced_ns)
    metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    return metrics, _dominant(workload.name, spans, counts, segments)


def _dominant(name: str, spans: list, counts, segments: list[dict]) -> dict:
    """Layers by self time within the traced segments of the timed phase."""
    windows = [s["span_ns"] for s in segments if s["traced"]]
    inside = [s for s in spans if any(lo <= s[4] < hi for lo, hi in windows)]
    seconds = sum(s["seconds"] for s in segments if s["traced"])
    values = layer_metrics(inside, counts, seconds)
    shares = {layer: values[f"{layer}.share"] for layer in LAYERS}
    ranked = sorted(shares, key=shares.get, reverse=True)
    return {
        "top": [(layer, round(shares[layer], 4)) for layer in ranked[:4]],
        "predicted": PREDICTED[name],
        "match": ranked[0] in PREDICTED[name],
    }


def _print_report(result: dict, info: dict) -> None:
    samples = info["samples"]
    print(f"workload {info['workload']}  seed {info['seed']}  timed {info['timed_s']:.2f} s")
    for name, metric in result["metrics"].items():
        count = samples.get(name, "")
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']:<16} n={count}")
    if "fwd_pkts_per_s" in info:
        print(f"  {'fwd_pkts_per_s':<52} {info['fwd_pkts_per_s']:>14.6g} frames/s"
              f"{'':<8} n={info['fwd_frames']}")
    if "dominant" in info:
        dominant = info["dominant"]
        verdict = "matches" if dominant["match"] else "DOES NOT MATCH"
        print(f"  timed-phase self-time shares {dominant['top']}: {verdict} "
              f"the prediction {list(dominant['predicted'])}")
    for note in info["failures"]:
        print(f"  FAILED: {note}")
    print("info " + json.dumps(info, sort_keys=True))


def _run_child(args, workload: str, seed: int) -> tuple[int, list[str]]:
    """One run in a fresh process; returns its exit code and output lines."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    out = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if out.returncode and not out.stdout.strip():
        sys.stderr.write(out.stderr)
    return out.returncode, out.stdout.strip().splitlines()


def run_all(args) -> int:
    """Every workload once, each in a fresh process; prints all their reports."""
    results, code = {}, 0
    for name in WORKLOADS:
        status, lines = _run_child(args, name, args.seed)
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or status or int(results[name] is None)
    print(json.dumps(results))
    return code


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times in fresh processes; summarise."""
    runs, crashed = [], 0
    for i in range(args.repeat):
        seed = args.seed + i
        status, lines = _run_child(args, args.workload, seed)
        infos = [json.loads(x[5:]) for x in lines if x.startswith("info ")]
        if not infos:
            crashed += 1
            print(f"seed {seed}: exit {status}, no result", flush=True)
            continue
        info, result = infos[0], json.loads(lines[-1])
        runs.append((seed, result, info))
        values = "  ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items() if k in END_TO_END
        )
        print(f"seed {seed}: exit {status}  correct {result['correct']}  "
              f"failed {result['failed']}/{result['attempted']}  "
              f"speed {info['speed_factor']:.3f}  "
              f"steal {info['cpu_steal_share']:.3f}  {values}", flush=True)
    if not runs:
        return 1
    summary = {}
    print(f"{'metric':<52} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'raw':>8}")
    for name in runs[0][1]["metrics"]:
        q1, med, q3 = _quartiles([r[1]["metrics"][name]["value"] for r in runs])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        raw = ""
        if "raw" in runs[0][2]:
            rq1, rmed, rq3 = _quartiles([r[2]["raw"][name] for r in runs])
            raw = f"{(rq3 - rq1) / rmed if rmed else 0.0:>8.3f}"
        print(f"{name:<52} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {raw}")
    keys = {r[2]["model_key"] for r in runs}
    digests = {tuple(r[2]["model_digests"]) for r in runs}
    same_model = len(keys) == 1 and len(digests) == 1
    print(f"model identical across seeds: {same_model}  key {sorted(keys)}  digests {sorted(digests)}")
    ok = same_model and not crashed and all(r[1]["correct"] for r in runs)
    print(json.dumps({"workload": args.workload, "runs": len(runs), "ok": ok, "summary": summary}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs to summarise")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.repeat:
        return repeat(args)
    os.makedirs(common.CACHE_DIR / "work", exist_ok=True)
    result, info, code = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(result, info)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
