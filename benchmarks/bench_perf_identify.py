"""Perf harness — train and identify throughput, before vs. after.

Compares the optimized identification hot path (F' built straight from
the packet tuples and memoized, interned packet symbols, grouped
references, one packed bit-parallel edit-distance pass per
discrimination) against an in-harness replica of the pre-optimization
pipeline (F' recomputed per call, 23-float-tuple symbols, a full DP per
reference).  Both paths share the same trained classifier bank, so any label
disagreement is a correctness bug, not noise — the harness asserts
agreement before reporting timings.

Also times serial vs. pooled training (``DeviceIdentifier.fit(n_jobs=k)``),
whose models are byte-identical for any ``k`` by construction.

Run standalone (writes ``benchmarks/results/perf_identify.txt``)::

    PYTHONPATH=src python benchmarks/bench_perf_identify.py
    PYTHONPATH=src python benchmarks/bench_perf_identify.py --smoke

``--smoke`` runs a small corpus, asserts pipeline agreement, prints the
report, and skips the results file — CI uses it as a fast correctness
gate that never fails on timing.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.core import UNKNOWN_DEVICE, DeviceIdentifier, fixed_vector
from repro.devices import DEVICE_PROFILES, collect_dataset

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE_PROFILE_NAMES = (
    "Aria", "HueBridge", "WeMoSwitch", "EdimaxCam",
    "TP-LinkPlugHS110", "TP-LinkPlugHS100", "iKettle2", "D-LinkCam",
)


# --- pre-optimization reference path ---------------------------------------


def _baseline_damerau_levenshtein(a, b) -> int:
    """The seed's OSA distance: full DP, no cutoff, tuple symbols."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    previous2 = [0] * (m + 1)
    previous = list(range(m + 1))
    for i in range(1, n + 1):
        current = [i] + [0] * m
        ai = a[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ai == b[j - 1] else 1
            value = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            if i > 1 and j > 1 and ai == b[j - 2] and a[i - 2] == b[j - 1]:
                value = min(value, previous2[j - 2] + 1)
            current[j] = value
        previous2, previous = previous, current
    return previous[m]


def _baseline_normalized(a, b) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return _baseline_damerau_levenshtein(a, b) / longest


def baseline_identify_batch(identifier: DeviceIdentifier, fingerprints) -> list[str]:
    """Replicates the pre-optimization inference path on a trained bank.

    F' is rebuilt from scratch per fingerprint, discrimination compares
    raw packet tuples against every reference with no early abandon.
    (Tie-break is lexicographic, matching current semantics, so the two
    paths are label-for-label comparable.)
    """
    stacked = np.vstack(
        [fixed_vector(fp.rows, identifier.fp_length) for fp in fingerprints]
    )
    candidates: list[list[str]] = [[] for _ in fingerprints]
    for label, model in sorted(identifier._models.items()):
        proba = model.classifier.predict_proba(stacked)
        classes = list(model.classifier.classes_)
        if True not in classes:
            continue
        positive = proba[:, classes.index(True)]
        for row in np.flatnonzero(positive >= identifier.accept_threshold):
            candidates[int(row)].append(label)

    labels: list[str] = []
    for fp, cands in zip(fingerprints, candidates):
        if not cands:
            labels.append(UNKNOWN_DEVICE)
            continue
        if len(cands) == 1:
            labels.append(cands[0])
            continue
        scores = {
            label: sum(
                _baseline_normalized(fp.packets, ref.packets)
                for ref in identifier._models[label].references
            )
            for label in cands
        }
        best = min(scores.values())
        labels.append(sorted(l for l, s in scores.items() if s <= best + 1e-12)[0])
    return labels


# --- harness ----------------------------------------------------------------


def run_benchmark(
    *,
    smoke: bool = False,
    runs_per_device: int | None = None,
    repetitions: int = 3,
    n_jobs: int = 4,
    seed: int = 7,
) -> dict:
    if runs_per_device is None:
        runs_per_device = 6 if smoke else 20
    profiles = DEVICE_PROFILES
    if smoke:
        profiles = [p for p in DEVICE_PROFILES if p.identifier in SMOKE_PROFILE_NAMES]
    registry = collect_dataset(profiles, runs_per_device=runs_per_device, seed=seed)
    fps = [fp for label in registry.labels for fp in registry.fingerprints(label)]

    start = time.perf_counter()
    identifier = DeviceIdentifier(random_state=23).fit(registry, n_jobs=1)
    train_serial = time.perf_counter() - start

    start = time.perf_counter()
    DeviceIdentifier(random_state=23).fit(registry, n_jobs=n_jobs)
    train_pooled = time.perf_counter() - start

    start = time.perf_counter()
    baseline_labels = baseline_identify_batch(identifier, fps)
    baseline_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    cold = identifier.identify_batch(fps)  # first pass populates the caches
    cold_elapsed = time.perf_counter() - start

    warm_elapsed = float("inf")
    for _ in range(max(1, repetitions - 1)):
        start = time.perf_counter()
        identifier.identify_batch(fps)
        warm_elapsed = min(warm_elapsed, time.perf_counter() - start)

    optimized_labels = [r.label for r in cold]
    agreement = sum(a == b for a, b in zip(baseline_labels, optimized_labels))
    if agreement != len(fps):
        raise AssertionError(
            f"optimized path disagrees with baseline on {len(fps) - agreement} "
            f"of {len(fps)} fingerprints"
        )

    count = len(fps)
    report = "\n".join(
        [
            "perf_identify — identification hot-path throughput (before vs. after)",
            f"corpus: {len(registry)} types x {runs_per_device} runs "
            f"({count} fingerprints), seed {seed}"
            + (" [smoke]" if smoke else ""),
            "",
            f"train serial   (n_jobs=1): {train_serial:8.3f} s "
            f"({len(registry) / train_serial:6.1f} models/s)",
            f"train pooled   (n_jobs={n_jobs}): {train_pooled:8.3f} s "
            f"({len(registry) / train_pooled:6.1f} models/s)  [byte-identical models]",
            "",
            f"identify baseline (pre-PR path): {baseline_elapsed:8.3f} s "
            f"({count / baseline_elapsed:7.1f} fp/s)",
            f"identify optimized (cold cache): {cold_elapsed:8.3f} s "
            f"({count / cold_elapsed:7.1f} fp/s)",
            f"identify optimized (warm cache): {warm_elapsed:8.3f} s "
            f"({count / warm_elapsed:7.1f} fp/s)",
            "",
            f"identify speedup: {baseline_elapsed / cold_elapsed:.2f}x cold, "
            f"{baseline_elapsed / warm_elapsed:.2f}x warm",
            f"label agreement with baseline: {agreement}/{count}",
        ]
    )
    return {
        "report": report,
        "speedup_cold": baseline_elapsed / cold_elapsed,
        "speedup_warm": baseline_elapsed / warm_elapsed,
        "agreement": agreement,
        "count": count,
    }


def test_perf_identify_hotpath(corpus, benchmark):
    """Pytest entry: regenerate the results artifact from the shared corpus."""
    fps = [fp for label in corpus.labels for fp in corpus.fingerprints(label)]
    identifier = DeviceIdentifier(random_state=23).fit(corpus)
    baseline_labels = baseline_identify_batch(identifier, fps)
    optimized = benchmark(identifier.identify_batch, fps)
    assert [r.label for r in optimized] == baseline_labels
    result = run_benchmark(repetitions=2)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_identify.txt").write_text(result["report"] + "\n")
    assert result["agreement"] == result["count"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small corpus, agreement assertions only, no results file",
    )
    parser.add_argument("--runs", type=int, default=None, help="setup runs per device type")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=4, help="pooled-training worker count")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", default=None,
        help="results path (default benchmarks/results/perf_identify.txt; "
        "ignored with --smoke)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        smoke=args.smoke,
        runs_per_device=args.runs,
        repetitions=args.repetitions,
        n_jobs=args.jobs,
        seed=args.seed,
    )
    print(result["report"])
    if not args.smoke:
        output = Path(args.output) if args.output else RESULTS_DIR / "perf_identify.txt"
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(result["report"] + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
