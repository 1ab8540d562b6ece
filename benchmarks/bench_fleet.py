"""Fleet-scale stage-1 throughput: compiled bank vs. per-forest reference.

Measures ``DeviceIdentifier.classify_batch`` (the
:class:`~repro.ml.compiled.CompiledBank` array traversal, the only
stage-1 path) over a fixed probe batch at classifier-bank populations of
27 (the paper's device count), 100 and 1000 types, against an
interpreted reference that calls each type's
``RandomForestClassifier.predict_proba`` in turn.  A trained model keeps
only its compiled forests, so the reference forests are the ones
training fitted, recorded by ``tests.oracles.record_forests`` while the
population grows.  Candidate sets must
agree exactly — the bank is byte-identical ``predict_proba`` by
construction, so any disagreement fails the run before a single timing
is reported.

The *cold* column is the first batch on a fresh
:class:`~repro.core.identifier.ModelSnapshot`: it includes assembling
the bank by concatenating the per-type compiled forests.  Each forest
is compiled once, when its type is trained; that per-type compile cost
(of the recorded forests) is reported on its own line.

Also times the warm-start model store: a cold ``fit`` against
``warm_start_identifier`` hitting a content-hash cache entry.

Run standalone (writes ``benchmarks/results/fleet.txt``)::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke

``--smoke`` uses the 27-type population only, asserts agreement, and
skips the results file and the speedup floor — CI's correctness gate.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from bench_ext_scalability import FINGERPRINTS_PER_TYPE, _build_registry, _grow
from repro.core import DeviceIdentifier, ModelStore, warm_start_identifier
from repro.ml.compiled import compile_forest

RESULTS_DIR = Path(__file__).resolve().parent / "results"
# The repository root, for the fitted-forest recorder in ``tests.oracles``.
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from tests.oracles import FittedForests, record_forests  # noqa: E402

TYPE_COUNTS = (27, 100, 1000)
PROBE_BATCH = 100
#: Acceptance floor: compiled stage-1 throughput at 27 types.
MIN_SPEEDUP_27 = 5.0


def _probe_batch(registry, rng: np.random.Generator):
    """A fixed mixed batch drawn from the synthetic population."""
    labels = sorted(registry.labels)
    return [
        registry.fingerprints(labels[int(rng.integers(len(labels)))])[
            int(rng.integers(FINGERPRINTS_PER_TYPE))
        ]
        for _ in range(PROBE_BATCH)
    ]


def _interpreted_candidates(
    identifier: DeviceIdentifier, probes, forests: FittedForests
) -> list[list[str]]:
    """Stage 1 from each type's fitted forest in turn, in sorted label order."""
    stacked = np.vstack([fp.fixed(identifier.fp_length) for fp in probes])
    candidates: list[list[str]] = [[] for _ in probes]
    for label in identifier.labels:
        forest = forests[identifier.snapshot.models[label].compiled]
        classes = list(forest.classes_)
        if True not in classes:
            continue
        positive = forest.predict_proba(stacked)[:, classes.index(True)]
        for row in np.flatnonzero(positive >= identifier.accept_threshold):
            candidates[int(row)].append(label)
    return candidates


def _best_of(repetitions: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repetitions)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(*, smoke: bool = False, repetitions: int = 3, seed: int = 3) -> dict:
    type_counts = TYPE_COUNTS[:1] if smoke else TYPE_COUNTS
    rng = np.random.default_rng(seed)
    registry = _build_registry(max(type_counts), rng)
    probes = _probe_batch(registry, rng)
    identifier = DeviceIdentifier(random_state=1)

    rows = []
    enrolled = 0
    with record_forests() as forests:
        for target in type_counts:
            _grow(identifier, registry, enrolled, target)
            enrolled = target

            interpreted = _interpreted_candidates(identifier, probes, forests)
            t_interp = _best_of(
                repetitions, lambda: _interpreted_candidates(identifier, probes, forests)
            )

            models = identifier.snapshot.models
            fitted = [forests[model.compiled] for model in models.values()]
            start = time.perf_counter()
            for forest in fitted:
                compile_forest(forest)
            t_compile = time.perf_counter() - start

            # A fresh snapshot over the same models: its bank is not assembled yet.
            identifier.adopt(identifier.snapshot.successor(models), identifier.corpus)
            start = time.perf_counter()
            compiled = identifier.classify_batch(probes)  # includes bank assembly
            t_cold = time.perf_counter() - start
            t_warm = _best_of(repetitions, lambda: identifier.classify_batch(probes))

            if compiled != interpreted:
                raise AssertionError(
                    f"compiled bank disagrees with interpreted forests at {target} types"
                )
            rows.append(
                {
                    "types": target,
                    "interp_s": t_interp,
                    "compile_s": t_compile,
                    "cold_s": t_cold,
                    "warm_s": t_warm,
                    "speedup": t_interp / t_warm,
                }
            )

    # Warm-start model store: cold fit vs. content-hash cache hit.
    small = _build_registry(type_counts[0], np.random.default_rng(seed + 1))
    start = time.perf_counter()
    DeviceIdentifier(random_state=1).fit(small)
    t_fit = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        store = ModelStore(Path(tmp))
        _, hit = warm_start_identifier(small, store, random_state=1)
        assert not hit
        start = time.perf_counter()
        _, hit = warm_start_identifier(small, store, random_state=1)
        t_load = time.perf_counter() - start
        assert hit

    lines = [
        "fleet — batched stage-1 classification, interpreted vs. compiled bank",
        f"probe batch: {PROBE_BATCH} fingerprints, best of {repetitions}, "
        f"seed {seed}" + (" [smoke]" if smoke else ""),
        "",
        "cold = first batch on a fresh snapshot (bank assembled from the "
        "per-type compiled forests)",
        "",
        f"{'types':>6}  {'interpreted':>12}  {'compiled cold':>14}  "
        f"{'compiled warm':>14}  {'speedup':>8}  {'warm fp/s':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['types']:>6}  {row['interp_s'] * 1e3:>10.1f}ms  "
            f"{row['cold_s'] * 1e3:>12.1f}ms  {row['warm_s'] * 1e3:>12.1f}ms  "
            f"{row['speedup']:>7.1f}x  {PROBE_BATCH / row['warm_s']:>10.0f}"
        )
    lines += [
        "",
        "per-type compile (paid once per type, at training): "
        + ", ".join(
            f"{row['compile_s'] * 1e3:.1f} ms for {row['types']} types "
            f"({row['compile_s'] / row['types'] * 1e3:.2f} ms/type)"
            for row in rows
        ),
        "",
        f"warm-start store: cold fit {t_fit:6.3f} s, cache-hit load "
        f"{t_load:6.3f} s ({t_fit / t_load:.1f}x) at {type_counts[0]} types",
    ]
    return {
        "report": "\n".join(lines),
        "rows": rows,
        "speedup_27": rows[0]["speedup"],
        "store_speedup": t_fit / t_load,
    }


def test_fleet_bank_throughput(benchmark):
    """Pytest entry: regenerate the results artifact and hold the floor."""
    result = benchmark.pedantic(
        lambda: run_benchmark(repetitions=2), rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fleet.txt").write_text(result["report"] + "\n")
    assert result["speedup_27"] >= MIN_SPEEDUP_27, result["report"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="27-type population only, agreement assertions, no results file",
    )
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--output", default=None,
        help="results path (default benchmarks/results/fleet.txt; "
        "ignored with --smoke)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        smoke=args.smoke, repetitions=args.repetitions, seed=args.seed
    )
    print(result["report"])
    if not args.smoke:
        if result["speedup_27"] < MIN_SPEEDUP_27:
            print(f"\nFAIL: speedup at 27 types below {MIN_SPEEDUP_27}x")
            return 1
        output = Path(args.output) if args.output else RESULTS_DIR / "fleet.txt"
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(result["report"] + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
