"""Extension — classifier-bank scalability (Sect. VI-B's closing claim).

"The classification with Random Forest takes very little time and grows
linearly with the number of types to identify.  This shows that IoT
Sentinel can easily scale to thousands of device-types..."

This bench grows a synthetic type population to 1000, trains one
classifier per type (the first population at once, then every later type
through the incremental ``add_type`` path — no global relearning), and
measures how the stage-1 classification pass scales.
Each population is timed twice over: the first read of the snapshot's
bank (concatenating every type's compiled forest into one table, once
per snapshot) and the best of five warm ``classify_batch`` passes over a
16-row probe.  A one-row pass is mostly fixed per-call numpy dispatch,
which would hide the per-type cost; 16 rows spread that intercept.
Absolute times differ from the paper's (pure-Python forests vs C), so the
assertion targets the *linear growth* of the warm pass and a generous
sub-second bound.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import write_result

from repro.core import DeviceIdentifier, DeviceTypeRegistry, Fingerprint, NUM_FEATURES
from repro.reporting import render_series

TYPE_COUNTS = (27, 100, 300, 1000)
FINGERPRINTS_PER_TYPE = 8
#: Fingerprints per timed stage-1 pass, one from each of the first types.
PROBE_ROWS = 16
#: Warm passes per population; the best one is reported.
REPEATS = 5


def _synthetic_fingerprint(rng: np.random.Generator, signature: np.ndarray) -> Fingerprint:
    """A fingerprint drawn from one synthetic type's distribution."""
    length = int(rng.integers(6, 14))
    vectors = []
    for i in range(length):
        v = np.zeros(NUM_FEATURES)
        # Per-type protocol mix: three binary features from the signature.
        for bit in signature[:3]:
            if rng.random() < 0.9:
                v[int(bit)] = 1.0
        v[18] = float(signature[3] + rng.integers(-10, 11) + 3 * i)  # sizes
        v[20] = float((i % int(signature[4])) + 1)  # endpoint pattern
        v[21] = float(signature[5] % 4)
        v[22] = float(signature[6] % 4)
        vectors.append(v)
    return Fingerprint.from_vectors(vectors)


def _build_registry(n_types: int, rng: np.random.Generator) -> DeviceTypeRegistry:
    registry = DeviceTypeRegistry()
    for t in range(n_types):
        signature = np.array(
            [
                rng.integers(0, 16),
                rng.integers(0, 16),
                rng.integers(0, 18),
                rng.integers(60, 400),
                rng.integers(2, 5),
                rng.integers(0, 4),
                rng.integers(0, 4),
            ]
        )
        registry.add_many(
            f"type{t:04d}",
            [_synthetic_fingerprint(rng, signature) for _ in range(FINGERPRINTS_PER_TYPE)],
        )
    return registry


def _grow(identifier: DeviceIdentifier, registry: DeviceTypeRegistry, enrolled: int, target: int) -> None:
    """Bring ``identifier`` from the first ``enrolled`` types of ``registry``
    to the first ``target``: an empty identifier fits the first population
    at once, and each later type enrols on its own."""
    labels = registry.labels[:target]
    if not enrolled:
        first = DeviceTypeRegistry()
        first.extend({label: registry.fingerprints(label) for label in labels})
        identifier.fit(first)
        return
    for label in labels[enrolled:]:
        identifier.add_type(label, registry.fingerprints(label))


def test_ext_classifier_bank_scalability(benchmark):
    def run():
        rng = np.random.default_rng(3)
        registry = _build_registry(max(TYPE_COUNTS), rng)
        probe = [registry.fingerprints(f"type{t:04d}")[0] for t in range(PROBE_ROWS)]
        passes, assembly = [], []
        identifier = DeviceIdentifier(random_state=1)
        enrolled = 0
        for target in TYPE_COUNTS:
            # Incremental enrollment up to the target population.
            _grow(identifier, registry, enrolled, target)
            enrolled = target
            # The first read concatenates the per-type forests into one bank.
            start = time.perf_counter()
            identifier.snapshot.bank
            assembly.append((target, (time.perf_counter() - start) * 1e3))
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                identifier.classify_batch(probe)
                best = min(best, time.perf_counter() - start)
            passes.append((target, best * 1e3))
        return passes, assembly

    points, assembly = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ext_scalability.txt",
        render_series(
            {
                f"Stage-1 pass, {PROBE_ROWS} rows (all types)": points,
                "Bank assembly (first read)": assembly,
            },
            unit="ms",
        ),
    )

    counts = np.array([c for c, _ in points], dtype=float)
    times = np.array([t for _, t in points])
    # Linear growth: per-type marginal cost is stable within 2x between
    # the smallest and largest population.
    per_type = times / counts
    assert per_type.max() < per_type.min() * 2.0, points
    # And the full 1000-type pass stays interactive.
    assert times[-1] < 1000.0, points
