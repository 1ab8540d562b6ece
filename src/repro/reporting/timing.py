"""Span-based timing of the identification pipeline steps (Table IV).

Since the pipeline is instrumented with ``repro.obs``, this harness no
longer wraps its own ad-hoc ``perf_counter`` timers around pipeline
internals: it runs the real code paths under a fresh
:class:`~repro.obs.RecordingProvider` per measurement block and reads the
Table IV step durations straight from the emitted spans —

====================================  ====================================
Table IV step                         span (see ``docs/observability.md``)
====================================  ====================================
1 Classification (Random Forest)      ``identify.classify.bank`` divided
                                      by its ``types`` attribute (the
                                      per-type share of one bank pass)
1 Discrimination (edit distance)      ``identify.discriminate``
Fingerprint extraction                ``extract.fingerprint``
n Classifications (Random Forest)     ``identify.classify``
Discriminations (avg case)            ``identify.discriminate`` under one
                                      ``identify`` root (0 when stage 1
                                      yields ≤ 1 candidate)
Type Identification                   ``identify``
====================================  ====================================

so the offline harness and a live gateway trace report the *same*
numbers for the same work, by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extractor import fingerprint_from_records
from repro.core.identifier import DeviceIdentifier
from repro.core.registry import DeviceTypeRegistry
from repro.devices.dataset import simulate_setup_capture
from repro.devices.profiles import DEVICE_PROFILES
from repro.obs import RecordingProvider, use_provider
from repro.obs import names as obs_names

__all__ = ["TimingRow", "measure_identification_timing"]


@dataclass(frozen=True)
class TimingRow:
    """Mean ± standard deviation of one pipeline step, in milliseconds.

    The ± convention: ``std_ms`` is the *sample* standard deviation
    (``ddof=1``) over the individual measurements, matching the paper's
    Table IV presentation.  It is therefore undefined for fewer than two
    samples — :func:`measure_identification_timing` rejects ``trials < 2``
    up front rather than silently reporting ``±0.000``.
    """

    step: str
    mean_ms: float
    std_ms: float

    def __str__(self) -> str:  # matches the Table IV presentation
        return f"{self.step}: {self.mean_ms:.3f} ms (±{self.std_ms:.3f})"


def _stats(samples: list[float]) -> tuple[float, float]:
    """(mean, sample std) of a list of durations, in milliseconds."""
    if len(samples) < 2:
        raise ValueError(
            "need at least 2 samples for a mean ± sample-std (ddof=1) row; "
            f"got {len(samples)}"
        )
    data = np.array(samples) * 1e3
    return float(data.mean()), float(data.std(ddof=1))


def _fresh_provider() -> RecordingProvider:
    # Span durations are all we read; skip the histogram bridge.
    return RecordingProvider(record_span_durations=False)


def measure_identification_timing(
    registry: DeviceTypeRegistry,
    identifier: DeviceIdentifier,
    *,
    trials: int = 30,
    seed: int | None = None,
) -> list[TimingRow]:
    """Reproduce the Table IV rows on a trained identifier, from spans.

    Measures: one classification, one edit-distance discrimination,
    fingerprint extraction, a full classifier-bank pass, the
    discrimination work of an average identification, and end-to-end
    identification.  Each block runs under its own recording provider so
    the spans it reads are exactly the spans it caused.

    Raises
    ------
    ValueError
        If ``trials < 2`` — a single trial cannot support the mean ±
        sample-std presentation (see :class:`TimingRow`).
    """
    if trials < 2:
        raise ValueError(
            f"trials must be >= 2 for a mean ± sample-std estimate, got {trials}"
        )
    rng = np.random.default_rng(seed)
    labels = registry.labels
    sample_fp = registry.fingerprints(labels[0])[0]
    # Table IV reports steady-state steps: build the bank before timing.
    identifier.classify(sample_fp)

    # One classifier-bank pass per trial: the bank span's per-type share
    # gives the "1 Classification" row, the enclosing span the "n
    # Classifications" row — same calls, two granularities.
    with use_provider(_fresh_provider()) as rec:
        for _ in range(trials):
            identifier.classify(sample_fp)
        single_classification = [
            r.duration / r.attributes["types"]
            for r in rec.tracer.records_named(obs_names.SPAN_CLASSIFY_BANK)
        ]
        all_classifications = rec.tracer.durations(obs_names.SPAN_CLASSIFY)

    # One single-candidate discrimination per trial.
    reference_label = labels[int(rng.integers(len(labels)))]
    with use_provider(_fresh_provider()) as rec:
        for _ in range(trials):
            probe_label = labels[int(rng.integers(len(labels)))]
            probe = registry.fingerprints(probe_label)[0]
            identifier.discriminate(probe, [reference_label])
        single_discrimination = rec.tracer.durations(obs_names.SPAN_DISCRIMINATE)

    # Fingerprint extraction from a fresh simulated capture per trial.
    profiles = {p.identifier: p for p in DEVICE_PROFILES}
    with use_provider(_fresh_provider()) as rec:
        for _ in range(trials):
            profile = profiles[labels[int(rng.integers(len(labels)))]]
            mac, records = simulate_setup_capture(profile, rng)
            fingerprint_from_records(records, mac)
        extraction = rec.tracer.durations(obs_names.SPAN_EXTRACT)

    # Full identifications; the discrimination share of each trial is the
    # summed duration of `identify.discriminate` spans under that trial's
    # `identify` root (zero when stage 1 returned at most one candidate).
    with use_provider(_fresh_provider()) as rec:
        for _ in range(trials):
            label = labels[int(rng.integers(len(labels)))]
            fps = registry.fingerprints(label)
            probe = fps[int(rng.integers(len(fps)))]
            identifier.identify(probe)
        roots = rec.tracer.records_named(obs_names.SPAN_IDENTIFY)
        discriminations = rec.tracer.records_named(obs_names.SPAN_DISCRIMINATE)
        root_ids = {r.span_id for r in roots}
        share = {r.span_id: 0.0 for r in roots}
        for record in discriminations:
            if record.parent_id in root_ids:
                share[record.parent_id] += record.duration
        full_identification = [r.duration for r in roots]
        discrimination_share = [share[r.span_id] for r in roots]

    return [
        TimingRow("1 Classification (Random Forest)", *_stats(single_classification)),
        TimingRow("1 Discrimination (edit distance)", *_stats(single_discrimination)),
        TimingRow("Fingerprint extraction", *_stats(extraction)),
        TimingRow(
            f"{len(labels)} Classifications (Random Forest)",
            *_stats(all_classifications),
        ),
        TimingRow(
            "Discriminations (edit distance, avg case)", *_stats(discrimination_share)
        ),
        TimingRow("Type Identification", *_stats(full_identification)),
    ]
