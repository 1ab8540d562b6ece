"""Training-data store for device types (the IoTSSP's fingerprint corpus).

The IoT Security Service accumulates labelled fingerprints — initially from
dedicated laboratory experiments, later potentially crowdsourced (Sect.
III-B).  The registry keeps them per device-type label and hands the
identifier everything it needs to (re)train a single type without touching
the others.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .fingerprint import DEFAULT_FP_PACKETS, Fingerprint

__all__ = ["DeviceTypeRegistry"]


class DeviceTypeRegistry:
    """Labelled fingerprint corpus with per-type access."""

    def __init__(self) -> None:
        self._store: dict[str, list[Fingerprint]] = {}

    def add(self, label: str, fingerprint: Fingerprint) -> None:
        if not label:
            raise ValueError("label must be non-empty")
        self._store.setdefault(label, []).append(fingerprint)

    def add_many(self, label: str, fingerprints: Iterable[Fingerprint]) -> None:
        for fingerprint in fingerprints:
            self.add(label, fingerprint)

    def extend(self, corpus: Mapping[str, Sequence[Fingerprint]]) -> None:
        for label, fingerprints in corpus.items():
            self.add_many(label, fingerprints)

    def with_added(self, label: str, fingerprints: Iterable[Fingerprint]) -> "DeviceTypeRegistry":
        """A copy of this registry with ``fingerprints`` added under ``label``.

        This registry is left as it is, so a caller can train on the copy
        and keep it only when training succeeds.
        """
        copy = DeviceTypeRegistry()
        copy._store = {other: list(fps) for other, fps in self._store.items()}
        copy.add_many(label, fingerprints)
        return copy

    def remove_type(self, label: str) -> None:
        if label not in self._store:
            raise KeyError(label)
        del self._store[label]

    @property
    def labels(self) -> list[str]:
        return sorted(self._store)

    def __contains__(self, label: str) -> bool:
        return label in self._store

    def __len__(self) -> int:
        return len(self._store)

    def count(self, label: str) -> int:
        return len(self._store.get(label, []))

    def fingerprints(self, label: str) -> list[Fingerprint]:
        if label not in self._store:
            raise KeyError(label)
        return list(self._store[label])

    def positives_matrix(self, label: str, fp_length: int = DEFAULT_FP_PACKETS) -> np.ndarray:
        """Stacked F' vectors of one type."""
        rows = [fp.fixed(fp_length) for fp in self.fingerprints(label)]
        return np.vstack(rows)

    def negatives_matrix(self, label: str, fp_length: int = DEFAULT_FP_PACKETS) -> np.ndarray:
        """Stacked F' vectors of the complement set (all other types)."""
        rows = [
            fp.fixed(fp_length)
            for other, fingerprints in sorted(self._store.items())
            if other != label
            for fp in fingerprints
        ]
        if not rows:
            raise ValueError(f"no negative examples available for {label!r}")
        return np.vstack(rows)
