"""Fingerprint and classifier-bank analysis utilities.

Operator-facing introspection: which Table-I features drive each device
type's classifier, and summary statistics of a type's fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.importance import forest_feature_importance

from .features import FEATURE_NAMES, NUM_FEATURES
from .identifier import DeviceIdentifier
from .registry import DeviceTypeRegistry

__all__ = ["FeatureImportanceReport", "classifier_feature_importance", "fingerprint_summary"]


@dataclass(frozen=True)
class FeatureImportanceReport:
    """Aggregated importance of the 23 features for one type's classifier."""

    label: str
    by_feature: dict  # feature name -> importance summed over packet slots

    def top(self, k: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.by_feature.items(), key=lambda kv: -kv[1])
        return ranked[:k]


def classifier_feature_importance(
    identifier: DeviceIdentifier, label: str
) -> FeatureImportanceReport:
    """Fold the 276-dimensional F' importances back onto the 23 features.

    The fixed vector concatenates 12 packet slots × 23 features; summing
    each feature's importance across slots answers "which *kind* of
    observation matters", independent of packet position.
    """
    model = identifier.snapshot.models.get(label)
    if model is None:
        raise KeyError(label)
    flat = forest_feature_importance(model.compiled, identifier.fp_length * NUM_FEATURES)
    by_feature = {name: 0.0 for name in FEATURE_NAMES}
    for index, value in enumerate(flat):
        by_feature[FEATURE_NAMES[index % NUM_FEATURES]] += float(value)
    return FeatureImportanceReport(label=label, by_feature=by_feature)


def fingerprint_summary(registry: DeviceTypeRegistry, label: str) -> dict:
    """Descriptive statistics of one type's fingerprints."""
    fingerprints = registry.fingerprints(label)
    lengths = np.array([len(fp) for fp in fingerprints])
    protocol_rates = {}
    rows = np.vstack([fp.rows for fp in fingerprints])
    for index, name in enumerate(FEATURE_NAMES[:18]):
        protocol_rates[name] = float(rows[:, index].mean())
    sizes = rows[:, FEATURE_NAMES.index("packet_size")]
    destinations = [int(fp.rows[:, FEATURE_NAMES.index("dst_ip_counter")].max()) for fp in fingerprints]
    return {
        "fingerprints": len(fingerprints),
        "length_mean": float(lengths.mean()),
        "length_min": int(lengths.min()),
        "length_max": int(lengths.max()),
        "packet_size_mean": float(sizes.mean()),
        "distinct_destinations_mean": float(np.mean(destinations)),
        "protocol_rates": protocol_rates,
    }
