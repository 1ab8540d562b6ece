"""Fingerprinting and device-type identification — the paper's core.

Public surface:

* :data:`FEATURE_NAMES` / :func:`packet_features` — the 23 features of Table I
* :class:`Fingerprint` — the F / F' representations of Sect. IV-A
* :class:`FingerprintExtractor` / :class:`SetupPhaseDetector` — traffic → F
* :class:`DeviceIdentifier` — the two-stage pipeline of Sect. IV-B, serving
  one immutable :class:`ModelSnapshot` at a time
* :class:`DeviceTypeRegistry` — the IoTSSP training corpus
"""

from .analysis import (
    FeatureImportanceReport,
    classifier_feature_importance,
    fingerprint_summary,
)
from .editdistance import (
    damerau_levenshtein,
    damerau_levenshtein_unrestricted,
    dissimilarity_score,
    normalized_distance,
)
from .extractor import (
    FingerprintExtractor,
    RateDropDetector,
    SetupPhaseDetector,
    fingerprint_from_records,
)
from .persistence import (
    ModelStore,
    load_identifier,
    load_registry,
    registry_content_key,
    save_identifier,
    save_registry,
    warm_start_identifier,
)
from .features import (
    FEATURE_NAMES,
    INTEGER_FEATURES,
    NUM_FEATURES,
    DestinationCounter,
    packet_features,
    port_class,
)
from .constants import FIXED_VECTOR_DIM
from .fingerprint import (
    DEFAULT_FP_PACKETS,
    Fingerprint,
    dedupe_consecutive,
    fixed_vector,
    intern_symbol,
)
from .identifier import (
    UNKNOWN_DEVICE,
    DeviceIdentifier,
    DuplicateTypeError,
    IdentificationResult,
    ModelSnapshot,
    NoCorpusError,
)
from .registry import DeviceTypeRegistry

# Deterministic seeding helpers live in repro.ml.parallel (the
# layer below); they are re-exported here because the identifier's
# determinism contract is part of the core public surface.
from repro.ml.parallel import (
    derive_entropy,
    label_rng,
    label_seed_sequence,
    spawn_generators,
)

__all__ = [
    "DEFAULT_FP_PACKETS",
    "FIXED_VECTOR_DIM",
    "FeatureImportanceReport",
    "classifier_feature_importance",
    "fingerprint_summary",
    "ModelStore",
    "load_identifier",
    "load_registry",
    "registry_content_key",
    "save_identifier",
    "save_registry",
    "warm_start_identifier",
    "FEATURE_NAMES",
    "INTEGER_FEATURES",
    "NUM_FEATURES",
    "UNKNOWN_DEVICE",
    "DestinationCounter",
    "DeviceIdentifier",
    "DeviceTypeRegistry",
    "DuplicateTypeError",
    "Fingerprint",
    "FingerprintExtractor",
    "IdentificationResult",
    "ModelSnapshot",
    "NoCorpusError",
    "RateDropDetector",
    "SetupPhaseDetector",
    "damerau_levenshtein",
    "damerau_levenshtein_unrestricted",
    "dedupe_consecutive",
    "derive_entropy",
    "dissimilarity_score",
    "fingerprint_from_records",
    "fixed_vector",
    "intern_symbol",
    "label_rng",
    "label_seed_sequence",
    "normalized_distance",
    "packet_features",
    "port_class",
    "spawn_generators",
]
