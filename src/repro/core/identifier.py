"""Two-stage device-type identification (Sect. IV-B).

Stage 1 — *classification*: one binary Random Forest per known device type
votes on the fixed-size fingerprint ``F'``.  Zero accepting classifiers ⇒
the device is a **new/unknown type**; exactly one ⇒ done; several ⇒

Stage 2 — *discrimination*: the full fingerprint ``F`` is compared by
normalized Damerau–Levenshtein distance against (up to) five reference
fingerprints of each accepting type; per-type distances are summed into a
dissimilarity score in [0, 5] and the lowest score wins.

New types can be added (and retired) without retraining any other model —
the paper's scalability argument for the one-classifier-per-type design.

Instrumented with ``repro.obs``: the per-stage spans (``identify``,
``identify.classify[.bank]``, ``identify.discriminate``) mirror the
Table IV step breakdown — see ``docs/observability.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.ml.compiled import CompiledBank
from repro.ml.forest import RandomForestClassifier
from repro.ml.parallel import derive_entropy, label_rng
from repro.ml.sampling import build_binary_training_set
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .editdistance import dissimilarity_scores
from .fingerprint import DEFAULT_FP_PACKETS, Fingerprint
from .registry import DeviceTypeRegistry

__all__ = ["UNKNOWN_DEVICE", "IdentificationResult", "DeviceIdentifier"]

#: Sentinel label returned when no classifier accepts a fingerprint.
UNKNOWN_DEVICE = "unknown"


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of one identification, with stage-level detail."""

    label: str
    candidates: tuple[str, ...] = ()
    scores: dict = field(default_factory=dict)
    used_discrimination: bool = False

    @property
    def is_unknown(self) -> bool:
        return self.label == UNKNOWN_DEVICE


@dataclass
class _TypeModel:
    label: str
    classifier: RandomForestClassifier
    references: list[Fingerprint]
    _grouped_symbols: list[tuple[tuple[int, ...], int]] | None = field(
        default=None, repr=False, compare=False
    )

    def grouped_reference_symbols(self) -> list[tuple[tuple[int, ...], int]]:
        """Distinct reference symbol sequences with multiplicities.

        Repeated setup runs often yield identical fingerprints; the
        discrimination step computes each distinct sequence's distance once
        and weights it.  Sorted for a deterministic evaluation order;
        computed lazily and cached (references never change post-training).
        """
        if self._grouped_symbols is None:
            counts = Counter(ref.symbols() for ref in self.references)
            self._grouped_symbols = sorted(counts.items())
        return self._grouped_symbols


class DeviceIdentifier:
    """The IoTSSP's classifier bank plus discrimination step.

    Parameters
    ----------
    fp_length:
        Number of packet slots in ``F'`` (the paper's 12).
    negative_ratio:
        Negatives per positive when training each binary forest (paper: 10).
    n_references:
        Reference fingerprints per type for edit-distance discrimination
        (paper: 5).
    n_estimators:
        Trees per Random Forest.
    accept_threshold:
        Minimum positive-class probability for a classifier to "match".
        Slightly below the majority-vote 0.5 so that same-vendor sibling
        types (whose positive region overlaps heavily with the 10·n
        negative sample) still match each other's classifier and fall
        through to discrimination rather than being rejected outright —
        the behaviour the paper's Table III documents.
    random_state:
        Base entropy for training.  Each device type trains from its own
        generator derived from ``(random_state, label)``, so models are
        byte-identical regardless of training order or whether a type
        arrived via :meth:`fit` or :meth:`add_type` — and inference never
        consumes randomness at all.

    Stage 1 evaluates through a lazily built
    :class:`~repro.ml.compiled.CompiledBank` — one flat node table for
    the whole classifier bank, traversed with vectorized gathers and
    byte-identical to each forest's own ``predict_proba``.  The bank is
    rebuilt automatically after :meth:`fit`/:meth:`add_type`/:meth:`remove_type`.
    """

    #: Score slack within which two candidates count as tied.
    TIE_TOLERANCE = 1e-12

    def __init__(
        self,
        *,
        fp_length: int = DEFAULT_FP_PACKETS,
        negative_ratio: int = 10,
        n_references: int = 5,
        n_estimators: int = 20,
        max_depth: int | None = None,
        accept_threshold: float = 0.4,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        self.fp_length = fp_length
        self.negative_ratio = negative_ratio
        self.n_references = n_references
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.accept_threshold = accept_threshold
        self._entropy = derive_entropy(random_state)
        self._models: dict[str, _TypeModel] = {}
        self._bank: CompiledBank | None = None
        self._bank_source: tuple[str, ...] = ()

    # --- training ---------------------------------------------------------

    def fit(self, registry: DeviceTypeRegistry) -> "DeviceIdentifier":
        """Train one classifier per type in the registry (from scratch).

        Each type trains from its own ``(seed, label)``-derived generator,
        so every model equals the one :meth:`add_type` would train.
        """
        if len(registry) < 2:
            raise ValueError("need at least two device types to train")
        with obs_span(obs_names.SPAN_TRAIN_FIT, types=len(registry)):
            models = [self._train_type(registry, label) for label in registry.labels]
        self._models = {model.label: model for model in models}
        self.invalidate_compiled()
        return self

    def add_type(self, registry: DeviceTypeRegistry, label: str) -> None:
        """Train (or retrain) a single type without touching the others.

        Produces the exact model :meth:`fit` would have produced for this
        label given the same registry contents and seed.
        """
        model = self._train_type(registry, label)
        self._models[label] = model
        self.invalidate_compiled()

    def remove_type(self, label: str) -> None:
        if label not in self._models:
            raise KeyError(label)
        del self._models[label]
        self.invalidate_compiled()

    def invalidate_compiled(self) -> None:
        """Drop the compiled bank; it is rebuilt lazily on the next batch.

        Called automatically by every mutator; callers that assign
        ``_models`` directly (persistence) must call it themselves.
        """
        self._bank = None
        self._bank_source = ()

    def _compiled_bank(self) -> CompiledBank:
        labels = tuple(sorted(self._models))
        if self._bank is None or self._bank_source != labels:
            self._bank = CompiledBank(
                [(label, self._models[label].classifier) for label in labels]
            )
            self._bank_source = labels
        return self._bank

    def _train_type(self, registry: DeviceTypeRegistry, label: str) -> _TypeModel:
        with obs_span(obs_names.SPAN_TRAIN_TYPE, label=label):
            rng = label_rng(self._entropy, label)
            positives = registry.positives_matrix(label, self.fp_length)
            negatives = registry.negatives_matrix(label, self.fp_length)
            x, y = build_binary_training_set(
                positives, negatives, ratio=self.negative_ratio, rng=rng
            )
            classifier = RandomForestClassifier(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                random_state=rng,
            ).fit(x, y)
            pool = registry.fingerprints(label)
            take = min(self.n_references, len(pool))
            chosen = rng.choice(len(pool), size=take, replace=False)
            obs_counter(obs_names.METRIC_TYPES_TRAINED).inc()
            return _TypeModel(
                label=label,
                classifier=classifier,
                references=[pool[int(i)] for i in chosen],
            )

    @property
    def labels(self) -> list[str]:
        return sorted(self._models)

    # --- inference --------------------------------------------------------

    def classify(self, fingerprint: Fingerprint) -> list[str]:
        """Stage 1: labels whose binary classifier accepts ``F'``."""
        return self.classify_batch([fingerprint])[0]

    def classify_batch(self, fingerprints: list[Fingerprint]) -> list[list[str]]:
        """Stage 1 over many fingerprints in one compiled-bank pass.

        Every type's forest sees the whole stacked F' matrix at once.  The
        accepted (fingerprint, type) pairs are read off one boolean
        matrix in row-major order, so each candidate list is in sorted
        label order.
        """
        if not self._models:
            raise RuntimeError("identifier is not trained")
        if not fingerprints:
            return []
        with obs_span(obs_names.SPAN_CLASSIFY, batch=len(fingerprints)):
            stacked = np.vstack([fp.fixed(self.fp_length) for fp in fingerprints])
            bank = self._compiled_bank()
            with obs_span(obs_names.SPAN_CLASSIFY_BANK, batch=len(fingerprints), types=bank.n_forests):
                positive = bank.positive_proba(stacked)
            accepted = positive >= self.accept_threshold
            candidates: list[list[str]] = [[] for _ in fingerprints]
            rows, columns = np.nonzero(accepted)
            for row, column in zip(rows.tolist(), columns.tolist()):
                candidates[row].append(bank.labels[column])
        return candidates

    def discriminate(self, fingerprint: Fingerprint, candidates: list[str]) -> tuple[str, dict]:
        """Stage 2: edit-distance dissimilarity over full ``F``; lowest wins.

        Every distinct reference of every candidate is measured against
        ``F`` in one packed bit-parallel pass, and each candidate's score
        is its exact grouped sum, accumulated in its references' sorted
        order — so every entry of the returned ``scores`` dict is exact,
        the winner's and a hopeless candidate's alike.  Candidates within
        :data:`TIE_TOLERANCE` of the lowest score tie, and ties break to
        the lexicographically smallest label — identification is
        deterministic and independent of batch order or prior calls.
        """
        if not candidates:
            raise ValueError("no candidates to discriminate")
        with obs_span(obs_names.SPAN_DISCRIMINATE, candidates=len(candidates)):
            obs_counter(obs_names.METRIC_DISCRIMINATIONS).inc()
            # Symbols before references: interning order fixes the symbol
            # ids, and with them the order each label's groups sum in.
            symbols = fingerprint.symbols()
            labels = sorted(set(candidates))
            groups = [self._models[label].grouped_reference_symbols() for label in labels]
            scores = dict(zip(labels, dissimilarity_scores(symbols, groups)))
            best = min(scores.values())
            tied = [label for label, score in scores.items() if score <= best + self.TIE_TOLERANCE]
            return tied[0], scores

    def _resolve(self, fingerprint: Fingerprint, candidates: list[str]) -> IdentificationResult:
        if not candidates:
            obs_counter(obs_names.METRIC_IDENTIFICATIONS, outcome="unknown").inc()
            return IdentificationResult(label=UNKNOWN_DEVICE)
        obs_counter(obs_names.METRIC_IDENTIFICATIONS, outcome="known").inc()
        if len(candidates) == 1:
            return IdentificationResult(label=candidates[0], candidates=tuple(candidates))
        winner, scores = self.discriminate(fingerprint, candidates)
        return IdentificationResult(
            label=winner,
            candidates=tuple(candidates),
            scores=scores,
            used_discrimination=True,
        )

    def identify(self, fingerprint: Fingerprint) -> IdentificationResult:
        """Run the full two-stage pipeline on one fingerprint."""
        return self.identify_batch([fingerprint])[0]

    def identify_batch(self, fingerprints: list[Fingerprint]) -> list[IdentificationResult]:
        """The full two-stage pipeline over many fingerprints (one stage-1 pass)."""
        with obs_span(obs_names.SPAN_IDENTIFY, batch=len(fingerprints)) as span:
            results = [
                self._resolve(fp, candidates)
                for fp, candidates in zip(fingerprints, self.classify_batch(fingerprints))
            ]
            span.set(
                unknown=sum(result.is_unknown for result in results),
                discriminated=sum(result.used_discrimination for result in results),
            )
            return results
