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
Each trained bank is one immutable :class:`ModelSnapshot`; enrolling or
retiring a type builds the next snapshot, recompiling only that type.
The identifier is the one owner of the model: it keeps a private copy of
the corpus the snapshot was trained on, and changes both in one step.

Instrumented with ``repro.obs``: the per-stage spans (``identify``,
``identify.classify[.bank]``, ``identify.discriminate``) mirror the
Table IV step breakdown — see ``docs/observability.md``.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from repro.ml.compiled import CompiledBank, CompiledForest, compile_forest
from repro.ml.forest import RandomForestClassifier
from repro.ml.parallel import derive_entropy, label_rng
from repro.ml.sampling import build_binary_training_set
from repro.obs import counter as obs_counter
from repro.obs import names as obs_names
from repro.obs import span as obs_span

from .editdistance import dissimilarity_scores
from .fingerprint import DEFAULT_FP_PACKETS, Fingerprint
from .registry import DeviceTypeRegistry

__all__ = ["UNKNOWN_DEVICE", "IdentificationResult", "ModelSnapshot", "DeviceIdentifier",
           "DuplicateTypeError", "NoCorpusError"]

#: Sentinel label returned when no classifier accepts a fingerprint.
UNKNOWN_DEVICE = "unknown"


class DuplicateTypeError(ValueError):
    """Enrolment of a label the model already serves."""


class NoCorpusError(RuntimeError):
    """Enrolment asked of an identifier without a training corpus (a
    model loaded from a file): a new type trains against the others."""


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


@dataclass(frozen=True, eq=False)
class _TypeModel:
    """One trained type: its forest's node tables and its references.

    The interpreted forest is fitted, compiled and dropped in
    ``_train_type``; a loaded model never had one.
    """

    label: str
    compiled: CompiledForest
    references: tuple[Fingerprint, ...]

    @cached_property
    def grouped_references(self) -> list[tuple[tuple[int, ...], int]]:
        """Distinct reference symbol sequences with multiplicities.

        Repeated setup runs often yield identical fingerprints; the
        discrimination step computes each distinct sequence's distance once
        and weights it.  Sorted for a deterministic evaluation order;
        computed on first use, after the first probe's symbols are
        interned (references never change once trained).
        """
        counts = Counter(ref.symbols() for ref in self.references)
        return sorted(counts.items())


@dataclass(frozen=True, eq=False)
class ModelSnapshot:
    """One immutable version of the trained classifier bank.

    ``models`` maps each label to its :class:`_TypeModel`, whose
    :class:`~repro.ml.compiled.CompiledForest` is the only form of its
    forest: compiled once, when the type was trained (the interpreted
    forest is then dropped), or read from an npz payload.  A successor
    snapshot shares every unchanged ``_TypeModel`` object, so enrolling
    one type compiles one forest.  :attr:`bank`, the stage-1
    :class:`~repro.ml.compiled.CompiledBank`, is concatenated from those
    per-type arrays on first read, once per snapshot.
    """

    version: int
    models: Mapping[str, _TypeModel] = field(repr=False)
    _bank: CompiledBank | None = field(default=None, init=False, repr=False)
    _assembly: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self) -> None:
        frozen = MappingProxyType({label: self.models[label] for label in sorted(self.models)})
        object.__setattr__(self, "models", frozen)

    @property
    def labels(self) -> list[str]:
        return list(self.models)

    @property
    def bank(self) -> CompiledBank:
        with self._assembly:
            bank = self._bank
            if bank is None:
                bank = CompiledBank([(label, model.compiled) for label, model in self.models.items()])
                object.__setattr__(self, "_bank", bank)
        return bank

    def successor(self, models: Mapping[str, _TypeModel]) -> "ModelSnapshot":
        """The next version, holding ``models``."""
        return ModelSnapshot(self.version + 1, models)


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

    The trained bank is one immutable :class:`ModelSnapshot` held by a
    single reference (:attr:`snapshot`), beside a private copy of the
    corpus it was trained on (:attr:`corpus`).  :meth:`fit`,
    :meth:`add_type` and :meth:`remove_type` each build the next snapshot
    and corpus under one writer lock and swap both references; only a
    changed type is trained and compiled.  :meth:`adopt` installs a
    snapshot built elsewhere (a model file or store).  Readers take no
    lock; they only wait while a type trains.  :meth:`identify_batch`
    pins the snapshot it starts with, so both
    stages of one batch are answered by one version.  Stage 1 runs on
    the snapshot's :class:`~repro.ml.compiled.CompiledBank` — one flat
    node table for the whole bank, traversed with vectorized gathers and
    byte-identical to each forest's own ``predict_proba``.
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
        self._writer = threading.Lock()
        self._snapshot = ModelSnapshot(0, {})
        self._corpus = DeviceTypeRegistry()
        self._pin = threading.local()
        #: Set unless a type is training; :meth:`identify_batch` waits on it.
        self._idle = threading.Event()
        self._idle.set()

    # --- training ---------------------------------------------------------

    def fit(self, registry: DeviceTypeRegistry) -> "DeviceIdentifier":
        """Train one classifier per type in the registry (from scratch).

        Each type trains from its own ``(seed, label)``-derived generator,
        so every model equals the one :meth:`add_type` would train.  The
        identifier keeps its own copy of ``registry``.
        """
        if len(registry) < 2:
            raise ValueError("need at least two device types to train")
        corpus = registry.copy()
        with self._writer:
            with obs_span(obs_names.SPAN_TRAIN_FIT, types=len(corpus)):
                models = {label: self._train_type(corpus, label) for label in corpus.labels}
            self._snapshot = self._snapshot.successor(models)
            self._corpus = corpus
        return self

    def add_type(self, label: str, fingerprints: Iterable[Fingerprint]) -> None:
        """Enrol one new type without touching the others.

        Trains ``label`` (the model :meth:`fit` would train) on a copy of
        the corpus with ``fingerprints`` added, then publishes the next
        snapshot and that corpus together; other types carry over as is.
        The :class:`DuplicateTypeError` and :class:`NoCorpusError` checks
        run under the writer lock too, so one label is enrolled once.
        """
        with self._writer:
            if label in self._snapshot.models:
                raise DuplicateTypeError(f"device type already enrolled: {label}")
            if not len(self._corpus):
                raise NoCorpusError(
                    "no training corpus: this model was loaded without the "
                    "corpus it was trained on, so it cannot train a new type"
                )
            corpus = self._corpus.with_added(label, fingerprints)
            model = self._train_type(corpus, label)
            self._snapshot = self._snapshot.successor({**self._snapshot.models, label: model})
            self._corpus = corpus

    def remove_type(self, label: str) -> None:
        """Retire ``label`` from the model and from the corpus."""
        with self._writer:
            models = dict(self._snapshot.models)
            del models[label]
            corpus = self._corpus.copy()
            if label in corpus:  # a model loaded without its corpus has none
                corpus.remove_type(label)
            self._snapshot = self._snapshot.successor(models)
            self._corpus = corpus

    def adopt(self, snapshot: ModelSnapshot, corpus: DeviceTypeRegistry | None = None) -> None:
        """Serve ``snapshot`` (loaded from a model file or store), trained with
        these hyper-parameters on ``corpus``; without one it cannot enrol."""
        private = DeviceTypeRegistry() if corpus is None else corpus.copy()
        with self._writer:
            self._snapshot = snapshot
            self._corpus = private

    @property
    def snapshot(self) -> ModelSnapshot:
        """The current model snapshot."""
        return self._snapshot

    @property
    def corpus(self) -> DeviceTypeRegistry:
        """A copy of the corpus the current snapshot was trained on."""
        return self._corpus.copy()

    def _reading(self) -> ModelSnapshot:
        """The snapshot this thread's batch is pinned to, else the current one."""
        pinned = getattr(self._pin, "snapshot", None)
        return self._snapshot if pinned is None else pinned

    @contextmanager
    def _training(self) -> Iterator[None]:
        """Hold identification off while a type trains: under the GIL the
        two would only share one interpreter, and enrolment would wait."""
        self._idle.clear()
        try:
            yield
        finally:
            self._idle.set()

    def _train_type(self, registry: DeviceTypeRegistry, label: str) -> _TypeModel:
        with obs_span(obs_names.SPAN_TRAIN_TYPE, label=label), self._training():
            rng = label_rng(self._entropy, label)
            positives = registry.positives_matrix(label, self.fp_length)
            negatives = registry.negatives_matrix(label, self.fp_length)
            x, y = build_binary_training_set(
                positives, negatives, ratio=self.negative_ratio, rng=rng
            )
            compiled = compile_forest(
                RandomForestClassifier(
                    n_estimators=self.n_estimators,
                    max_depth=self.max_depth,
                    random_state=rng,
                ).fit(x, y)
            )
            pool = registry.fingerprints(label)
            take = min(self.n_references, len(pool))
            chosen = rng.choice(len(pool), size=take, replace=False)
            obs_counter(obs_names.METRIC_TYPES_TRAINED).inc()
            return _TypeModel(
                label=label,
                compiled=compiled,
                references=tuple(pool[int(i)] for i in chosen),
            )

    @property
    def labels(self) -> list[str]:
        return self._snapshot.labels

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
        snapshot = self._reading()
        if not snapshot.models:
            raise RuntimeError("identifier is not trained")
        if not fingerprints:
            return []
        with obs_span(obs_names.SPAN_CLASSIFY, batch=len(fingerprints)):
            stacked = np.vstack([fp.fixed(self.fp_length) for fp in fingerprints])
            bank = snapshot.bank
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
        models = self._reading().models
        with obs_span(obs_names.SPAN_DISCRIMINATE, candidates=len(candidates)):
            obs_counter(obs_names.METRIC_DISCRIMINATIONS).inc()
            # Symbols before references: interning order fixes the symbol
            # ids, and with them the order each label's groups sum in.
            symbols = fingerprint.symbols()
            labels = sorted(set(candidates))
            groups = [models[label].grouped_references for label in labels]
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
        """The full two-stage pipeline over many fingerprints (one stage-1 pass).

        Both stages read the snapshot current when the batch starts, so
        the whole batch is answered by one model version even while
        another thread enrols or retires a type.  A batch starts only
        while no type is training.
        """
        self._idle.wait()
        self._pin.snapshot = self._snapshot
        try:
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
        finally:
            self._pin.snapshot = None
