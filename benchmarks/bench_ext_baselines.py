"""Extension — IoT Sentinel vs the baseline designs it argues against.

Measures the three arguments of Sect. IV-B / VII-B:

1. *Accuracy*: the sequence-aware F' matches or beats order-free
   aggregate statistics [12][21], especially inside sibling groups whose
   setup dialogues differ mainly in ordering/length structure.
2. *Enrollment cost*: adding one type retrains one small binary forest in
   the classifier bank, but forces a full relearn of a multi-class model
   (GTID-style [20]) whose cost grows with the type population.
3. *New-device discovery*: the bank can reject a fingerprint every
   classifier declines; a multi-class model always forces a known label.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import write_result

from repro.core import DeviceIdentifier, DeviceTypeRegistry
from repro.core.baselines import MulticlassIdentifier
from repro.devices import collect_fingerprints, profile_by_name
from repro.ml.validation import stratified_kfold
from repro.reporting import render_table


def _cv_accuracy(corpus, make_identifier, *, folds: int = 5, seed: int = 3) -> float:
    rng = np.random.default_rng(seed)
    pairs = [(label, fp) for label in corpus.labels for fp in corpus.fingerprints(label)]
    y = np.array([label for label, _ in pairs])
    correct = total = 0
    for train_idx, test_idx in stratified_kfold(y, folds, rng=rng):
        fold = DeviceTypeRegistry()
        for i in train_idx:
            label, fp = pairs[i]
            fold.add(label, fp)
        identifier = make_identifier(rng).fit(fold)
        test_pairs = [pairs[i] for i in test_idx]
        predictions = identifier.identify_batch([fp for _, fp in test_pairs])
        for (label, _), predicted in zip(test_pairs, predictions):
            predicted_label = getattr(predicted, "label", predicted)
            correct += predicted_label == label
            total += 1
    return correct / total


def test_ext_baseline_comparison(corpus, benchmark):
    def run():
        sentinel_acc = _cv_accuracy(
            corpus, lambda rng: DeviceIdentifier(random_state=rng)
        )
        multiclass_acc = _cv_accuracy(
            corpus, lambda rng: MulticlassIdentifier(features="sequence", random_state=rng)
        )
        aggregate_acc = _cv_accuracy(
            corpus, lambda rng: MulticlassIdentifier(features="aggregate", random_state=rng)
        )

        # Enrollment cost: time to add the 28th type.
        v2 = profile_by_name("Withings")
        extra = collect_fingerprints(v2, runs=20, rng=np.random.default_rng(9))
        grown = DeviceTypeRegistry()
        for label in corpus.labels:
            grown.add_many(label, corpus.fingerprints(label))
        grown.add_many("Withings-2", extra)

        bank = DeviceIdentifier(random_state=1).fit(corpus_registry(corpus))
        start = time.perf_counter()
        bank.add_type("Withings-2", extra)
        bank_add = time.perf_counter() - start

        multi = MulticlassIdentifier(features="sequence", random_state=1).fit(
            corpus_registry(corpus)
        )
        start = time.perf_counter()
        multi.add_type(grown, "Withings-2")
        multi_add = time.perf_counter() - start

        return sentinel_acc, multiclass_acc, aggregate_acc, bank_add, multi_add

    def corpus_registry(corpus):
        registry = DeviceTypeRegistry()
        for label in corpus.labels:
            registry.add_many(label, corpus.fingerprints(label))
        return registry

    sentinel_acc, multiclass_acc, aggregate_acc, bank_add, multi_add = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    write_result(
        "ext_baselines.txt",
        render_table(
            ["System", "5-fold CV accuracy", "Add-one-type cost (s)", "New-device reject path"],
            [
                ["IoT Sentinel (per-type bank, F')",
                 f"{sentinel_acc:.3f}", f"{bank_add:.2f}", "yes"],
                ["Single multi-class RF, F' (GTID-style)",
                 f"{multiclass_acc:.3f}", f"{multi_add:.2f}", "no"],
                ["Single multi-class RF, aggregate stats [12][21]",
                 f"{aggregate_acc:.3f}", "-", "no"],
            ],
        ),
    )

    # Argument 1: sequence features competitive with or better than both.
    assert sentinel_acc >= aggregate_acc - 0.05
    # Argument 2: incremental enrollment is far cheaper than full relearn.
    assert bank_add < multi_add
    # Argument 3: the multi-class model cannot reject.  (Behavioural, not
    # numeric: MulticlassIdentifier.identify returns a known label always.)
    multi = MulticlassIdentifier(features="sequence", random_state=2).fit(
        corpus_registry(corpus)
    )
    alien = collect_fingerprints(profile_by_name("Aria"), runs=1, rng=np.random.default_rng(1))[0]
    assert multi.identify(alien) in corpus.labels
