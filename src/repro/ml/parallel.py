"""Deterministic per-label seeding for training.

This module sits at the bottom of the ML layer (below ``repro.core``,
which builds the identifier on top of it — see the layering DAG in
``docs/static-analysis.md``).  The classifier bank trains one independent
Random Forest per device type.  Every unit of work gets its **own**
:class:`numpy.random.Generator`, derived from the identifier's base
entropy plus a stable hash of the work item's label via
:class:`numpy.random.SeedSequence`, so a trained model depends only on
``(seed, label, corpus content)``: it is byte-identical whether the type
arrived via :meth:`~repro.core.identifier.DeviceIdentifier.fit` or
:meth:`~repro.core.identifier.DeviceIdentifier.add_type`, and whatever
other types exist or the order they are trained in.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "derive_entropy",
    "label_seed_sequence",
    "label_rng",
    "spawn_generators",
]


def derive_entropy(
    random_state: int | np.random.Generator | np.random.SeedSequence | None,
) -> int:
    """Reduce any accepted ``random_state`` to a single integer entropy.

    * int — used as-is (the reproducible path);
    * Generator — one 63-bit draw, so repeated constructions from a shared
      generator (e.g. the cross-validation harness) stay distinct;
    * SeedSequence — its entropy pool, hashed to one word;
    * None — fresh OS entropy.
    """
    if isinstance(random_state, (int, np.integer)):
        return int(random_state)
    if isinstance(random_state, np.random.Generator):
        return int(random_state.integers(0, 2**63))
    if isinstance(random_state, np.random.SeedSequence):
        return int(random_state.generate_state(1, np.uint64)[0])
    if random_state is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    raise TypeError(f"unsupported random_state: {type(random_state).__name__}")


def label_seed_sequence(entropy: int, label: str) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` unique to ``(entropy, label)``.

    The label contributes through a SHA-256 digest, so the sequence depends
    only on the pair — not on how many other labels exist or the order
    they are trained in.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.SeedSequence([entropy & (2**64 - 1), *words])


def label_rng(entropy: int, label: str) -> np.random.Generator:
    """A generator seeded by :func:`label_seed_sequence`."""
    return np.random.default_rng(label_seed_sequence(entropy, label))


def spawn_generators(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators drawn deterministically from ``rng``.

    Children are seeded from integer draws on the parent stream (not
    :meth:`~numpy.random.Generator.spawn`, which needs numpy ≥ 1.25), so the
    result depends only on the parent's state.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    seeds = rng.integers(0, 2**63, size=n)
    return [np.random.default_rng(int(seed)) for seed in seeds]

