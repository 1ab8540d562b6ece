"""Device fingerprints: the variable-length matrix ``F`` and fixed ``F'``.

``F`` keeps one column per packet (Eq. 1 of the paper) with *consecutive
duplicates removed*; ``F'`` concatenates the first
:data:`DEFAULT_FP_PACKETS` *unique* packet vectors into a flat
``12 × 23 = 276``-dimensional vector, zero-padded when fewer unique packets
exist.  We store ``F`` transposed (rows = packets) because that is the
natural numpy orientation; :attr:`Fingerprint.matrix` exposes the paper's
23×n layout for fidelity.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_FP_PACKETS, FIXED_VECTOR_DIM
from .features import NUM_FEATURES

__all__ = [
    "DEFAULT_FP_PACKETS",
    "FIXED_VECTOR_DIM",
    "Fingerprint",
    "dedupe_consecutive",
    "fixed_vector",
    "intern_symbol",
]


def dedupe_consecutive(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Drop packets identical (feature-wise) to their predecessor.

    Implements "Consecutive identical packets from our feature set
    perspective (i.e. p_i = p_{i+1}) are discarded from F".
    """
    out: list[np.ndarray] = []
    for vector in vectors:
        if out and np.array_equal(out[-1], vector):
            continue
        out.append(np.asarray(vector, dtype=np.float64))
    return out


def fixed_vector(
    packet_vectors: Sequence[np.ndarray], length: int = DEFAULT_FP_PACKETS
) -> np.ndarray:
    """Build ``F'``: first ``length`` *unique* packet vectors, zero-padded."""
    if length < 1:
        raise ValueError("length must be positive")
    unique: list[np.ndarray] = []
    seen: set[tuple] = set()
    for vector in packet_vectors:
        key = tuple(np.asarray(vector).tolist())
        if key in seen:
            continue
        seen.add(key)
        unique.append(np.asarray(vector, dtype=np.float64))
        if len(unique) == length:
            break
    out = np.zeros(length * NUM_FEATURES, dtype=np.float64)
    for i, vector in enumerate(unique):
        out[i * NUM_FEATURES : (i + 1) * NUM_FEATURES] = vector
    return out


# Process-wide intern table mapping packet feature tuples to small integer
# ids.  Edit-distance discrimination compares packet "characters" millions
# of times per batch; comparing interned ints instead of 23-float tuples
# keeps equality O(1) and cache-friendly.  The table is append-only and
# bounded by the number of *distinct* packet vectors ever fingerprinted
# (small in practice: feature vectors are heavily quantized).
_SYMBOL_IDS: dict[tuple[float, ...], int] = {}
_SYMBOL_LOCK = threading.Lock()


def intern_symbol(packet: tuple[float, ...]) -> int:
    """Stable integer id for a packet feature tuple (equal iff all 23 match)."""
    sid = _SYMBOL_IDS.get(packet)
    if sid is None:
        with _SYMBOL_LOCK:
            sid = _SYMBOL_IDS.get(packet)
            if sid is None:
                sid = _SYMBOL_IDS[packet] = len(_SYMBOL_IDS)
    return sid


@dataclass(frozen=True)
class Fingerprint:
    """One device fingerprint: packet-feature rows plus metadata."""

    packets: tuple[tuple[float, ...], ...]
    device_mac: str = ""
    label: str | None = None
    #: Per-instance memo for derived views (F' per length, interned symbols).
    #: Excluded from equality/hash/repr; safe to fill lazily on the frozen
    #: dataclass because every entry is a pure function of ``packets``.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_vectors(
        cls,
        vectors: Iterable[np.ndarray],
        *,
        device_mac: str = "",
        label: str | None = None,
    ) -> "Fingerprint":
        """Construct from raw per-packet feature vectors (applies dedup).

        Shape validation happens *before* consecutive-duplicate removal so a
        malformed vector is always rejected, even when it would have been
        dropped as a duplicate of its predecessor.
        """
        arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
        for vector in arrays:
            if vector.shape != (NUM_FEATURES,):
                raise ValueError(f"feature vector must have {NUM_FEATURES} entries")
        deduped = dedupe_consecutive(arrays)
        return cls(
            packets=tuple(tuple(float(x) for x in v) for v in deduped),
            device_mac=device_mac,
            label=label,
        )

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        *,
        device_mac: str = "",
        label: str | None = None,
    ) -> "Fingerprint":
        """Construct from an ``(n, NUM_FEATURES)`` feature matrix (applies dedup).

        The batch twin of :meth:`from_vectors` — consecutive-duplicate
        removal happens as one vectorized row comparison instead of a
        Python loop, producing a byte-identical fingerprint (note that a
        NaN entry makes a row compare unequal to itself under both
        ``np.array_equal`` and elementwise ``!=``, so even that edge
        agrees).
        """
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != NUM_FEATURES:
            raise ValueError(f"feature matrix must have {NUM_FEATURES} columns")
        if m.shape[0]:
            keep = np.empty(m.shape[0], dtype=bool)
            keep[0] = True
            np.any(m[1:] != m[:-1], axis=1, out=keep[1:])
            m = m[keep]
        return cls(
            packets=tuple(tuple(row) for row in m.tolist()),
            device_mac=device_mac,
            label=label,
        )

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def matrix(self) -> np.ndarray:
        """The paper's 23×n matrix F (features as rows, packets as columns)."""
        if not self.packets:
            return np.zeros((NUM_FEATURES, 0))
        return np.asarray(self.packets, dtype=np.float64).T

    @property
    def rows(self) -> np.ndarray:
        """Packets-as-rows orientation (n×23) for numpy-friendly work."""
        if not self.packets:
            return np.zeros((0, NUM_FEATURES))
        return np.asarray(self.packets, dtype=np.float64)

    def fixed(self, length: int = DEFAULT_FP_PACKETS) -> np.ndarray:
        """The fixed-size vector F' (length × 23 entries).

        Built straight from the packet tuples, byte-identical to
        ``fixed_vector(self.rows, length)``: a packet is dropped when it
        equals an earlier one, except that a NaN-bearing packet never
        does (tuple comparison would call two packets holding one shared
        NaN object equal, so NaN is checked explicitly).  Memoized per
        ``length`` and returned as a read-only array (copy before
        mutating), since stage 1 and training both read it.
        """
        key = ("fixed", length)
        cached = self._cache.get(key)
        if cached is None:
            if length < 1:
                raise ValueError("length must be positive")
            unique: list[tuple[float, ...]] = []
            seen: set[tuple[float, ...]] = set()
            for packet in self.packets:
                row = tuple(packet)
                if row in seen and all(x == x for x in row):
                    continue
                seen.add(row)
                unique.append(row)
                if len(unique) == length:
                    break
            out = np.zeros((length, NUM_FEATURES), dtype=np.float64)
            if unique:
                out[: len(unique)] = unique
            cached = out.reshape(-1)
            cached.setflags(write=False)
            self._cache[key] = cached
        return cached

    def symbols(self) -> tuple[int, ...]:
        """Packets as interned integer symbols for edit-distance comparison.

        Two symbols are equal iff all 23 features match (the paper's
        character-equality rule); interning makes that an integer compare
        instead of a 23-tuple compare in the discrimination hot loop.
        Memoized per instance.
        """
        cached = self._cache.get("symbols")
        if cached is None:
            cached = tuple(intern_symbol(packet) for packet in self.packets)
            self._cache["symbols"] = cached
        return cached
