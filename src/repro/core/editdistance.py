"""Damerau–Levenshtein edit distance over packet-symbol sequences.

The discrimination step (Sect. IV-B.2) treats the fingerprint matrix ``F``
as a word whose characters are packet columns; two characters are equal iff
*all 23 features* match.  The distance counts insertions, deletions,
substitutions and *immediate transpositions* (the restricted /
optimal-string-alignment variant of Damerau [24]) and is normalized by the
longer sequence's length to land in [0, 1].
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from typing import Hashable

__all__ = [
    "damerau_levenshtein",
    "damerau_levenshtein_unrestricted",
    "normalized_distance",
    "dissimilarity_score",
    "dissimilarity_score_grouped",
]


@lru_cache(maxsize=4096)
def _match_masks(pattern: tuple[Hashable, ...]) -> dict[Hashable, int]:
    """Per-symbol bitmask of the positions where ``pattern`` holds it.

    Keyed by content, so a reference sequence's masks are built once and
    can never go stale when types are enrolled or retired.  The returned
    dict is shared between callers and must not be mutated.
    """
    masks: dict[Hashable, int] = {}
    for position, symbol in enumerate(pattern):
        masks[symbol] = masks.get(symbol, 0) | (1 << position)
    return masks


def damerau_levenshtein(
    a: Sequence[Hashable], b: Sequence[Hashable], *, cutoff: int | None = None
) -> int:
    """Restricted Damerau–Levenshtein (OSA) distance between two sequences.

    With ``cutoff`` set, the result is guaranteed exact only when the true
    distance is *below* ``cutoff`` and otherwise lies in ``[cutoff, true
    distance]``, so callers asking "is it closer than my current best?"
    get the exact answer in the cases that matter.  The value computed is
    always exact, which meets that contract.

    Hyyrö's bit-vector algorithm (2003): the DP column for a prefix of
    ``a`` against every prefix of ``b`` is held as vertical +1/-1 deltas in
    ``vp``/``vn``, one bit per symbol of ``b`` — Python's unbounded ints
    make any length one word.  Each symbol of ``a`` advances the column
    with about twenty int operations, ``tr`` adding the transposition
    diagonal.  Bits above ``len(b)`` only carry or shift upwards, so they
    never disturb the column; masking keeps them from piling up.  The
    final column's top cell (``b`` empty) is ``len(a)`` and its deltas sum
    to the distance.  ``b``'s match masks are cached by content, so pass
    the sequence that repeats across calls (a reference) as ``b``.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    m = len(b)
    if m == 0:
        return len(a)
    masks = _match_masks(tuple(b))
    full = (1 << m) - 1
    vp, vn, d0, pm_prev = full, 0, 0, 0
    for symbol in a:
        pm = masks.get(symbol, 0)
        tr = ((pm & ~d0) << 1) & pm_prev
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | tr
        hp = ((vn | ~(d0 | vp)) << 1) | 1
        vp = (((d0 & vp) << 1) | ~(d0 | hp)) & full
        vn = hp & d0
        pm_prev = pm
    return len(a) + vp.bit_count() - (vn & full).bit_count()


def damerau_levenshtein_unrestricted(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """True Damerau–Levenshtein distance (transposed symbols may be edited).

    Unlike the restricted/OSA variant, a transposed pair may take part in
    further edits — e.g. ``ca -> abc`` costs 2 here (transpose ``ca`` →
    ``ac``, insert ``b``) but 3 under OSA.  Costs O(n·m) time and keeps a
    last-seen-row index per symbol (the Lowrance–Wagner algorithm).

    Exposed for the distance-variant ablation; the pipeline defaults to
    the OSA variant, which is what fingerprint implementations typically
    ship and, computed bit-parallel, is an order of magnitude faster.
    """
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    max_dist = n + m
    # d has a sentinel row/column at index 0 holding max_dist.
    d = [[0] * (m + 2) for _ in range(n + 2)]
    d[0][0] = max_dist
    for i in range(n + 1):
        d[i + 1][0] = max_dist
        d[i + 1][1] = i
    for j in range(m + 1):
        d[0][j + 1] = max_dist
        d[1][j + 1] = j
    last_row: dict[Hashable, int] = {}
    for i in range(1, n + 1):
        last_match_col = 0
        for j in range(1, m + 1):
            i_prime = last_row.get(b[j - 1], 0)
            j_prime = last_match_col
            if a[i - 1] == b[j - 1]:
                cost = 0
                last_match_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,  # substitution / match
                d[i + 1][j] + 1,  # insertion
                d[i][j + 1] + 1,  # deletion
                d[i_prime][j_prime] + (i - i_prime - 1) + 1 + (j - j_prime - 1),
            )
        last_row[a[i - 1]] = i
    return d[n + 1][m + 1]


def normalized_distance(
    a: Sequence[Hashable], b: Sequence[Hashable], *, cutoff: float | None = None
) -> float:
    """Edit distance divided by the longer length, bounded on [0, 1].

    ``cutoff`` (a normalized bound) follows :func:`damerau_levenshtein`'s
    contract: the result is exact whenever the true normalized distance is
    ≤ ``cutoff``, and otherwise lies in ``(cutoff, true distance]``.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    if cutoff is None:
        return damerau_levenshtein(a, b) / longest
    # Smallest integer distance that would push the normalized value past
    # the bound; any true distance at or below cutoff·longest stays exact.
    int_cutoff = int(cutoff * longest) + 1
    return damerau_levenshtein(a, b, cutoff=int_cutoff) / longest


def dissimilarity_score(
    candidate: Sequence[Hashable],
    references: Sequence[Sequence[Hashable]],
    *,
    bound: float | None = None,
) -> float:
    """Summed normalized distance of ``candidate`` to each reference.

    With the paper's five references per device type the score lies in
    [0, 5]; the lowest-scoring type wins the discrimination step.

    ``bound`` short-circuits a losing candidate: once the running sum
    provably exceeds it, the remaining references are skipped and the
    partial sum (already > ``bound``) is returned.  Results with a true
    score ≤ ``bound`` are always exact, so the eventual winner and every
    tie within the bound are unaffected.
    """
    return dissimilarity_score_grouped(
        candidate, [(reference, 1) for reference in references], bound=bound
    )


def dissimilarity_score_grouped(
    candidate: Sequence[Hashable],
    groups: Sequence[tuple[Sequence[Hashable], int]],
    *,
    bound: float | None = None,
) -> float:
    """:func:`dissimilarity_score` over deduplicated ``(reference, count)`` groups.

    Reference fingerprints are repeated setup runs and frequently identical;
    grouping computes each distinct reference's distance once and weights it
    by multiplicity — the same sum, fewer DP runs.  ``bound`` semantics match
    :func:`dissimilarity_score`.
    """
    total = 0.0
    for reference, count in groups:
        if bound is None:
            total += count * normalized_distance(candidate, reference)
        else:
            remaining = (bound - total) / count
            term = normalized_distance(candidate, reference, cutoff=remaining)
            total += count * term
            if term > remaining:
                # The term (exact, or a certificate strictly above the
                # cutoff) exceeds the remaining budget, so the true
                # score is provably > bound — but the rounded running sum can
                # land exactly on bound, so bump past it explicitly.
                return max(total, math.nextafter(bound, math.inf))
    return total
