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
    "dissimilarity_scores",
    "osa_distances",
]


@lru_cache(maxsize=1024)
def _packed_masks(
    patterns: tuple[tuple[Hashable, ...], ...],
) -> tuple[dict[Hashable, int], int, int, tuple[tuple[int, int], ...]]:
    """Match masks of ``patterns`` packed side by side into one wide int.

    Pattern ``i`` occupies a block of ``len(pattern)`` bits followed by
    one zero guard bit, so a carry out of a block's top stops in its guard
    instead of reaching the next block.  Returns the per-symbol masks, the
    blocks' bottom bits, every block bit, and each block's ``(offset,
    width mask)``.  Keyed by content, so the masks can never go stale when
    types are enrolled or retired; the dict is shared between callers and
    must not be mutated.
    """
    masks: dict[Hashable, int] = {}
    bottoms = blocks = offset = 0
    spans: list[tuple[int, int]] = []
    for pattern in patterns:
        for position, symbol in enumerate(pattern, offset):
            masks[symbol] = masks.get(symbol, 0) | (1 << position)
        width = (1 << len(pattern)) - 1
        if pattern:
            bottoms |= 1 << offset
        blocks |= width << offset
        spans.append((offset, width))
        offset += len(pattern) + 1
    return masks, bottoms, blocks, tuple(spans)


def osa_distances(
    a: Sequence[Hashable], patterns: tuple[tuple[Hashable, ...], ...]
) -> list[int]:
    """Restricted Damerau–Levenshtein (OSA) distance from ``a`` to each pattern.

    Hyyrö's bit-vector algorithm (2003), run for every pattern at once:
    the DP column for a prefix of ``a`` against every prefix of a pattern
    is held as vertical +1/-1 deltas in ``vp``/``vn``, one bit per pattern
    symbol, and all patterns sit in one Python int separated by guard bits
    (the multi-pattern packing of Hyyrö, Fredriksson & Navarro, 2005).
    Each symbol of ``a`` advances every column with about twenty int
    operations, ``tr`` adding the transposition diagonal.  Against the
    one-pattern recurrence only one thing changes: ``hp`` gets its +1 at
    the bottom of *every* block (each pattern's empty-prefix row).  A
    guard stays clear in ``vp``, which is masked to the block bits, and
    in ``pm``; the carry it catches in ``d0``/``vn`` only ever shifts into
    the next block's bottom bit of ``hp``, which that +1 overrides, or
    into ``vp`` bits the mask clears.  A block's final deltas sum to its
    distance less ``len(a)``.  The packed masks are cached by content, so
    pass the patterns that repeat across calls (references).
    """
    masks, bottoms, blocks, spans = _packed_masks(patterns)
    vp, vn, d0, pm_prev = blocks, 0, 0, 0
    for symbol in a:
        pm = masks.get(symbol, 0)
        tr = ((pm & ~d0) << 1) & pm_prev
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | tr
        hp = ((vn | ~(d0 | vp)) << 1) | bottoms
        vp = (((d0 & vp) << 1) | ~(d0 | hp)) & blocks
        vn = hp & d0
        pm_prev = pm
    n = len(a)
    return [
        n + ((vp >> offset) & width).bit_count() - ((vn >> offset) & width).bit_count()
        for offset, width in spans
    ]


def damerau_levenshtein(
    a: Sequence[Hashable], b: Sequence[Hashable], *, cutoff: int | None = None
) -> int:
    """Restricted Damerau–Levenshtein (OSA) distance between two sequences.

    With ``cutoff`` set, the result is guaranteed exact only when the true
    distance is *below* ``cutoff`` and otherwise lies in ``[cutoff, true
    distance]``, so callers asking "is it closer than my current best?"
    get the exact answer in the cases that matter.  The value computed is
    always exact, which meets that contract.  One-pattern use of
    :func:`osa_distances`; ``b``'s masks are cached, so pass the sequence
    that repeats across calls as ``b``.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    return osa_distances(a, (tuple(b),))[0]


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
    # A negative bound is passed by every distance, the lowest being 1.
    int_cutoff = max(1, int(cutoff * longest) + 1)
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
    grouping weights each distinct reference's distance by its multiplicity
    — the same sum, fewer distances.  ``bound`` semantics match
    :func:`dissimilarity_score`.
    """
    return dissimilarity_scores(candidate, [groups], bound=bound)[0]


def dissimilarity_scores(
    candidate: Sequence[Hashable],
    group_lists: Sequence[Sequence[tuple[Sequence[Hashable], int]]],
    *,
    bound: float | None = None,
) -> list[float]:
    """:func:`dissimilarity_score_grouped` for several group lists at once.

    Every distinct reference of every list goes through one
    :func:`osa_distances` pass; each list's terms are then summed in its
    own order, so the scores equal one grouped call per list bit for bit.
    ``bound`` applies to every list's running sum.
    """
    index: dict[tuple[Hashable, ...], int] = {}
    slots = [[index.setdefault(tuple(ref), len(index)) for ref, _ in groups] for groups in group_lists]
    distances = osa_distances(candidate, tuple(index))
    n = len(candidate)
    scores: list[float] = []
    for groups, positions in zip(group_lists, slots):
        total = 0.0
        for (reference, count), i in zip(groups, positions):
            longest = max(n, len(reference))
            term = distances[i] / longest if longest else 0.0
            if bound is None:
                total += count * term
                continue
            remaining = (bound - total) / count
            total += count * term
            if term > remaining:
                # The term exceeds the remaining budget, so the true score
                # is > bound — but the rounded running sum can land exactly
                # on bound, so bump past it explicitly.
                total = max(total, math.nextafter(bound, math.inf))
                break
        scores.append(total)
    return scores
