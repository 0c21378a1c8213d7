"""Sequence-based fingerprint matching (§8.3, implemented future work).

The paper's set-intersection metric discards ordering.  §8.3 sketches
a richer matcher that treats the dynamic PC sequence like a genome and
aligns it against reference sequences, tolerating measurement error
the way sequence alignment tolerates mutations.  This module
implements that sketch with Smith–Waterman local alignment over
*normalized PC* tokens:

* match reward for identical relative PCs;
* near-match reward for PCs within a small tolerance (misresolved
  bases);
* gap penalties for dropped/extra measurements.

Reference sequences are the function's static PCs in address order —
a cheap stand-in for "some execution order" that already captures far
more structure than a set.  The score is normalized by the best
possible self-alignment of the victim sequence, so results live in
``[0, 1]`` and are comparable with the set metric.
"""

from __future__ import annotations

from typing import List, Sequence

MATCH_SCORE = 2.0
NEAR_MATCH_SCORE = 1.0
MISMATCH_PENALTY = -1.0
GAP_PENALTY = -0.75
NEAR_TOLERANCE = 3


def _token_score(a: int, b: int) -> float:
    if a == b:
        return MATCH_SCORE
    if abs(a - b) <= NEAR_TOLERANCE:
        return NEAR_MATCH_SCORE
    return MISMATCH_PENALTY


def local_alignment_score(victim: Sequence[int],
                          reference: Sequence[int]) -> float:
    """Raw Smith–Waterman local alignment score."""
    if not victim or not reference:
        return 0.0
    previous = [0.0] * (len(reference) + 1)
    best = 0.0
    for v_token in victim:
        current = [0.0] * (len(reference) + 1)
        for column in range(1, len(reference) + 1):
            diagonal = previous[column - 1] + _token_score(
                v_token, reference[column - 1])
            up = previous[column] + GAP_PENALTY
            left = current[column - 1] + GAP_PENALTY
            score = max(0.0, diagonal, up, left)
            current[column] = score
            if score > best:
                best = score
        previous = current
    return best


def sequence_similarity(victim: Sequence[int],
                        reference: Sequence[int]) -> float:
    """Alignment score normalized to ``[0, 1]`` by the victim's
    perfect self-alignment (``len(victim) * MATCH_SCORE``)."""
    if not victim:
        return 0.0
    ceiling = len(victim) * MATCH_SCORE
    return min(1.0, local_alignment_score(victim, reference) / ceiling)


def downsample(sequence: Sequence[int], limit: int) -> List[int]:
    """Cap alignment cost on long traces by uniform subsampling.

    Keeps at most ``limit`` items (none for 0); a negative ``limit``
    raises ``ValueError``.
    """
    if limit < 0:
        raise ValueError(f"downsample limit must be >= 0, got {limit}")
    if limit == 0:
        return []
    if len(sequence) <= limit:
        return list(sequence)
    step = len(sequence) / limit
    return [sequence[int(index * step)] for index in range(limit)]
