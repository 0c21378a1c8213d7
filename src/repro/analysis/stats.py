"""Small statistics helpers used by the experiment harnesses."""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((v - center) ** 2 for v in values)
                     / (len(values) - 1))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def confidence_interval_95(values: Sequence[float]
                           ) -> Tuple[float, float]:
    """Normal-approximation 95 % CI of the mean."""
    center = mean(values)
    if len(values) < 2:
        return center, center
    half = 1.96 * stdev(values) / math.sqrt(len(values))
    return center - half, center + half


def accuracy(predicted: Sequence, truth: Sequence) -> float:
    """Positional agreement; length mismatch counts as errors."""
    if not truth and not predicted:
        return 1.0
    correct = sum(1 for p, t in zip(predicted, truth) if p == t)
    return correct / max(len(predicted), len(truth))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    return {
        "n": float(len(values)),
        "mean": mean(values),
        "stdev": stdev(values),
        "min": min(values),
        "median": median(values),
        "max": max(values),
    }
