"""Resilient measurement policy for the NightVision attacker stack.

On real hardware the paper's measurement channel is noisy: LBR records
go missing, timestamps jitter, co-residents evict BTB entries, and
SGX-Step interrupts mis-land.  The attacker survives by engineering the
measurement loop — calibrating thresholds from warm-up runs, voting
out one-off anomalies, retrying unstable reads with a bounded budget,
and surfacing *partial* results instead of crashing.  This module is
that engineering, factored out of the NV-Core probe path:

* the fixed effort levels (:data:`CALIBRATION_ROUNDS` and its retry
  factor, outlier rejection, threshold widening, :data:`VOTES`,
  :data:`MAX_RETRIES` with exponential step-back) — module constants,
  tuned for the acceptance fault plan;
* :class:`MeasurementPolicy` — switches the resilient path on and
  carries the one per-attack choice, the structural constraint hint;
* :class:`RangeStatus` — per-range classification of one probe
  reading, including the honest ``UNKNOWN`` state for a dropped LBR
  record (the naive path silently coerces that to "hit");
* :class:`MeasuredProbe` — a probe result tagged with per-range
  confidence, ready for graceful degradation downstream.

The physics constrains what a retry can recover: a probe run consumes
the BTB signal (the mispredicting jump re-allocates its own entry), so
a record dropped on the *first* reading is unrecoverable by re-probing.
The policy therefore resolves unknowns by constraint (e.g. the
control-flow-leak attack knows *exactly one* arm ran per fragment),
uses re-probes to vote down ambient-jitter false positives and to
verify the measurement path is healthy, and only then degrades —
tagging the range low-confidence rather than guessing silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence


class RangeStatus(enum.Enum):
    """Classification of one monitored range in one probe reading."""

    #: probe jump mispredicted — entry deallocated (Fig. 5 cases 3/4)
    HIT_STRONG = "hit-strong"
    #: own elapsed cycles elevated, prior record clean (cases 1/2) —
    #: could also be ambient jitter, hence "weak"
    HIT_WEAK = "hit-weak"
    #: hit inferred from a constraint, not observed directly
    HIT_INFERRED = "hit-inferred"
    #: clean baseline reading
    MISS = "miss"
    #: no direct observation; resolved to miss with low confidence
    MISS_DEGRADED = "miss-degraded"
    #: the probe jump's LBR record was missing (dropped / preempted)
    UNKNOWN = "unknown"

    @property
    def is_hit(self) -> bool:
        return self in (RangeStatus.HIT_STRONG, RangeStatus.HIT_WEAK,
                        RangeStatus.HIT_INFERRED)


#: default confidence assigned to each final status
CONFIDENCE = {
    RangeStatus.HIT_STRONG: 0.95,
    RangeStatus.HIT_WEAK: 0.6,
    RangeStatus.HIT_INFERRED: 0.7,
    RangeStatus.MISS: 0.9,
    RangeStatus.MISS_DEGRADED: 0.3,
    RangeStatus.UNKNOWN: 0.1,
}


# The resilient path's effort levels, tuned for the acceptance fault
# plan (5 % LBR drops, 2 % spurious evictions, 5 % multi-steps); a
# clean substrate pays at most the extra calibration rounds.

#: no-victim prime→probe rounds used to learn baselines
CALIBRATION_ROUNDS = 5
#: a range must contribute at least this many clean samples; extra
#: rounds (up to ``CALIBRATION_ROUNDS * CALIBRATION_RETRY_FACTOR``
#: total) are spent chasing ranges whose records were dropped
MIN_CALIBRATION_SAMPLES = 2
CALIBRATION_RETRY_FACTOR = 3
#: calibration samples beyond this many stddevs from the median are
#: rejected as outliers (jitter spikes)
OUTLIER_SIGMA = 3.0
#: detection threshold is raised to this many stddevs of the
#: calibration samples when that exceeds the static default
THRESHOLD_SIGMA = 4.0
#: total readings participating in the weak-hit majority vote
VOTES = 3
#: bounded retry budget for unstable reads, per probe call
MAX_RETRIES = 3
#: settle primes before the first retry; doubles every retry
#: (exponential step-back)
BACKOFF_BASE = 1


@dataclass(frozen=True)
class MeasurementPolicy:
    """Turns on the resilient measurement path for a probe session."""

    #: structural prior used to resolve unknowns: None, "exactly_one"
    #: (e.g. one branch arm per fragment) or "at_most_one"
    constraint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.constraint not in (None, "exactly_one", "at_most_one"):
            raise ValueError(
                f"unknown constraint {self.constraint!r}")

    def with_(self, **overrides) -> "MeasurementPolicy":
        return replace(self, **overrides)


DEFAULT_POLICY = MeasurementPolicy()


@dataclass
class MeasuredProbe:
    """One resilient probe measurement: per-range verdicts tagged with
    confidence, plus the effort spent obtaining them."""

    matched: List[bool]
    confidence: List[float]
    statuses: List[RangeStatus]
    #: snippet executions consumed (first probe + votes + retries)
    attempts: int = 1
    #: False when a range stayed unresolved after the retry budget
    stable: bool = True

    def min_confidence(self) -> float:
        return min(self.confidence) if self.confidence else 1.0


def apply_constraint(statuses: List[RangeStatus],
                     constraint: Optional[str]) -> List[RangeStatus]:
    """Resolve ``UNKNOWN`` entries using a structural prior.

    Only unknowns are ever rewritten — a definitive reading is never
    flipped (the final "no iteration ran" fragment must stay all-miss
    under ``exactly_one``).  With multiple hits under a one-hot prior,
    weak hits are demoted in favour of a single strong one.
    """
    if constraint is None:
        return statuses
    out = list(statuses)
    hits = [i for i, s in enumerate(out) if s.is_hit]
    unknowns = [i for i, s in enumerate(out)
                if s is RangeStatus.UNKNOWN]
    if len(hits) >= 1:
        # A hit exists: every unknown is (at most) a miss.
        for i in unknowns:
            out[i] = RangeStatus.MISS_DEGRADED
        strong = [i for i in hits
                  if out[i] is RangeStatus.HIT_STRONG]
        if len(hits) > 1 and len(strong) == 1:
            # One-hot prior violated by weak (jitter-prone) readings:
            # keep the strong hit, demote the weak ones.
            for i in hits:
                if i not in strong:
                    out[i] = RangeStatus.MISS_DEGRADED
        return out
    if (constraint == "exactly_one" and len(unknowns) == 1
            and len(out) > 1):
        # All observed ranges are definitive misses and exactly one
        # reading is missing: the prior pins the hit on it.
        out[unknowns[0]] = RangeStatus.HIT_INFERRED
    return out


def summarize(statuses: Sequence[RangeStatus],
              attempts: int, stable: bool) -> MeasuredProbe:
    """Fold final statuses into a :class:`MeasuredProbe`."""
    return MeasuredProbe(
        matched=[s.is_hit for s in statuses],
        confidence=[CONFIDENCE[s] for s in statuses],
        statuses=list(statuses),
        attempts=attempts,
        stable=stable,
    )
