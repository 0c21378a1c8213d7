"""Campaign jobs: what runs, with which knobs, and where it stands.

A :class:`JobSpec` is pure data — fully picklable and JSON-serialisable
so it can cross the worker process boundary and survive in the
manifest.  A :class:`JobRecord` is the spec plus its mutable lifecycle
state, persisted after every transition.

Job lifecycle state machine::

    PENDING ──▶ RUNNING ──▶ COMPLETED                (terminal, success)
                   │
                   ├──▶ FAILED     ──▶ PENDING (retry, transient error)
                   ├──▶ TIMED_OUT  ──▶ PENDING (retry)
                   └──▶ CRASHED    ──▶ PENDING (retry)

    PENDING / RUNNING in a quarantined shard
                   ├──▶ PENDING on a healthy shard (the move costs one
                   │    attempt)
                   └──▶ LOST (no attempt left, or no healthy shard)

FAILED / TIMED_OUT / CRASHED become terminal once the attempt budget is
spent.  LOST only happens in sharded campaigns, when the job's shard is
quarantined and the job cannot move (DESIGN.md §8).  Resume treats
anything non-COMPLETED (including a RUNNING state left behind by a
killed campaign, and LOST) as runnable again.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import CampaignError


class JobStatus(str, enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    TIMED_OUT = "TIMED_OUT"
    CRASHED = "CRASHED"
    #: the job's shard was quarantined and the job could not move
    LOST = "LOST"

    @property
    def terminal_success(self) -> bool:
        return self is JobStatus.COMPLETED

    @property
    def retryable(self) -> bool:
        """States a fresh attempt may recover from."""
        return self in (JobStatus.FAILED, JobStatus.TIMED_OUT,
                        JobStatus.CRASHED, JobStatus.RUNNING,
                        JobStatus.LOST)


#: job kinds the worker knows how to execute
KIND_EXPERIMENT = "experiment"
#: deterministic synthetic jobs for the runner's own tests/chaos smoke
KIND_SELFTEST = "selftest"

VALID_KINDS = (KIND_EXPERIMENT, KIND_SELFTEST)


@dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work (immutable, picklable)."""

    job_id: str
    kind: str = KIND_EXPERIMENT
    #: experiment registry name, or the selftest program string
    name: str = ""
    fast: bool = False
    seed: Optional[int] = None
    #: fault-plan preset name carried by this job ("" = no plan)
    plan: str = ""
    #: multiple applied to the plan's rates (FaultPlan.scaled)
    plan_factor: float = 1.0
    #: wall-clock budget per attempt, seconds
    timeout_s: float = 300.0
    #: total attempts allowed (1 = no retry)
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise CampaignError(f"unknown job kind {self.kind!r}")
        if self.timeout_s <= 0:
            raise CampaignError("timeout_s must be positive")
        if self.max_attempts < 1:
            raise CampaignError("max_attempts must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "name": self.name,
            "fast": self.fast,
            "seed": self.seed,
            "plan": self.plan,
            "plan_factor": self.plan_factor,
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        return cls(**payload)  # type: ignore[arg-type]

    def resolve_plan(self):
        """The scaled :class:`FaultPlan` this job carries, or None."""
        if not self.plan:
            return None
        from ..faults import plan_by_name
        plan = plan_by_name(self.plan)
        if self.plan_factor != 1.0:
            plan = plan.scaled(self.plan_factor)
        return plan


@dataclass
class JobRecord:
    """A spec plus its persisted lifecycle state."""

    spec: JobSpec
    status: JobStatus = JobStatus.PENDING
    attempts: int = 0
    #: wall-clock seconds of the successful (or final) attempt
    duration_s: float = 0.0
    #: sha256 of the job's output text (COMPLETED only)
    digest: str = ""
    #: relative artifact path under the campaign directory
    artifact: str = ""
    #: message of the final error (non-COMPLETED terminal states)
    error: str = ""
    #: deterministic telemetry counter snapshot from the successful
    #: attempt (see :mod:`repro.telemetry`; empty for failed jobs)
    counters: Dict[str, int] = field(default_factory=dict)
    #: fault domain currently owning the job ("" = unsharded campaign)
    shard: str = ""
    #: monotonic timestamp before which no retry may launch
    eligible_at: float = field(default=0.0, repr=False, compare=False)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    def attempts_left(self) -> int:
        return max(0, self.spec.max_attempts - self.attempts)

    def runnable(self, now: Optional[float] = None) -> bool:
        if self.status is JobStatus.PENDING:
            now = time.monotonic() if now is None else now
            return now >= self.eligible_at
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "status": self.status.value,
            "attempts": self.attempts,
            "duration_s": round(self.duration_s, 6),
            "digest": self.digest,
            "artifact": self.artifact,
            "error": self.error,
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobRecord":
        return cls(
            spec=JobSpec.from_dict(payload["spec"]),
            status=JobStatus(payload["status"]),
            attempts=int(payload["attempts"]),
            duration_s=float(payload["duration_s"]),
            digest=str(payload["digest"]),
            artifact=str(payload["artifact"]),
            error=str(payload["error"]),
            counters=dict(payload["counters"]),
            shard=str(payload["shard"]),
        )


def experiment_jobs(*, fast: bool = False, seed: Optional[int] = None,
                    plan: str = "", plan_factor: float = 1.0,
                    timeout_s: float = 300.0, max_attempts: int = 3,
                    only: Optional[List[str]] = None) -> List[JobSpec]:
    """One job per registered experiment (the default campaign).

    ``only`` filters by experiment name, preserving registry order;
    unknown names raise :class:`CampaignError` up front rather than
    failing jobs mid-campaign.
    """
    from ..experiments.common import EXPERIMENTS
    names = list(EXPERIMENTS)
    if only is not None:
        unknown = [name for name in only if name not in EXPERIMENTS]
        if unknown:
            raise CampaignError(
                f"unknown experiment(s) {', '.join(unknown)}; "
                f"known: {', '.join(names)}")
        names = [name for name in names if name in set(only)]
    return [
        JobSpec(job_id=name, kind=KIND_EXPERIMENT, name=name,
                fast=fast, seed=seed, plan=plan,
                plan_factor=plan_factor, timeout_s=timeout_s,
                max_attempts=max_attempts)
        for name in names
    ]


#: shard ids are zero-padded so listings sort naturally
SHARD_ID_FORMAT = "s{index:02d}"


def shard_name(index: int) -> str:
    return SHARD_ID_FORMAT.format(index=index)


def _rank(job_id: str, salt: str) -> bytes:
    return hashlib.sha256(f"{salt}:{job_id}".encode("utf-8")).digest()


def partition_jobs(specs: Sequence[JobSpec], num_shards: int, *,
                   seed: Optional[int] = None
                   ) -> Dict[str, List[JobSpec]]:
    """Split ``specs`` into at most ``num_shards`` fault domains.

    Returns ``{shard_id: [spec, ...]}`` in shard order.  The layout is

    * **deterministic** — the same (job ids, seed, shard count) always
      yields the same assignment;
    * **order-independent** — it depends on the job *ids*, never on
      their order;
    * **balanced** — jobs are ranked by a seed-salted sha256 and dealt
      round-robin, so shard sizes differ by at most one.

    The shard count is clamped to the job count so no shard is empty.
    The layout is placement only: the campaign digest
    (:meth:`RunManifest.campaign_digest`) never sees it.
    """
    if num_shards < 1:
        raise CampaignError("num_shards must be >= 1")
    if not specs:
        raise CampaignError("cannot partition an empty job list")
    ids = [spec.job_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise CampaignError("duplicate job ids in partition input")
    num_shards = min(num_shards, len(specs))
    salt = f"seed={seed if seed is not None else ''}"
    ranked = sorted(specs, key=lambda spec: _rank(spec.job_id, salt))
    shards: Dict[str, List[JobSpec]] = {
        shard_name(index): [] for index in range(num_shards)}
    for position, spec in enumerate(ranked):
        shards[shard_name(position % num_shards)].append(spec)
    return shards
