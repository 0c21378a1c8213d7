"""The persisted campaign state: ``runs/<campaign-id>/manifest.json``.

The manifest is the single source of truth for checkpoint/resume, for
sharded campaigns too: every job record carries the fault domain
(``shard``) that currently owns it, so one manifest holds the whole
campaign.  It is rewritten (one atomic enveloped write,
:mod:`repro.storage`) after **every** job state transition, so a
SIGKILL of the whole campaign at any instant leaves a loadable
manifest whose COMPLETED entries can be trusted — their artifacts were
atomically renamed into place *before* the manifest recorded them.

:meth:`RunManifest.create` also writes ``campaign.json``, the
write-once **creation record**: the same payload as the first
manifest (every job PENDING, with its spec and shard), never rewritten.
:meth:`RunManifest.load` reads the manifest if it is valid, else the
creation record — a corrupt manifest is quarantined to
``manifest.json.corrupt`` and, since job digests are deterministic,
the resume re-runs every job and converges to the clean digest.

Schema (``schema`` bumps on incompatible change)::

    {
      "schema": 3,
      "campaign_id": "...",
      "created": "2026-08-06T12:00:00",   # informational only
      "seed": 0,                          # campaign-level default seed
      "interrupted": false,               # a chaos/abort left work behind
      "jobs": { "<job_id>": JobRecord, ... }   # JobRecord.shard: "" or "sNN"
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .. import telemetry
from ..errors import ArtifactCorrupt, CampaignError
from ..storage import load_document, quarantine_file, write_envelope
from .jobs import JobRecord, JobSpec, JobStatus, partition_jobs

SCHEMA_VERSION = 3
#: envelope schema tag on the manifest and its creation record
SCHEMA_TAG = "repro.runner.manifest"

MANIFEST_NAME = "manifest.json"
CREATION_RECORD_NAME = "campaign.json"

#: campaign outcomes (:attr:`RunManifest.status`)
CAMPAIGN_COMPLETED = "COMPLETED"
CAMPAIGN_FAILED = "FAILED"
CAMPAIGN_INTERRUPTED = "INTERRUPTED"
CAMPAIGN_DEGRADED = "DEGRADED"


@dataclass
class RunManifest:
    """All persisted state of one campaign."""

    campaign_id: str
    directory: Path
    created: str = ""
    seed: Optional[int] = None
    interrupted: bool = False
    jobs: Dict[str, JobRecord] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, campaign_id: str, runs_dir: Path, *,
               specs: List[JobSpec], seed: Optional[int],
               created: str = "", shards: int = 0) -> "RunManifest":
        """A fresh manifest, persisted as the campaign's creation
        record; ``shards >= 1`` assigns every job a fault domain with
        :func:`partition_jobs` (jobs keep ``specs`` order)."""
        directory = Path(runs_dir) / campaign_id
        manifest = cls(campaign_id=campaign_id, directory=directory,
                       created=created, seed=seed)
        for spec in specs:
            if spec.job_id in manifest.jobs:
                raise CampaignError(
                    f"duplicate job id {spec.job_id!r}")
            manifest.jobs[spec.job_id] = JobRecord(spec=spec)
        if shards:
            layout = partition_jobs(specs, shards, seed=seed)
            for shard, shard_specs in layout.items():
                for spec in shard_specs:
                    manifest.jobs[spec.job_id].shard = shard
        write_envelope(directory / CREATION_RECORD_NAME,
                       manifest._payload(), SCHEMA_TAG)
        return manifest

    @classmethod
    def load(cls, runs_dir: Path, campaign_id: str) -> "RunManifest":
        directory = Path(runs_dir) / campaign_id
        payload = _load_state(directory)
        if payload is None:
            raise CampaignError(
                f"no manifest for campaign {campaign_id!r} "
                f"under {runs_dir}")
        schema = payload.get("schema") \
            if isinstance(payload, dict) else None
        if schema != SCHEMA_VERSION:
            raise CampaignError(
                f"manifest schema {schema!r} "
                f"!= supported {SCHEMA_VERSION}")
        manifest = cls(
            campaign_id=str(payload["campaign_id"]),
            directory=directory,
            created=str(payload.get("created", "")),
            seed=payload.get("seed"),
            interrupted=bool(payload["interrupted"]),
        )
        for job_id, record in payload["jobs"].items():
            manifest.jobs[job_id] = JobRecord.from_dict(record)
        return manifest

    @property
    def path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def save(self) -> None:
        write_envelope(self.path, self._payload(), SCHEMA_TAG)

    def _payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "campaign_id": self.campaign_id,
            "created": self.created,
            "seed": self.seed,
            "interrupted": self.interrupted,
            "jobs": {job_id: record.to_dict()
                     for job_id, record in self.jobs.items()},
        }

    # ------------------------------------------------------------------
    # resume semantics
    # ------------------------------------------------------------------
    def reset_for_resume(self) -> List[str]:
        """Make every non-COMPLETED job runnable again and return the
        ids that will re-run.  RUNNING entries are leftovers of a
        campaign process that died mid-flight — their workers are long
        gone, so they restart (without charging an extra attempt,
        since the interrupted attempt never reported a result)."""
        rerun: List[str] = []
        for record in self.jobs.values():
            if record.status is JobStatus.COMPLETED:
                continue
            record.status = JobStatus.PENDING
            record.attempts = 0          # fresh retry budget
            record.eligible_at = 0.0
            record.error = ""
            rerun.append(record.job_id)
        self.interrupted = False
        return rerun

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def records(self) -> List[JobRecord]:
        return list(self.jobs.values())

    def by_status(self, status: JobStatus) -> List[JobRecord]:
        return [r for r in self.jobs.values() if r.status is status]

    def all_completed(self) -> bool:
        return all(r.status is JobStatus.COMPLETED
                   for r in self.jobs.values())

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.jobs.values():
            out[record.status.value] = out.get(record.status.value,
                                               0) + 1
        return out

    def digests(self) -> Dict[str, str]:
        """job id -> result digest, for clean-vs-resumed comparisons."""
        return {job_id: record.digest
                for job_id, record in self.jobs.items()}

    def lost(self) -> Dict[str, List[str]]:
        """shard -> sorted ids of the jobs LOST against it."""
        out: Dict[str, List[str]] = {}
        for record in self.by_status(JobStatus.LOST):
            out.setdefault(record.shard, []).append(record.job_id)
        return {shard: sorted(out[shard]) for shard in sorted(out)}

    @property
    def status(self) -> str:
        """The campaign outcome: INTERRUPTED (resumable), DEGRADED
        (some job LOST), COMPLETED, or FAILED."""
        if self.interrupted:
            return CAMPAIGN_INTERRUPTED
        if self.by_status(JobStatus.LOST):
            return CAMPAIGN_DEGRADED
        if self.all_completed():
            return CAMPAIGN_COMPLETED
        return CAMPAIGN_FAILED

    def campaign_digest(self) -> str:
        """sha256 over seed, status, per-job digests, lost jobs and the
        merged counters of the COMPLETED jobs.  Campaign id and shard
        layout are left out, so 1 shard, 3 shards, or a quarantined
        and resumed campaign give the same digest as a clean run."""
        completed = self.by_status(JobStatus.COMPLETED)
        core = {
            "seed": self.seed,
            "status": self.status,
            "jobs": {job_id: self.jobs[job_id].digest
                     for job_id in sorted(self.jobs)},
            "lost": sorted(r.job_id
                           for r in self.by_status(JobStatus.LOST)),
            "counters": telemetry.merge_counters(
                *(record.counters for record in completed)),
        }
        canonical = json.dumps(core, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_state(directory: Path) -> Optional[dict]:
    """The manifest if valid, else the creation record; None when the
    campaign has neither.  A corrupt manifest is quarantined; when
    neither file can serve, the load raises :class:`ArtifactCorrupt`."""
    manifest = directory / MANIFEST_NAME
    failure: Optional[ArtifactCorrupt] = None
    quarantined = None
    for path in (manifest, directory / CREATION_RECORD_NAME):
        try:
            return load_document(path, SCHEMA_TAG)
        except FileNotFoundError:
            continue
        except ArtifactCorrupt as error:
            failure = failure or error
            if path == manifest:
                quarantined = quarantine_file(path)
    if failure is None:
        return None
    raise ArtifactCorrupt(
        f"campaign {directory.name!r} has no valid manifest or "
        f"creation record: {failure}", path=failure.path,
        reason=failure.reason, quarantined=str(quarantined or ""))
