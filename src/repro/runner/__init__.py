"""Crash-tolerant campaign execution: the one campaign supervisor.

The paper's results are *campaigns* — thousands of repeated probe runs
per figure — and the resilient measurement policy only protects a
single measurement.  This package protects the layer above it:

* every job attempt runs in its own **subprocess-isolated worker**
  (a crash or hang loses that attempt, never the campaign);
* a **watchdog** SIGKILLs workers that blow their wall-clock budget or
  stop heartbeating, marking the job ``TIMED_OUT`` — the heartbeat is
  the only health check;
* transient failures (:class:`MeasurementUnstable`, worker crashes,
  timeouts) retry with **exponential backoff + jitter** up to a
  per-job attempt budget — the only budget;
* with ``shards=N`` every job record names its **fault domain**
  (:func:`partition_jobs`) and a shard's workers share one process
  group.  :data:`BREAKER_THRESHOLD` consecutive *strikes* (workers
  that died or were killed without reporting, one strike each)
  quarantine a shard of a campaign with two or more shards: its unfinished jobs move to the
  least-loaded healthy shard, each move costing one attempt, and a job
  that cannot move ends ``LOST`` (the campaign ends ``DEGRADED``);
* all state checkpoints into one :class:`RunManifest` under
  ``runs/<campaign-id>/``, one atomic enveloped write per state
  transition, so ``--resume`` skips completed jobs and re-runs only
  the rest — converging to byte-identical results and the same
  campaign digest.  A corrupt manifest is quarantined and the resume
  re-runs the whole campaign from its write-once creation record;
* **chaos drills**: ``kill-worker`` SIGKILLs random workers then
  interrupts the campaign (proving ``--resume``); ``kill-shard``
  SIGKILLs and ``stall-shard`` SIGSTOPs one shard's process group
  (proving the campaign heals itself).

See DESIGN.md §8 for the job state machine and the manifest schema.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import signal
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

from .. import telemetry
from ..errors import CampaignError, SimulationTimeout
from ..storage import atomic_write_text, digest_text
from .jobs import (JobRecord, JobSpec, JobStatus, KIND_EXPERIMENT,
                   KIND_SELFTEST, experiment_jobs, partition_jobs)
from .manifest import (CAMPAIGN_COMPLETED, CAMPAIGN_DEGRADED,
                       CAMPAIGN_FAILED, CAMPAIGN_INTERRUPTED,
                       CREATION_RECORD_NAME, MANIFEST_NAME, RunManifest)
from .watchdog import Watchdog, WorkerHandle
from .worker import execute_job, is_transient, worker_main

__all__ = [
    "BREAKER_THRESHOLD",
    "CAMPAIGN_COMPLETED",
    "CAMPAIGN_DEGRADED",
    "CAMPAIGN_FAILED",
    "CAMPAIGN_INTERRUPTED",
    "CHAOS_MODES",
    "CHAOS_TARGET",
    "CREATION_RECORD_NAME",
    "CampaignRunner",
    "ChaosMonkey",
    "JobRecord",
    "JobSpec",
    "JobStatus",
    "KIND_EXPERIMENT",
    "KIND_SELFTEST",
    "MANIFEST_NAME",
    "RunManifest",
    "Watchdog",
    "WorkerHandle",
    "execute_job",
    "experiment_jobs",
    "is_transient",
    "new_campaign_id",
    "partition_jobs",
    "run_campaign",
]

#: chaos modes the runner understands
CHAOS_KILL_WORKER = "kill-worker"
CHAOS_KILL_SHARD = "kill-shard"
CHAOS_STALL_SHARD = "stall-shard"
CHAOS_MODES = (CHAOS_KILL_WORKER, CHAOS_KILL_SHARD, CHAOS_STALL_SHARD)

#: consecutive strikes that quarantine a shard (campaigns with two or
#: more shards only)
BREAKER_THRESHOLD = 2

#: shard the shard-level chaos drills strike; None picks a seeded
#: pseudo-random shard among those with workers in flight
CHAOS_TARGET: Optional[str] = None

#: seconds between supervisor ticks (launch, settle, chaos)
POLL_INTERVAL = 0.02


#: process-local sequence folded into generated ids so two campaigns
#: created in the same wall-clock second by the same process never
#: collide (the pid component covers concurrent submitters)
_ID_SEQUENCE = itertools.count()


def new_campaign_id(prefix: str = "campaign") -> str:
    """A sortable, human-readable, **collision-safe** campaign id.

    The wall-clock stamp has second granularity, so two campaigns
    starting concurrently used to race for the same run directory; the
    pid + process-local counter suffix makes the id unique across
    processes and within one.  Nothing downstream may depend on the id
    for reproducibility: artifact digests are content digests
    (:func:`digest_text`) and the campaign digest
    (:meth:`RunManifest.campaign_digest`) excludes the id entirely.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S")
    unique = f"p{os.getpid()}c{next(_ID_SEQUENCE)}"
    return f"{prefix}-{stamp}-{unique}-{random.randrange(16**4):04x}"


@dataclass
class ChaosMonkey:
    """Deterministic failure drills.

    ``kill-worker`` SIGKILLs random in-flight workers and the last kill
    interrupts the campaign — the drill ``--resume`` must recover from.
    ``kill-shard`` SIGKILLs and ``stall-shard`` SIGSTOPs the process
    group of one shard — the campaign must heal itself (restart in
    place, or quarantine and move) and run on."""

    mode: str = CHAOS_KILL_WORKER
    #: workers (kill-worker) or shards (kill/stall-shard) to strike
    kills: int = 1
    #: minimum campaign age before the first kill, seconds (lets some
    #: jobs finish so resume has COMPLETED entries to skip)
    delay_s: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise CampaignError(
                f"unknown chaos mode {self.mode!r}; "
                f"known: {', '.join(CHAOS_MODES)}")
        self._rng = random.Random(f"chaos:{self.seed}")
        self._killed = 0

    @property
    def exhausted(self) -> bool:
        return self._killed >= self.kills

    @property
    def strikes_shards(self) -> bool:
        return self.mode != CHAOS_KILL_WORKER

    def maybe_kill(self, inflight: List[WorkerHandle],
                   campaign_age: float) -> Optional[WorkerHandle]:
        """Pick and SIGKILL a victim worker, or None this tick."""
        if self.exhausted or campaign_age < self.delay_s or not inflight:
            return None
        victim = self._rng.choice(inflight)
        victim.kill()
        self._killed += 1
        return victim

    def maybe_strike_shard(self, inflight: List[WorkerHandle],
                           campaign_age: float) -> Optional[str]:
        """Signal the process group of one shard with workers in
        flight (:data:`CHAOS_TARGET`, or a seeded pick); returns the
        shard, or None this tick."""
        if self.exhausted or campaign_age < self.delay_s:
            return None
        shards = sorted({handle.shard for handle in inflight})
        if CHAOS_TARGET is not None:
            shards = [shard for shard in shards if shard == CHAOS_TARGET]
        if not shards:
            return None
        victim = self._rng.choice(shards)
        signum = (signal.SIGKILL if self.mode == CHAOS_KILL_SHARD
                  else signal.SIGSTOP)
        for pgid in sorted({handle.pgid for handle in inflight
                            if handle.shard == victim}):
            try:
                os.killpg(pgid, signum)
            except OSError:
                pass
        self._killed += 1
        return victim


class CampaignRunner:
    """Drives a :class:`RunManifest` to completion with subprocess
    workers, a watchdog, retries, shard quarantine, and
    checkpointing."""

    def __init__(self, manifest: RunManifest, *,
                 max_workers: int = 2,
                 stall_timeout: float = 10.0,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 4.0,
                 chaos: Optional[ChaosMonkey] = None,
                 on_event: Optional[Callable[[str, str], None]] = None):
        if max_workers < 1:
            raise CampaignError("max_workers must be >= 1")
        #: fault domains ("" alone = unsharded campaign)
        self._shards = sorted({record.shard
                               for record in manifest.records()})
        sharded = any(self._shards)
        if chaos is not None and chaos.strikes_shards and not sharded:
            raise CampaignError(
                f"chaos mode {chaos.mode!r} needs a sharded campaign "
                f"(--shards N)")
        self.manifest = manifest
        #: parallel worker processes per shard
        self.max_workers = max_workers
        self.watchdog = Watchdog(stall_timeout=stall_timeout)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.chaos = chaos
        self._on_event = on_event
        self._backoff_rng = random.Random(
            f"backoff:{manifest.campaign_id}")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:              # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context("spawn")
        #: in-flight workers, keyed by their job's id
        self._inflight: Dict[str, WorkerHandle] = {}
        #: shard -> consecutive strikes, and the shards quarantined
        self._strikes: Dict[str, int] = {}
        self._quarantined: Set[str] = set()

    # ------------------------------------------------------------------
    def _event(self, job_id: str, message: str) -> None:
        if self._on_event is not None:
            self._on_event(job_id, message)

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter, seconds."""
        ceiling = min(self.backoff_cap,
                      self.backoff_base * (2 ** max(0, attempt - 1)))
        return ceiling * (0.5 + 0.5 * self._backoff_rng.random())

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _join_group(self, shard: str, pid: int) -> int:
        """Move a freshly forked worker into its shard's process group,
        founding the group when no worker of the shard is in flight.
        Returns the group id (0 for unsharded campaigns)."""
        if not shard:
            return 0
        group = next((handle.pgid for handle in self._inflight.values()
                      if handle.shard == shard), 0)
        for pgid in ((group, pid) if group else (pid,)):
            try:
                os.setpgid(pid, pgid)
                return pgid
            except OSError:
                # the group emptied under us, or the worker already
                # exited: found a fresh group / give up quietly
                continue
        return pid

    def _launch(self, record: JobRecord) -> None:
        """Fork one worker for the next attempt of ``record``."""
        attempt = record.attempts + 1
        heartbeat = self._ctx.Value("d", 0.0, lock=False)
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(record.spec.to_dict(), attempt, send_conn, heartbeat),
            name=f"repro-job-{record.job_id}",
            daemon=True,
        )
        process.start()
        pgid = self._join_group(record.shard, process.pid)
        send_conn.close()
        record.status = JobStatus.RUNNING
        self.manifest.save()
        self._inflight[record.job_id] = WorkerHandle(
            spec=record.spec, process=process, conn=recv_conn,
            heartbeat=heartbeat, shard=record.shard, pgid=pgid)
        telemetry.count("runner.job.launches")
        self._event(record.job_id, f"attempt {attempt} started "
                                   f"(pid {process.pid})")

    def _retry_or_fail(self, record: JobRecord, status: JobStatus,
                       message: str, *, transient: bool) -> None:
        """Settle a failed attempt: back off and retry while the error
        is transient and attempts remain, else end in ``status``."""
        record.error = message
        record.attempts += 1
        if transient and record.attempts_left() > 0:
            delay = self._backoff(record.attempts)
            record.status = JobStatus.PENDING
            record.eligible_at = time.monotonic() + delay
            telemetry.count("runner.job.retries")
            self._event(record.job_id,
                        f"{status.value.lower()} ({message}); retrying "
                        f"in {delay:.2f}s "
                        f"({record.attempts_left()} attempts left)")
        else:
            record.status = status
            telemetry.count(f"runner.job.{status.value.lower()}")
            self._event(record.job_id, f"{status.value} ({message})")
        self.manifest.save()

    def _complete(self, record: JobRecord, output: str, duration: float,
                  counters: Dict[str, int]) -> None:
        artifact = Path("artifacts") / f"{record.job_id}.txt"
        atomic_write_text(self.manifest.directory / artifact, output)
        record.attempts += 1
        record.status = JobStatus.COMPLETED
        record.duration_s = duration
        record.digest = digest_text(output)
        record.artifact = str(artifact)
        record.error = ""
        record.counters = dict(counters)
        self._strikes.pop(record.shard, None)
        self.manifest.save()
        telemetry.count("runner.job.completed")
        self._event(record.job_id,
                    f"COMPLETED in {duration:.2f}s "
                    f"(digest {record.digest[:12]})")

    def _settle_message(self, record: JobRecord, message) -> None:
        """Settle the job its worker reported on.  A reported outcome,
        success or failure, clears its shard's strikes."""
        if message[1] == "ok":
            _, _, output, duration, counters = message
            self._complete(record, output, duration, counters)
            return
        self._strikes.pop(record.shard, None)
        _, _, error, text, transient, _duration = message
        timed_out = isinstance(error, SimulationTimeout) and \
            getattr(error, "deadline", False)
        status = JobStatus.TIMED_OUT if timed_out else JobStatus.FAILED
        self._retry_or_fail(record, status, text, transient=transient)

    def _receive(self, handle: WorkerHandle) -> Optional[str]:
        """Settle the worker's message if it is in the pipe.  Returns
        ``"reported"`` once it is settled, None while the pipe is open
        and empty, else why no message can arrive any more: ``"eof"``
        (the worker closed its end) or ``"closed"`` (our end is
        gone)."""
        try:
            if not handle.conn.poll(0):
                return None
            message = handle.conn.recv()
        except EOFError:
            return "eof"
        except OSError:
            return "closed"
        self._settle_message(self.manifest.jobs[handle.job_id], message)
        return "reported"

    def _settle(self, handle: WorkerHandle, now: float) -> None:
        """Settle the worker's job if it reported, died, lost its
        pipe, or is overdue; a busy, healthy worker is left alone."""
        outcome = self._receive(handle)
        if outcome is None and not handle.alive():
            # A just-exited worker's message may have landed after the
            # first poll.
            outcome = self._receive(handle) or "eof"
        reason = None
        if outcome is None:
            reason = self.watchdog.overdue(handle, now)
            if reason is None:
                return
        was_alive = handle.alive()
        if outcome in ("reported", "eof"):
            # let a reported or closing worker exit with its own code
            handle.process.join(timeout=5.0)
        handle.kill()
        del self._inflight[handle.job_id]
        if outcome == "reported":
            return
        if reason is not None:
            telemetry.count("runner.watchdog.kills")
            status = JobStatus.TIMED_OUT
            message = f"watchdog: {reason}"
        else:
            if outcome == "closed":
                detail = ("result pipe closed with the worker still alive"
                          if was_alive else "result pipe closed")
                text = f"lost its result pipe ({detail})"
            else:
                text = (f"died without a result "
                        f"(exit code {handle.process.exitcode})")
            status = JobStatus.CRASHED
            message = f"worker for {handle.job_id!r} {text}"
        # An unreported worker is one strike against its shard; the
        # strike that trips the breaker hands the job to the
        # quarantine, else it retries.
        record = self.manifest.jobs[handle.job_id]
        record.error = message
        if self._strike(handle.shard, message):
            self._quarantine(handle.shard)
            return
        self._retry_or_fail(record, status, message, transient=True)

    # ------------------------------------------------------------------
    # shards: strikes and quarantine
    # ------------------------------------------------------------------
    def _strike(self, shard: str, message: str) -> bool:
        """Count a strike against ``shard``; True when it trips the
        breaker (only campaigns with two or more shards have one)."""
        if len(self._shards) < 2:
            return False
        strikes = self._strikes.get(shard, 0) + 1
        self._strikes[shard] = strikes
        telemetry.count("runner.shard.strikes")
        self._event(shard, f"strike {strikes}/{BREAKER_THRESHOLD} "
                           f"({message})")
        return strikes >= BREAKER_THRESHOLD

    def _unfinished(self, shard: str) -> List[JobRecord]:
        return [record for record in self.manifest.records()
                if record.shard == shard and record.status in
                (JobStatus.PENDING, JobStatus.RUNNING)]

    def _quarantine(self, sick: str) -> None:
        """Trip the breaker: stop the shard's workers and move its
        unfinished jobs to the least-loaded healthy shard, one attempt
        per move.  A job with no attempt left for the move, or with no
        healthy shard to go to, ends LOST against ``sick``."""
        self._quarantined.add(sick)
        telemetry.count("runner.shard.quarantines")
        for job_id, handle in list(self._inflight.items()):
            if handle.shard == sick:
                handle.kill()
                del self._inflight[job_id]
        healthy = [shard for shard in self._shards
                   if shard not in self._quarantined]
        target = min(healthy, default=None,
                     key=lambda shard: (len(self._unfinished(shard)),
                                        shard))
        moved = lost = 0
        for record in self._unfinished(sick):
            if record.status is JobStatus.RUNNING:
                record.attempts += 1    # the attempt the breaker cut
            if target is None or record.attempts_left() <= 1:
                record.status = JobStatus.LOST
                record.error = (f"shard {sick} quarantined; "
                                + ("no healthy shard" if target is None
                                   else "no attempt left to move"))
                lost += 1
            else:
                record.attempts += 1    # each move costs one attempt
                record.shard = target
                record.status = JobStatus.PENDING
                moved += 1
        telemetry.count("runner.job.moved", moved)
        telemetry.count("runner.job.lost", lost)
        self.manifest.save()
        self._event(sick, f"QUARANTINED: {moved} job(s) moved to "
                          f"{target or '-'}, {lost} LOST")

    # ------------------------------------------------------------------
    # chaos interruption
    # ------------------------------------------------------------------
    def _interrupt(self, chaos_victim: WorkerHandle) -> None:
        """A chaos kill interrupts the whole campaign, the way a real
        box dies: the victim's interrupted attempt is accounted through
        :meth:`_retry_or_fail` exactly like an ordinary worker crash
        (attempt counted, retry/backoff policy applied), every other
        in-flight job rolls back to PENDING (their interrupted attempt
        never reported), and the manifest is flagged for resume."""
        del self._inflight[chaos_victim.job_id]
        telemetry.count("runner.chaos.kills")
        self._event(chaos_victim.job_id, "chaos: worker SIGKILLed")
        self._retry_or_fail(self.manifest.jobs[chaos_victim.job_id],
                            JobStatus.CRASHED,
                            "chaos: worker SIGKILLed mid-campaign",
                            transient=True)
        for job_id, handle in self._inflight.items():
            handle.kill()
            record = self.manifest.jobs[job_id]
            record.status = JobStatus.PENDING
            record.eligible_at = 0.0
        self._inflight.clear()
        self.manifest.interrupted = True
        self.manifest.save()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _launch_pass(self, now: float) -> None:
        """Launch runnable jobs, one worker each, up to
        ``max_workers`` workers per shard."""
        runnable: Dict[str, List[JobRecord]] = {}
        for record in self.manifest.records():
            if record.runnable(now):
                runnable.setdefault(record.shard, []).append(record)
        busy = Counter(handle.shard for handle in self._inflight.values())
        for shard, records in runnable.items():
            for record in records[:self.max_workers - busy[shard]]:
                self._launch(record)

    def _settle_pass(self, now: float) -> None:
        """Settle finished, pipe-less, and overdue workers."""
        for job_id, handle in list(self._inflight.items()):
            if self._inflight.get(job_id) is handle:
                # (else a quarantine already reaped it)
                self._settle(handle, now)

    def _chaos_tick(self, campaign_age: float) -> bool:
        """Run the chaos drill for this tick; True when it interrupted
        the campaign."""
        inflight = list(self._inflight.values())
        if self.chaos.strikes_shards:
            shard = self.chaos.maybe_strike_shard(inflight,
                                                  campaign_age)
            if shard is not None:
                telemetry.count("runner.chaos.strikes")
                self._event(shard, f"chaos: {self.chaos.mode}")
            return False
        victim = self.chaos.maybe_kill(inflight, campaign_age)
        if victim is not None and self.chaos.exhausted:
            # The final kill takes the whole campaign down, the way a
            # real box dies mid-run.
            self._interrupt(victim)
            return True
        # Earlier kills are ordinary worker crashes: the next settle
        # pass reaps them as CRASHED and the retry policy takes over.
        return False

    def run(self) -> RunManifest:
        """Drive every runnable job to a terminal state (or until a
        chaos interruption).  Returns the (saved) manifest."""
        manifest = self.manifest
        manifest.save()
        started = time.monotonic()
        try:
            while True:
                now = time.monotonic()
                self._launch_pass(now)
                self._settle_pass(now)
                if self.chaos is not None and not self.chaos.exhausted \
                        and self._chaos_tick(now - started):
                    return manifest
                # ----- done? -------------------------------------------
                if not self._inflight:
                    waiting = [r for r in manifest.records()
                               if r.status is JobStatus.PENDING]
                    if not waiting:
                        break
                    wake = min(r.eligible_at for r in waiting)
                    time.sleep(max(POLL_INTERVAL,
                                   min(wake - time.monotonic(),
                                       self.backoff_cap)))
                    continue
                time.sleep(POLL_INTERVAL)
        finally:
            for handle in self._inflight.values():
                handle.kill()
            self._inflight.clear()
            manifest.save()
        return manifest


# ----------------------------------------------------------------------
# convenience entry point (CLI + tests)
# ----------------------------------------------------------------------
def run_campaign(specs: List[JobSpec], runs_dir, *,
                 campaign_id: Optional[str] = None,
                 seed: Optional[int] = None,
                 resume: bool = False,
                 shards: int = 0,
                 max_workers: int = 2,
                 stall_timeout: float = 10.0,
                 chaos: Optional[ChaosMonkey] = None,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 4.0,
                 on_event: Optional[Callable[[str, str], None]] = None
                 ) -> RunManifest:
    """Create (or resume) a campaign and run it to completion.

    On ``resume=True`` the manifest (or, when it is corrupt, the
    creation record) is loaded from ``runs_dir/campaign_id`` and
    ``specs`` and ``shards`` are ignored —
    the campaign re-runs exactly what it recorded, in the shards it
    recorded, skipping COMPLETED jobs.  ``shards >= 1`` partitions the
    jobs into that many fault domains with ``max_workers`` workers
    each.  Every job attempt runs in its own forked worker process;
    results, artifacts and digests do not depend on ``max_workers`` or
    ``shards``.
    """
    runs_dir = Path(runs_dir)
    if resume:
        if campaign_id is None:
            raise CampaignError("resume requires a campaign id")
        manifest = RunManifest.load(runs_dir, campaign_id)
        manifest.reset_for_resume()
    else:
        campaign_id = campaign_id or new_campaign_id()
        directory = runs_dir / campaign_id
        if any((directory / name).exists()
               for name in (MANIFEST_NAME, CREATION_RECORD_NAME)):
            raise CampaignError(
                f"campaign {campaign_id!r} already exists under "
                f"{runs_dir}; use resume")
        manifest = RunManifest.create(
            campaign_id, runs_dir, specs=specs, seed=seed,
            created=time.strftime("%Y-%m-%dT%H:%M:%S"), shards=shards)
    runner = CampaignRunner(
        manifest, max_workers=max_workers, stall_timeout=stall_timeout,
        backoff_base=backoff_base, backoff_cap=backoff_cap,
        chaos=chaos, on_event=on_event)
    return runner.run()
