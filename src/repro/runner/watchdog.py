"""Watchdog: wall-clock timeouts and heartbeat staleness for workers.

Two independent kill conditions, checked every poll tick:

* **budget** — the worker has been running longer than its job's
  ``timeout_s`` (catches non-terminating victims whose busy loop never
  misses a heartbeat: the GIL keeps the beat thread alive even while
  the interpreter spins);
* **stall** — the heartbeat timestamp (the launch time until the
  first beat lands) is older than ``stall_timeout`` (catches a
  frozen/deadlocked/SIGSTOPped worker whose clock no longer advances
  at all — including a whole ``--chaos stall-shard`` process group).

Either way the worker is SIGKILLed and its job is marked
``TIMED_OUT``.  This heartbeat is the campaign's only health
check: sharded campaigns add no shard-level lease on top of it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from .jobs import JobSpec


@dataclass
class WorkerHandle:
    """Parent-side view of one in-flight worker process, which runs
    one job attempt; its wall-clock budget is the job's ``timeout_s``.
    """

    spec: JobSpec
    process: object                       # multiprocessing.Process
    conn: object                          # receiving end of the pipe
    heartbeat: object                     # multiprocessing.Value("d")
    #: fault domain ("" = unsharded) and its process group (0 = none)
    shard: str = ""
    pgid: int = 0
    started: float = field(default_factory=time.monotonic)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker and reap it (idempotent)."""
        if self.process.is_alive():
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


@dataclass
class Watchdog:
    """Stateless policy object deciding when a worker must die."""

    #: heartbeat older than this means the worker is frozen, seconds
    stall_timeout: float = 10.0

    def overdue(self, handle: WorkerHandle,
                now: Optional[float] = None) -> Optional[str]:
        """A human-readable kill reason, or None if the worker is
        healthy."""
        now = time.monotonic() if now is None else now
        elapsed = now - handle.started
        budget = handle.spec.timeout_s
        if elapsed > budget:
            return (f"exceeded {budget:.1f}s wall-clock budget "
                    f"(ran {elapsed:.1f}s)")
        last_beat = handle.heartbeat.value or handle.started
        if now - last_beat > self.stall_timeout:
            return (f"heartbeat stalled for {now - last_beat:.1f}s "
                    f"(limit {self.stall_timeout:.1f}s)")
        return None
