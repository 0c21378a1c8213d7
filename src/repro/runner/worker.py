"""Subprocess worker: executes one job attempt in isolation.

The parent forks one process per job attempt; the child

1. starts a daemon heartbeat thread that stamps a shared
   ``multiprocessing.Value`` with ``time.monotonic()`` so the watchdog
   can tell a slow worker from a dead one;
2. installs the ambient interpreter deadline
   (:func:`repro.cpu.interp.set_ambient_deadline`) slightly inside the
   job's wall-clock budget, so a non-terminating victim raises
   :class:`SimulationTimeout` in-band before the watchdog has to
   SIGKILL anything, and runs the job in a counters-only
   :func:`repro.telemetry.session`;
3. ships one message, prefixed with the job id:
   ``(job_id, "ok", output, duration, counters)`` or
   ``(job_id, "error", exception, message, transient, duration)``.
   Exceptions cross the process boundary pickled (see the
   ``__reduce__`` support in :mod:`repro.errors`); anything
   unpicklable degrades to its message — and if even *that* send fails
   (broken pipe after a parent-side kill) the worker exits with
   :data:`SEND_FAILED_EXIT` instead of dying silently as a 0.

Worker death before the message (SIGKILL, segfault) is detected by the
parent and treated as a transient :class:`WorkerCrashed`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from hashlib import sha256
from typing import Tuple

from .. import telemetry
from ..errors import (CalibrationError, CampaignError, MeasurementError,
                      MeasurementUnstable, SimulationTimeout)
from .jobs import KIND_EXPERIMENT, KIND_SELFTEST, JobSpec

#: seconds between heartbeat stamps
HEARTBEAT_INTERVAL = 0.05

#: exit code when no result message could reach the parent at all —
#: nonzero so the parent's died-without-a-result path classifies the
#: attempt as a crash instead of mistaking it for a clean exit
SEND_FAILED_EXIT = 70

#: fraction of the wall-clock budget given to the in-band interpreter
#: deadline (the watchdog keeps the full budget as the hard backstop)
_DEADLINE_FRACTION = 0.9

#: error classes a fresh attempt may recover from
TRANSIENT_ERRORS = (MeasurementError, SimulationTimeout,
                    CalibrationError)


def is_transient(error: BaseException) -> bool:
    return isinstance(error, TRANSIENT_ERRORS)


# ----------------------------------------------------------------------
# selftest jobs — deterministic synthetic workloads for the runner's
# own tests, the chaos smoke, and CI
# ----------------------------------------------------------------------
def _run_selftest(spec: JobSpec, attempt: int) -> str:
    """Interpret a selftest program string.

    * ``hang`` — spin forever (only the watchdog can end it);
    * ``sleep:<s>`` — sleep then emit a deterministic line;
    * ``work:<rounds>[:<sleep_s>]`` — a seeded sha256 chain (the
      optional sleep widens the chaos-kill window);
    * ``fail:<k>`` — raise :class:`MeasurementUnstable` on the first
      ``k`` attempts, succeed afterwards;
    * ``crash:<k>`` — SIGKILL ourselves on the first ``k`` attempts;
    * ``badpickle`` — raise an exception whose class cannot be
      pickled (it is function-local), exercising ``_send_error``'s
      fallback paths.
    """
    program, _, argument = spec.name.partition(":")
    if program == "hang":
        while True:                     # pragma: no cover - killed
            time.sleep(0.01)
    if program == "sleep":
        time.sleep(float(argument or "0.1"))
        return f"slept {argument or '0.1'}s (seed={spec.seed})"
    if program == "work":
        rounds_text, _, sleep_text = argument.partition(":")
        if sleep_text:
            time.sleep(float(sleep_text))
        rounds = int(rounds_text or "1000")
        value = f"seed={spec.seed}".encode()
        for _ in range(rounds):
            value = sha256(value).digest()
        # deterministic counters so service-level aggregation has
        # real (and seed-stable) snapshots to merge in tests/CI
        telemetry.count("selftest.jobs")
        telemetry.count("selftest.rounds", rounds)
        return f"work digest {value.hex()}"
    if program == "fail":
        if attempt <= int(argument or "1"):
            raise MeasurementUnstable(
                f"selftest fault on attempt {attempt}",
                attempts=attempt)
        return "recovered"
    if program == "crash":
        if attempt <= int(argument or "1"):
            os.kill(os.getpid(), signal.SIGKILL)
        return "survived"
    if program == "badpickle":
        class _UnpicklableError(Exception):
            """Function-local, so pickle cannot resolve the class."""
        raise _UnpicklableError(
            f"unpicklable selftest error (seed={spec.seed})")
    raise CampaignError(f"unknown selftest program {spec.name!r}")


def execute_job(spec: JobSpec, attempt: int = 1) -> str:
    """Run one job attempt in-process and return its output text."""
    if spec.kind == KIND_SELFTEST:
        return _run_selftest(spec, attempt)
    if spec.kind == KIND_EXPERIMENT:
        from ..experiments.common import RunRequest, run_experiment
        request = RunRequest(fast=spec.fast, seed=spec.seed,
                             plan=spec.resolve_plan())
        return run_experiment(spec.name, request)
    raise CampaignError(f"unknown job kind {spec.kind!r}")


# ----------------------------------------------------------------------
# child process entry
# ----------------------------------------------------------------------
def _beat(heartbeat, stop: threading.Event) -> None:
    while not stop.is_set():
        heartbeat.value = time.monotonic()
        stop.wait(HEARTBEAT_INTERVAL)


def _send_error(conn, job_id: str, error: BaseException,
                duration: float) -> None:
    payload: Tuple = (job_id, "error", error, str(error) or repr(error),
                      is_transient(error), duration)
    try:
        conn.send(payload)
        return
    except Exception:
        # Unpicklable exception (shouldn't happen for ReproErrors —
        # pinned by tests — but third-party errors make no promises):
        # degrade to the message-only payload.
        pass
    try:
        conn.send((job_id, "error", None,
                   f"{type(error).__name__}: {error}",
                   is_transient(error), duration))
    except Exception:
        # The fallback send failed too — typically a broken pipe after
        # a parent-side kill.  Nothing can reach the parent, so exit
        # nonzero: the parent's died-without-a-result path is the only
        # remaining reaper and must not see a clean exit code.
        os._exit(SEND_FAILED_EXIT)


def worker_main(spec_dict: dict, attempt: int, conn,
                heartbeat) -> None:
    """Entry point of the worker subprocess: run one job attempt and
    report its outcome."""
    stop = threading.Event()
    thread = threading.Thread(target=_beat, args=(heartbeat, stop),
                              daemon=True)
    thread.start()
    from ..cpu.interp import set_ambient_deadline
    spec = JobSpec.from_dict(spec_dict)
    started = time.monotonic()
    set_ambient_deadline(started + spec.timeout_s * _DEADLINE_FRACTION)
    try:
        # Counters only (no trace): the snapshot rides back with the
        # result and lands in the job's record.
        with telemetry.session() as sink:
            output = execute_job(spec, attempt)
    except BaseException as error:  # noqa: BLE001 - report, don't die
        _send_error(conn, spec.job_id, error, time.monotonic() - started)
    else:
        conn.send((spec.job_id, "ok", output,
                   time.monotonic() - started, sink.snapshot()))
    finally:
        set_ambient_deadline(None)
        stop.set()
        conn.close()
