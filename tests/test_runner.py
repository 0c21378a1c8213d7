"""The crash-tolerant campaign runner: atomic artifacts, the job
lifecycle state machine, manifest checkpoint/resume, watchdog
timeouts, retry with backoff, and the chaos drill.

The heavyweight scenarios use KIND_SELFTEST jobs — deterministic
synthetic programs (`work:`, `fail:`, `crash:`, `hang`) — so the runner
machinery is exercised without paying for real experiments.
"""

import json
import multiprocessing
import os
import pickle
import signal
import time

import pytest

import repro.runner as runner_module
from repro.errors import (CampaignError, MeasurementUnstable, PageFault,
                          SimulationTimeout, WorkerCrashed)
from repro.runner import (CREATION_RECORD_NAME, MANIFEST_NAME,
                          ChaosMonkey, JobRecord, JobSpec, JobStatus,
                          KIND_SELFTEST, RunManifest, WorkerHandle,
                          execute_job, experiment_jobs, is_transient,
                          run_campaign)
from repro.storage import (atomic_write_json, atomic_write_text,
                           digest_text, read_json)


def _selftest(job_id, program, **kwargs):
    kwargs.setdefault("timeout_s", 30.0)
    return JobSpec(job_id=job_id, kind=KIND_SELFTEST, name=program,
                   seed=0, **kwargs)


# ----------------------------------------------------------------------
# atomic artifact writer
# ----------------------------------------------------------------------
def test_atomic_write_text_creates_parents_and_no_tmp(tmp_path):
    path = atomic_write_text(tmp_path / "a" / "b" / "out.txt", "hello\n")
    assert path.read_text() == "hello\n"
    # no temp droppings left behind
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"


def test_atomic_json_is_deterministic(tmp_path):
    payload = {"b": 2, "a": 1, "nested": {"z": 0, "y": [3, 2]}}
    a = atomic_write_json(tmp_path / "a.json", payload)
    b = atomic_write_json(tmp_path / "b.json", dict(reversed(
        list(payload.items()))))
    assert a.read_bytes() == b.read_bytes()
    assert read_json(a) == payload


def test_digest_text_is_sha256():
    import hashlib
    assert digest_text("abc") == hashlib.sha256(b"abc").hexdigest()


# ----------------------------------------------------------------------
# errors are picklable (they cross the worker pipe)
# ----------------------------------------------------------------------
def _all_error_classes():
    import inspect
    from repro import errors
    return [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, errors.ReproError)]


def test_every_error_survives_pickle_roundtrip():
    samples = {
        PageFault: PageFault(0x401000, "execute"),
        MeasurementUnstable: MeasurementUnstable(
            "unstable", attempts=3, unresolved=[1, 2]),
        SimulationTimeout: SimulationTimeout(
            "over budget", budget=100, executed=101, deadline=True),
        WorkerCrashed: WorkerCrashed("died", exitcode=-9),
    }
    for cls in _all_error_classes():
        error = samples.get(cls)
        if error is None:
            try:
                error = cls("boom")
            except TypeError:
                continue
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert str(clone) == str(error)
        assert clone.__dict__ == error.__dict__


def test_simulation_timeout_fields_survive_pickle():
    error = SimulationTimeout("deadline", budget=7, executed=9,
                              deadline=True)
    clone = pickle.loads(pickle.dumps(error))
    assert clone.budget == 7
    assert clone.executed == 9
    assert clone.deadline is True


# ----------------------------------------------------------------------
# job specs / records / manifest
# ----------------------------------------------------------------------
def test_job_spec_validation():
    with pytest.raises(CampaignError):
        JobSpec(job_id="x", kind="nonsense")
    with pytest.raises(CampaignError):
        JobSpec(job_id="x", timeout_s=0.0)
    with pytest.raises(CampaignError):
        JobSpec(job_id="x", max_attempts=0)


def test_job_spec_dict_roundtrip():
    spec = JobSpec(job_id="fig2", name="fig2", fast=True, seed=3,
                   plan="hostile", plan_factor=0.5, timeout_s=12.0,
                   max_attempts=2)
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_job_record_roundtrip_and_retry_budget():
    record = JobRecord(spec=_selftest("j", "work:10"))
    assert record.runnable()
    record.status = JobStatus.FAILED
    record.attempts = 2
    record.digest = "d" * 64
    clone = JobRecord.from_dict(record.to_dict())
    assert clone.spec == record.spec
    assert clone.status is JobStatus.FAILED
    assert clone.attempts_left() == 1
    assert not clone.runnable()


def test_status_machine_flags():
    assert JobStatus.COMPLETED.terminal_success
    for status in (JobStatus.FAILED, JobStatus.TIMED_OUT,
                   JobStatus.CRASHED, JobStatus.RUNNING):
        assert status.retryable
    assert not JobStatus.COMPLETED.retryable


def test_experiment_jobs_only_filter_and_unknown():
    jobs = experiment_jobs(fast=True, seed=0, only=["fig4", "fig2"])
    assert [job.job_id for job in jobs] == ["fig2", "fig4"]
    with pytest.raises(CampaignError):
        experiment_jobs(only=["not-an-experiment"])


def test_manifest_roundtrip_and_listing(tmp_path):
    specs = [_selftest("a", "work:10"), _selftest("b", "work:20")]
    manifest = RunManifest.create("camp-1", tmp_path, specs=specs,
                                  seed=7, created="2026-08-06T00:00:00")
    manifest.jobs["a"].status = JobStatus.COMPLETED
    manifest.jobs["a"].digest = digest_text("out")
    manifest.save()
    loaded = RunManifest.load(tmp_path, "camp-1")
    assert loaded.seed == 7
    assert loaded.jobs["a"].status is JobStatus.COMPLETED
    assert loaded.jobs["b"].spec == specs[1]
    assert sorted(path.name for path in manifest.directory.iterdir()) \
        == [CREATION_RECORD_NAME, MANIFEST_NAME]
    with pytest.raises(CampaignError):
        RunManifest.load(tmp_path, "no-such-campaign")


def test_manifest_rejects_wrong_schema(tmp_path):
    directory = tmp_path / "camp-2"
    directory.mkdir()
    (directory / "manifest.json").write_text(json.dumps(
        {"schema": 999, "campaign_id": "camp-2", "jobs": {}}))
    with pytest.raises(CampaignError):
        RunManifest.load(tmp_path, "camp-2")


def test_reset_for_resume_skips_completed(tmp_path):
    specs = [_selftest(name, "work:10") for name in ("a", "b", "c")]
    manifest = RunManifest.create("camp-3", tmp_path, specs=specs,
                                  seed=0)
    manifest.jobs["a"].status = JobStatus.COMPLETED
    manifest.jobs["b"].status = JobStatus.CRASHED
    manifest.jobs["b"].attempts = 3
    manifest.jobs["c"].status = JobStatus.RUNNING
    manifest.interrupted = True
    rerun = manifest.reset_for_resume()
    assert rerun == ["b", "c"]
    assert manifest.jobs["a"].status is JobStatus.COMPLETED
    assert manifest.jobs["b"].status is JobStatus.PENDING
    assert manifest.jobs["b"].attempts == 0      # fresh retry budget
    assert not manifest.interrupted


# ----------------------------------------------------------------------
# in-process job execution
# ----------------------------------------------------------------------
def test_selftest_work_is_deterministic():
    spec = _selftest("w", "work:50")
    assert execute_job(spec) == execute_job(spec)


def test_selftest_fail_then_recover():
    spec = _selftest("f", "fail:2")
    with pytest.raises(MeasurementUnstable):
        execute_job(spec, attempt=1)
    assert execute_job(spec, attempt=3) == "recovered"


def test_transient_classification():
    assert is_transient(MeasurementUnstable("x", attempts=1))
    assert is_transient(SimulationTimeout("x"))
    assert not is_transient(CampaignError("x"))
    assert not is_transient(ValueError("x"))


def test_unknown_selftest_program_raises():
    with pytest.raises(CampaignError):
        execute_job(_selftest("bad", "frobnicate"))


# ----------------------------------------------------------------------
# campaigns end to end (subprocess workers)
# ----------------------------------------------------------------------
def test_campaign_runs_jobs_in_parallel_workers(tmp_path):
    specs = [_selftest("w0", "work:100"), _selftest("w1", "work:200"),
             _selftest("w2", "work:300")]
    manifest = run_campaign(specs, tmp_path, campaign_id="par",
                            seed=0, max_workers=2)
    assert manifest.all_completed()
    for record in manifest.records():
        artifact = manifest.directory / record.artifact
        assert digest_text(artifact.read_text()) == record.digest
        assert record.attempts == 1


def test_campaign_retries_flaky_job_with_backoff(tmp_path):
    events = []
    specs = [_selftest("flaky", "fail:1", max_attempts=3)]
    manifest = run_campaign(
        specs, tmp_path, campaign_id="flaky", seed=0,
        backoff_base=0.01, backoff_cap=0.05,
        on_event=lambda job_id, message: events.append(message))
    record = manifest.jobs["flaky"]
    assert record.status is JobStatus.COMPLETED
    assert record.attempts == 2
    assert any("retrying in" in event for event in events)


def test_campaign_survives_worker_self_crash(tmp_path):
    specs = [_selftest("crashy", "crash:1", max_attempts=3)]
    manifest = run_campaign(specs, tmp_path, campaign_id="crashy",
                            seed=0, backoff_base=0.01, backoff_cap=0.05)
    record = manifest.jobs["crashy"]
    assert record.status is JobStatus.COMPLETED
    assert record.attempts == 2
    artifact = manifest.directory / record.artifact
    assert artifact.read_text() == "survived"


def test_campaign_exhausts_retry_budget(tmp_path):
    specs = [_selftest("doomed", "fail:99", max_attempts=2)]
    manifest = run_campaign(specs, tmp_path, campaign_id="doomed",
                            seed=0, backoff_base=0.01, backoff_cap=0.05)
    record = manifest.jobs["doomed"]
    assert record.status is JobStatus.FAILED
    assert record.attempts == 2
    assert "selftest fault" in record.error


def test_watchdog_kills_hung_worker(tmp_path):
    specs = [_selftest("hung", "hang", timeout_s=1.0, max_attempts=1)]
    started = time.monotonic()
    manifest = run_campaign(specs, tmp_path, campaign_id="hung",
                            seed=0, stall_timeout=30.0)
    elapsed = time.monotonic() - started
    record = manifest.jobs["hung"]
    assert record.status is JobStatus.TIMED_OUT
    assert "watchdog" in record.error
    assert elapsed < 10.0          # killed near the 1s budget, not later


def test_campaign_refuses_duplicate_id(tmp_path):
    specs = [_selftest("one", "work:10")]
    run_campaign(specs, tmp_path, campaign_id="dup", seed=0)
    with pytest.raises(CampaignError):
        run_campaign(specs, tmp_path, campaign_id="dup", seed=0)


def test_resume_requires_existing_manifest(tmp_path):
    with pytest.raises(CampaignError):
        run_campaign([], tmp_path, campaign_id="ghost", resume=True)


# ----------------------------------------------------------------------
# the acceptance drill: chaos kill mid-campaign, resume, byte-match
# ----------------------------------------------------------------------
def _chaos_specs():
    # The sleep widens the chaos window so the kill lands mid-job; the
    # work rounds differ so every digest is distinct.
    return [
        _selftest("w0", "work:100"),
        _selftest("w1", "work:200"),
        _selftest("w2", "work:300:0.3"),
        _selftest("w3", "work:400:0.3"),
        _selftest("w4", "work:500:0.3"),
        _selftest("w5", "work:600:0.3"),
    ]


def test_chaos_kill_then_resume_matches_clean_run(tmp_path):
    clean = run_campaign(_chaos_specs(), tmp_path, campaign_id="clean",
                         seed=0, max_workers=2)
    assert clean.all_completed()

    chaos = ChaosMonkey(mode="kill-worker", kills=2, delay_s=0.05,
                        seed=42)
    interrupted = run_campaign(
        _chaos_specs(), tmp_path, campaign_id="chaos", seed=0,
        max_workers=2, chaos=chaos,
        backoff_base=0.01, backoff_cap=0.05)
    assert interrupted.interrupted
    assert not interrupted.all_completed()
    completed_before = {r.job_id for r in interrupted.by_status(
        JobStatus.COMPLETED)}
    assert completed_before           # resume has something to skip

    launched = []
    resumed = run_campaign(
        [], tmp_path, campaign_id="chaos", resume=True, max_workers=2,
        backoff_base=0.01, backoff_cap=0.05,
        on_event=lambda job_id, message: launched.append(
            (job_id, message)))
    assert resumed.all_completed()
    assert not resumed.interrupted

    # COMPLETED jobs were skipped: no lifecycle events for them.
    relaunched = {job_id for job_id, message in launched
                  if "started" in message}
    assert relaunched.isdisjoint(completed_before)

    # Results byte-match the uninterrupted run with the same seed.
    assert resumed.digests() == clean.digests()
    for record in resumed.records():
        a = (clean.directory / record.artifact).read_bytes()
        b = (resumed.directory / record.artifact).read_bytes()
        assert a == b


def test_resume_after_external_sigkill_of_campaign(tmp_path):
    """SIGKILL the whole campaign process mid-run (the way a real box
    dies), then resume from the manifest it left behind."""
    def drive(runs_dir):
        run_campaign(_chaos_specs(), runs_dir, campaign_id="boxdeath",
                     seed=0, max_workers=2)

    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=drive, args=(tmp_path,))
    process.start()
    manifest_path = tmp_path / "boxdeath" / "manifest.json"
    deadline = time.monotonic() + 30.0
    # Wait until at least one job has COMPLETED, then pull the plug.
    while time.monotonic() < deadline:
        if manifest_path.exists():
            try:
                payload = json.loads(manifest_path.read_text())
            except json.JSONDecodeError:   # mid-rename is impossible,
                payload = {"jobs": {}}     # but stay paranoid
            done = [job for job in payload.get("jobs", {}).values()
                    if job["status"] == "COMPLETED"]
            if done:
                break
        time.sleep(0.01)
    else:
        process.kill()
        pytest.fail("campaign never completed a job")
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)

    loaded = RunManifest.load(tmp_path, "boxdeath")
    assert not loaded.all_completed()
    resumed = run_campaign([], tmp_path, campaign_id="boxdeath",
                           resume=True, max_workers=2,
                           backoff_base=0.01, backoff_cap=0.05)
    assert resumed.all_completed()
    # Digests match a clean reference run with the same seed.
    reference = run_campaign(_chaos_specs(), tmp_path,
                             campaign_id="boxdeath-ref", seed=0,
                             max_workers=2)
    assert resumed.digests() == reference.digests()


def test_chaos_monkey_validation_and_determinism():
    with pytest.raises(CampaignError):
        ChaosMonkey(mode="set-fire-to-rack")
    monkey = ChaosMonkey(kills=1, delay_s=0.0, seed=1)
    assert not monkey.exhausted
    assert monkey.maybe_kill([], campaign_age=1.0) is None


# ----------------------------------------------------------------------
# chaos-interrupt accounting: the victim's attempt is charged through
# the same retry/fail path as an ordinary worker crash
# ----------------------------------------------------------------------
def _interrupted_records(tmp_path, campaign_id, max_attempts):
    specs = [_selftest("solo", "work:100:2.0",
                       max_attempts=max_attempts)]
    chaos = ChaosMonkey(mode="kill-worker", kills=1, delay_s=0.05,
                        seed=1)
    manifest = run_campaign(specs, tmp_path, campaign_id=campaign_id,
                            seed=0, max_workers=1, chaos=chaos,
                            backoff_base=0.01, backoff_cap=0.05)
    assert manifest.interrupted
    return manifest.jobs["solo"]


def test_chaos_victim_attempt_counted_with_retries_left(tmp_path):
    record = _interrupted_records(tmp_path, "chaos-acct", 3)
    # One attempt spent, retry policy applied: back to PENDING with
    # backoff — exactly what an ordinary worker crash produces.
    assert record.attempts == 1
    assert record.status is JobStatus.PENDING
    assert "chaos" in record.error
    # The interrupted manifest resumes to completion.
    resumed = run_campaign([], tmp_path, campaign_id="chaos-acct",
                           resume=True, backoff_base=0.01,
                           backoff_cap=0.05)
    assert resumed.all_completed()
    # (resume zeroes attempt counts, so the fresh run records 1)
    assert resumed.jobs["solo"].attempts == 1


def test_chaos_victim_exhausts_budget_like_ordinary_crash(tmp_path):
    record = _interrupted_records(tmp_path, "chaos-budget", 1)
    # No attempts left: terminal CRASHED, not a silent PENDING reset.
    assert record.attempts == 1
    assert record.status is JobStatus.CRASHED
    assert "chaos" in record.error


# ----------------------------------------------------------------------
# _send_error fallback paths (satellite: double send failure)
# ----------------------------------------------------------------------
class _DeadConn:
    """A pipe end whose every send raises."""

    def __init__(self, failures=2):
        self.failures = failures
        self.sent = []

    def send(self, payload):
        if self.failures > 0:
            self.failures -= 1
            raise BrokenPipeError("no reader")
        self.sent.append(payload)


def test_send_error_falls_back_to_message_only():
    from repro.runner.worker import _send_error
    conn = _DeadConn(failures=1)
    _send_error(conn, "job", ValueError("boom"), 0.5)
    assert len(conn.sent) == 1
    job_id, kind, error, text, transient, duration = conn.sent[0]
    assert job_id == "job"
    assert kind == "error"
    assert error is None                  # degraded: message only
    assert "ValueError: boom" in text
    assert transient is False
    assert duration == 0.5


def test_send_error_double_failure_exits_nonzero(monkeypatch):
    from repro.runner import worker

    exits = []

    def fake_exit(code):
        exits.append(code)
        raise SystemExit(code)            # stop like the real one

    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(SystemExit):
        worker._send_error(_DeadConn(failures=2), "job",
                           ValueError("boom"), 0.1)
    assert exits == [worker.SEND_FAILED_EXIT]
    assert worker.SEND_FAILED_EXIT != 0


def test_badpickle_error_degrades_to_message(tmp_path):
    """An unpicklable exception still reaches the parent (as text) via
    the fallback send, and the job fails loudly instead of hanging."""
    specs = [_selftest("bp", "badpickle", max_attempts=1)]
    manifest = run_campaign(specs, tmp_path, campaign_id="badpickle",
                            seed=0)
    record = manifest.jobs["bp"]
    assert record.status is JobStatus.FAILED
    assert "_UnpicklableError" in record.error
    assert "unpicklable selftest error" in record.error


def test_worker_without_reader_exits_send_failed(tmp_path):
    """Both sends hit a broken pipe (no reader at all): the worker must
    exit with SEND_FAILED_EXIT, never a clean 0."""
    from repro.runner.worker import SEND_FAILED_EXIT, worker_main

    ctx = multiprocessing.get_context("fork")
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    heartbeat = ctx.Value("d", 0.0, lock=False)
    recv_conn.close()                     # nobody will ever read
    spec = _selftest("orphan", "fail:99", max_attempts=1)
    process = ctx.Process(target=worker_main,
                          args=(spec.to_dict(), 1, send_conn,
                                heartbeat))
    process.start()
    send_conn.close()
    process.join(timeout=30.0)
    assert process.exitcode == SEND_FAILED_EXIT


# ----------------------------------------------------------------------
# closed-pipe settle (satellite: don't wait out the watchdog)
# ----------------------------------------------------------------------
def test_closed_pipe_live_worker_finalizes_immediately(tmp_path):
    from repro.runner import CampaignRunner

    spec = _selftest("wedged", "sleep:30", timeout_s=60.0,
                     max_attempts=1)
    manifest = RunManifest.create("wedged", tmp_path, specs=[spec],
                                  seed=0, created="t")
    runner = CampaignRunner(manifest, max_workers=1,
                            stall_timeout=60.0)
    runner._launch_pass(time.monotonic())
    handle = runner._inflight["wedged"]
    assert handle.alive()
    handle.conn.close()                   # the pipe dies, the worker
    started = time.monotonic()            # stays alive (wedged)
    runner._settle_pass(time.monotonic())
    elapsed = time.monotonic() - started
    # Settled as CRASHED *now* — not after the 60s budget.
    assert elapsed < 10.0
    assert not runner._inflight
    record = manifest.jobs["wedged"]
    assert record.status is JobStatus.CRASHED
    assert record.attempts == 1
    assert "result pipe closed" in record.error
    assert "still alive" in record.error
    assert not handle.alive()             # the zombie was reaped


# ----------------------------------------------------------------------
# telemetry integration: runner counters + per-job snapshots
# ----------------------------------------------------------------------
def test_runner_lifecycle_counters(tmp_path):
    from repro import telemetry

    specs = [_selftest("ok", "work:50"),
             _selftest("flaky", "fail:1", max_attempts=3)]
    with telemetry.session() as sink:
        manifest = run_campaign(specs, tmp_path, campaign_id="count",
                                seed=0, backoff_base=0.01,
                                backoff_cap=0.05)
    assert manifest.all_completed()
    counters = sink.snapshot()
    assert counters["runner.job.launches"] == 3   # ok + flaky twice
    assert counters["runner.job.completed"] == 2
    assert counters["runner.job.retries"] == 1


def test_experiment_job_counters_land_in_manifest(tmp_path):
    specs = experiment_jobs(fast=True, seed=0, only=["fig2"])
    manifest = run_campaign(specs, tmp_path, campaign_id="tele",
                            seed=0, max_workers=1)
    assert manifest.all_completed()
    record = manifest.jobs["fig2"]
    assert record.counters["exp.runs"] == 1
    assert record.counters["cpu.btb.lookups"] > 0
    # The snapshot survives the manifest checkpoint round-trip.
    loaded = RunManifest.load(tmp_path, "tele")
    assert loaded.jobs["fig2"].counters == record.counters


def test_selftest_job_counters(tmp_path):
    # `work:` emits deterministic counters (the campaign digest merges
    # them); `sleep:` stays quiet
    specs = [_selftest("busy", "work:10"),
             _selftest("quiet", "sleep:0.01")]
    manifest = run_campaign(specs, tmp_path, campaign_id="tally",
                            seed=0)
    assert manifest.jobs["busy"].counters == {
        "selftest.jobs": 1, "selftest.rounds": 10}
    assert manifest.jobs["quiet"].counters == {}
    loaded = RunManifest.load(tmp_path, "tally")
    assert loaded.jobs["busy"].counters == \
        manifest.jobs["busy"].counters


# ----------------------------------------------------------------------
# interpreter deadline guard (satellite: step/cycle budget)
# ----------------------------------------------------------------------
def _infinite_loop_state():
    from repro.cpu import MachineState
    from repro.isa import Assembler
    from repro.memory import VirtualMemory

    asm = Assembler(base=0x400000)
    asm.emit("movi", "rcx", 1)
    asm.label("loop")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    program = asm.assemble()
    memory = VirtualMemory()
    program.load_into(memory)
    state = MachineState(memory, rip=program.entry)
    state.setup_stack(0x7FFF0000)
    return state


def test_ambient_deadline_raises_simulation_timeout():
    from repro.cpu import interpret
    from repro.cpu.interp import set_ambient_deadline

    set_ambient_deadline(time.monotonic() + 0.2)
    try:
        with pytest.raises(SimulationTimeout) as info:
            interpret(_infinite_loop_state(), max_instructions=10**9)
        assert info.value.deadline is True
    finally:
        set_ambient_deadline(None)


def test_explicit_deadline_beats_instruction_budget():
    from repro.cpu import interpret
    from repro.cpu.interp import set_ambient_deadline

    # a deadline installed around one call fires long before the
    # instruction budget would; once cleared, the budget governs again
    set_ambient_deadline(time.monotonic() + 0.2)
    try:
        with pytest.raises(SimulationTimeout) as info:
            interpret(_infinite_loop_state(), max_instructions=10**9)
    finally:
        set_ambient_deadline(None)
    assert info.value.deadline is True
    assert info.value.executed > 0

    with pytest.raises(SimulationTimeout) as info:
        interpret(_infinite_loop_state(), max_instructions=100)
    assert info.value.deadline is False


def test_instruction_budget_still_raises():
    from repro.cpu import interpret

    with pytest.raises(SimulationTimeout) as info:
        interpret(_infinite_loop_state(), max_instructions=100)
    assert info.value.deadline is False
    assert info.value.budget == 100


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_campaign_fast_subset(tmp_path, capsys):
    from repro.cli import main
    code = main(["campaign", "--fast", "--seed", "0",
                 "--only", "fig5,fig7",
                 "--campaign-id", "cli-camp",
                 "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 COMPLETED" in out
    assert "manifest:" in out
    manifest = RunManifest.load(tmp_path, "cli-camp")
    assert manifest.all_completed()


def test_cli_campaign_unknown_experiment(tmp_path, capsys):
    from repro.cli import main
    code = main(["campaign", "--only", "nope",
                 "--runs-dir", str(tmp_path)])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


# ----------------------------------------------------------------------
# campaign id generation (collision safety)
# ----------------------------------------------------------------------
def test_campaign_ids_unique_in_a_tight_burst():
    from repro.runner import new_campaign_id
    # second-granularity stamps collide trivially; the pid/counter
    # suffix must keep a same-second burst unique
    ids = [new_campaign_id() for _ in range(256)]
    assert len(set(ids)) == len(ids)
    assert all(identifier.startswith("campaign-")
               for identifier in ids)


def test_artifact_digests_independent_of_campaign_id(tmp_path):
    specs = [_selftest("solo", "work:5")]
    one = run_campaign(specs, tmp_path, campaign_id="id-one", seed=3)
    two = run_campaign(specs, tmp_path, campaign_id="id-two", seed=3)
    assert one.digests() == two.digests()


# ----------------------------------------------------------------------
# worker exit codes
# ----------------------------------------------------------------------
def test_reported_worker_exits_with_its_own_code(tmp_path, monkeypatch):
    # A worker that lingers after its message is joined, not
    # SIGKILLed, so a normal exit reads 0 and a kill reads -9.
    main = runner_module.worker_main

    def lingering_main(*args):
        main(*args)
        time.sleep(0.3)

    monkeypatch.setattr(runner_module, "worker_main", lingering_main)
    exitcodes = []
    kill = WorkerHandle.kill

    def recording_kill(handle):
        kill(handle)
        exitcodes.append(handle.process.exitcode)

    monkeypatch.setattr(WorkerHandle, "kill", recording_kill)
    specs = [_selftest("a", "work:10"), _selftest("b", "work:10"),
             _selftest("c", "work:10")]
    manifest = run_campaign(specs, tmp_path, campaign_id="ve", seed=0)
    assert manifest.all_completed()
    assert exitcodes == [0, 0, 0]
