"""Sharded campaigns: ``run_campaign(..., shards=N)``.

The guarantees of sharding, pinned on the one campaign supervisor:
deterministic partitioning, shard-level chaos (``kill-shard`` /
``stall-shard``), the strike breaker with quarantine and job moves,
DEGRADED completion with exact per-shard LOST accounting, and a
campaign digest that is byte-identical across shard layouts, chaos,
and resume.

Like the runner tests, the scenarios use KIND_SELFTEST jobs so the
supervisor is exercised without paying for real experiments.  Chaos
scenarios pin their victim shard (``CHAOS_TARGET``) and, where a test
needs the breaker to trip on the first strike, lower
``BREAKER_THRESHOLD`` so assertions are deterministic.
"""

import time

import pytest

from repro import runner
from repro.errors import CampaignError
from repro.runner import (CAMPAIGN_COMPLETED, CAMPAIGN_DEGRADED,
                          CAMPAIGN_INTERRUPTED, ChaosMonkey, JobSpec,
                          JobStatus, KIND_SELFTEST, RunManifest,
                          partition_jobs, run_campaign)
from repro.runner.jobs import shard_name

#: fast retries so the drills converge quickly
FAST = {"backoff_base": 0.01, "backoff_cap": 0.05}


def _selftest(job_id, program, **kwargs):
    kwargs.setdefault("timeout_s", 30.0)
    kwargs.setdefault("max_attempts", 3)
    return JobSpec(job_id=job_id, kind=KIND_SELFTEST, name=program,
                   seed=0, **kwargs)


def _specs(count=6, program="work:3:0.05", **kwargs):
    return [_selftest(f"j{index:02d}", program, **kwargs)
            for index in range(count)]


def _pin_chaos(monkeypatch, shard, threshold=None):
    monkeypatch.setattr(runner, "CHAOS_TARGET", shard)
    if threshold is not None:
        monkeypatch.setattr(runner, "BREAKER_THRESHOLD", threshold)


def _shard_chaos(mode="kill-shard", delay_s=0.1):
    return ChaosMonkey(mode=mode, kills=1, delay_s=delay_s, seed=1)


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
def test_partition_is_deterministic_and_order_independent():
    specs = _specs(11)
    forward = partition_jobs(specs, 3, seed=7)
    backward = partition_jobs(list(reversed(specs)), 3, seed=7)
    assert forward == backward
    again = partition_jobs(specs, 3, seed=7)
    assert again == forward


def test_partition_balanced_within_one():
    for count in (5, 8, 17, 100):
        shards = partition_jobs(_specs(count), 4, seed=0)
        sizes = [len(jobs) for jobs in shards.values()]
        assert sum(sizes) == count
        assert max(sizes) - min(sizes) <= 1


def test_partition_seed_changes_layout_not_membership():
    specs = _specs(16)
    a = partition_jobs(specs, 4, seed=1)
    b = partition_jobs(specs, 4, seed=2)
    all_a = sorted(s.job_id for jobs in a.values() for s in jobs)
    all_b = sorted(s.job_id for jobs in b.values() for s in jobs)
    assert all_a == all_b == sorted(s.job_id for s in specs)
    assert a != b          # different spread (overwhelmingly likely)


def test_partition_clamps_shards_to_job_count():
    shards = partition_jobs(_specs(2), 8, seed=0)
    assert len(shards) == 2
    assert set(shards) == {shard_name(0), shard_name(1)}


def test_partition_rejects_bad_input():
    with pytest.raises(CampaignError):
        partition_jobs(_specs(3), 0)
    with pytest.raises(CampaignError):
        partition_jobs([], 2)
    dupes = [_selftest("same", "work:1"), _selftest("same", "work:1")]
    with pytest.raises(CampaignError):
        partition_jobs(dupes, 2)


# ----------------------------------------------------------------------
# the one manifest
# ----------------------------------------------------------------------
def test_sharded_manifest_records_each_jobs_shard(tmp_path):
    specs = _specs(5)
    manifest = RunManifest.create("camp", tmp_path, specs=specs,
                                  seed=9, shards=2)
    manifest.save()
    loaded = RunManifest.load(tmp_path, "camp")
    # jobs keep submission order; the layout is the partitioner's
    assert list(loaded.jobs) == [spec.job_id for spec in specs]
    layout = partition_jobs(specs, 2, seed=9)
    for shard, shard_specs in layout.items():
        for spec in shard_specs:
            assert loaded.jobs[spec.job_id].shard == shard
    # unsharded campaigns leave the field empty
    plain = RunManifest.create("plain", tmp_path, specs=specs, seed=9)
    assert {record.shard for record in plain.records()} == {""}


def test_create_refuses_existing_campaign(tmp_path):
    run_campaign(_specs(2, "work:1"), tmp_path, campaign_id="camp",
                 shards=2)
    with pytest.raises(CampaignError):
        run_campaign(_specs(2, "work:1"), tmp_path, campaign_id="camp",
                     shards=2)


def test_chaos_rejects_unknown_mode(tmp_path):
    with pytest.raises(CampaignError):
        ChaosMonkey(mode="set-on-fire")
    # shard drills need process-group shards to strike
    with pytest.raises(CampaignError, match="sharded"):
        run_campaign(_specs(2, "work:1"), tmp_path, campaign_id="flat",
                     chaos=_shard_chaos())


# ----------------------------------------------------------------------
# clean sharded completion
# ----------------------------------------------------------------------
def test_sharded_campaign_completes_and_merges(tmp_path):
    manifest = run_campaign(_specs(6), tmp_path, campaign_id="clean",
                            seed=7, shards=3)
    assert manifest.status == CAMPAIGN_COMPLETED
    assert {record.shard for record in manifest.records()} == \
        {"s00", "s01", "s02"}
    assert all(record.digest for record in manifest.records())
    assert manifest.lost() == {}
    # per-job counters from the worker telemetry sessions
    assert all(record.counters["selftest.jobs"] == 1
               for record in manifest.records())
    # the digest is recomputable from the persisted manifest
    loaded = RunManifest.load(tmp_path, "clean")
    assert loaded.campaign_digest() == manifest.campaign_digest()


def test_aggregate_digest_excludes_campaign_and_shard_layout(tmp_path):
    runs = {shards: run_campaign(_specs(6), tmp_path,
                                 campaign_id=f"n{shards}", seed=7,
                                 shards=shards)
            for shards in (0, 1, 3)}
    assert all(manifest.status == CAMPAIGN_COMPLETED
               for manifest in runs.values())
    assert len({manifest.campaign_digest()
                for manifest in runs.values()}) == 1
    assert runs[1].digests() == runs[3].digests() == runs[0].digests()


# ----------------------------------------------------------------------
# chaos: kill-shard — strike, quarantine, move, convergence
# ----------------------------------------------------------------------
def test_kill_shard_quarantines_reassigns_and_converges(tmp_path,
                                                        monkeypatch):
    specs = _specs(6, "work:3:0.5")
    clean = run_campaign(specs, tmp_path, campaign_id="clean", seed=7,
                         shards=3)
    assert clean.status == CAMPAIGN_COMPLETED
    _pin_chaos(monkeypatch, "s01", threshold=1)
    events = []
    manifest = run_campaign(
        specs, tmp_path, campaign_id="chaos", seed=7, shards=3,
        chaos=_shard_chaos(), **FAST,
        on_event=lambda source, message: events.append((source,
                                                        message)))
    assert manifest.status == CAMPAIGN_COMPLETED
    assert ("s01", "chaos: kill-shard") in events
    assert any(source == "s01" and message.startswith("QUARANTINED")
               for source, message in events)
    # every job s01 owned moved to a healthy shard and completed there
    sick = {spec.job_id
            for spec in partition_jobs(specs, 3, seed=7)["s01"]}
    for job_id in sick:
        assert manifest.jobs[job_id].shard in ("s00", "s02")
    # convergence: the same digests as the clean run despite the chaos
    assert manifest.digests() == clean.digests()
    assert manifest.campaign_digest() == clean.campaign_digest()


def test_kill_shard_below_threshold_restarts_in_place(tmp_path,
                                                      monkeypatch):
    specs = _specs(4, "work:3:0.3")
    _pin_chaos(monkeypatch, "s00")
    events = []
    manifest = run_campaign(
        specs, tmp_path, campaign_id="restart", seed=7, shards=2,
        max_workers=1, chaos=_shard_chaos(), **FAST,
        on_event=lambda source, message: events.append((source,
                                                        message)))
    assert manifest.status == CAMPAIGN_COMPLETED
    # one worker in flight, so one strike: below the breaker
    assert [message for source, message in events
            if source == "s00" and message.startswith("strike")] \
        and not any(message.startswith("QUARANTINED")
                    for _, message in events)
    layout = partition_jobs(specs, 2, seed=7)
    for shard, shard_specs in layout.items():
        for spec in shard_specs:
            assert manifest.jobs[spec.job_id].shard == shard
    # the struck job retried in place: exactly one extra attempt
    assert sorted(record.attempts
                  for record in manifest.records()) == [1, 1, 1, 2]


def test_one_dead_worker_is_one_strike(tmp_path):
    """A worker process that dies without reporting is one strike
    against its shard: the crash stays below the breaker and its job
    retries in place."""
    specs = [_selftest("a", "crash:1")] + \
        [_selftest(job_id, "work:10") for job_id in "bcdef"]
    events = []
    manifest = run_campaign(
        specs, tmp_path, campaign_id="crash-strike", shards=2,
        max_workers=1, **FAST,
        on_event=lambda source, message: events.append((source,
                                                        message)))
    assert manifest.status == CAMPAIGN_COMPLETED
    layout = partition_jobs(specs, 2, seed=None)
    crashed = next(shard for shard, shard_specs in layout.items()
                   if "a" in {spec.job_id for spec in shard_specs})
    strikes = [(source, message) for source, message in events
               if message.startswith("strike")]
    assert len(strikes) == 1
    assert strikes[0][0] == crashed
    assert strikes[0][1].startswith("strike 1/")
    assert not any(message.startswith("QUARANTINED")
                   for _, message in events)
    for shard, shard_specs in layout.items():
        for spec in shard_specs:
            assert manifest.jobs[spec.job_id].shard == shard
    # only the crashed job ran twice
    for record in manifest.records():
        assert record.attempts == (2 if record.job_id == "a" else 1)


# ----------------------------------------------------------------------
# chaos: stall-shard — only the worker heartbeat can tell
# ----------------------------------------------------------------------
def test_stalled_shard_trips_breaker_within_lease_budget(tmp_path,
                                                         monkeypatch):
    """A SIGSTOPped shard never exits, so only the heartbeat watchdog
    can detect it.  It must strike within a small margin of the stall
    timeout — far sooner than the 60 s job budget."""
    stall_timeout = 0.8
    _pin_chaos(monkeypatch, "s00", threshold=1)
    events = []
    manifest = run_campaign(
        _specs(4, "work:3:0.5", timeout_s=60.0), tmp_path,
        campaign_id="stall", seed=7, shards=2,
        stall_timeout=stall_timeout, chaos=_shard_chaos("stall-shard"),
        **FAST,
        on_event=lambda source, message: events.append(
            (time.monotonic(), source, message)))
    assert manifest.status == CAMPAIGN_COMPLETED
    stalled = [stamp for stamp, source, message in events
               if source == "s00" and message == "chaos: stall-shard"]
    assert stalled, f"chaos never fired; events: {events}"
    tripped = [stamp for stamp, source, message in events
               if source == "s00" and "heartbeat stalled" in message]
    assert tripped, f"watchdog never struck; events: {events}"
    assert tripped[0] - stalled[0] < stall_timeout + 5.0
    assert any(source == "s00" and message.startswith("QUARANTINED")
               for _, source, message in events)


# ----------------------------------------------------------------------
# graceful degradation: exact loss accounting
# ----------------------------------------------------------------------
def _degraded_run(tmp_path, monkeypatch, campaign_id):
    """s01 is killed with both its jobs in flight and no attempt left
    to move them: exactly those jobs end LOST against s01."""
    _pin_chaos(monkeypatch, "s01", threshold=1)
    return run_campaign(
        _specs(6, "work:3:0.5", max_attempts=1), tmp_path,
        campaign_id=campaign_id, seed=7, shards=3,
        chaos=_shard_chaos(), **FAST)


def test_exhausted_reassignment_budget_degrades_exactly(tmp_path,
                                                        monkeypatch,
                                                        capsys):
    manifest = _degraded_run(tmp_path, monkeypatch, "degraded")
    assert manifest.status == CAMPAIGN_DEGRADED
    sick = sorted(spec.job_id for spec in partition_jobs(
        _specs(6), 3, seed=7)["s01"])
    # exact accounting: the quarantined shard's unfinished jobs, no
    # more and no less, attributed to the shard that lost them
    assert manifest.lost() == {"s01": sick}
    for record in manifest.records():
        expected = (JobStatus.LOST if record.job_id in sick
                    else JobStatus.COMPLETED)
        assert record.status is expected
        assert record.attempts <= record.spec.max_attempts

    # the CLI reports it: exit 4 and the per-shard LOST list
    from repro.cli import main
    monkeypatch.setattr(runner, "run_campaign",
                        lambda *args, **kwargs: manifest)
    assert main(["campaign", "--only", "fig2", "--shards", "3",
                 "--runs-dir", str(tmp_path)]) == 4
    out = capsys.readouterr().out
    assert f"LOST from s01: {', '.join(sick)}" in out
    assert f"campaign digest: {manifest.campaign_digest()}" in out


def test_resume_restores_lost_jobs_and_converges(tmp_path,
                                                 monkeypatch):
    clean = run_campaign(_specs(6, "work:3:0.5", max_attempts=1),
                         tmp_path, campaign_id="clean", seed=7,
                         shards=3)
    degraded = _degraded_run(tmp_path, monkeypatch, "degraded")
    assert degraded.status == CAMPAIGN_DEGRADED
    resumed = run_campaign([], tmp_path, campaign_id="degraded",
                           resume=True, **FAST)
    assert resumed.status == CAMPAIGN_COMPLETED
    assert resumed.lost() == {}
    assert resumed.campaign_digest() == clean.campaign_digest()


# ----------------------------------------------------------------------
# interrupt + resume
# ----------------------------------------------------------------------
def test_sharded_interrupt_resumes_and_converges(tmp_path):
    specs = _specs(6, "work:3:0.3")
    clean = run_campaign(specs, tmp_path, campaign_id="clean", seed=7,
                         shards=2)
    interrupted = run_campaign(
        specs, tmp_path, campaign_id="resumable", seed=7, shards=2,
        chaos=ChaosMonkey(mode="kill-worker", kills=1, delay_s=0.1,
                          seed=1), **FAST)
    assert interrupted.status == CAMPAIGN_INTERRUPTED
    resumed = run_campaign([], tmp_path, campaign_id="resumable",
                           resume=True, **FAST)
    assert resumed.status == CAMPAIGN_COMPLETED
    assert resumed.campaign_digest() == clean.campaign_digest()


def test_resume_requires_campaign_id(tmp_path):
    with pytest.raises(CampaignError):
        run_campaign([], tmp_path, resume=True)
    with pytest.raises(CampaignError):
        run_campaign([], tmp_path, campaign_id="never-existed",
                     resume=True)
