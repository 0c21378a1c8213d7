"""End-to-end durability drills: truncation at every byte offset, and
torn-write and bit-flip chaos with resume convergence — for unsharded
campaigns and for the one manifest of a sharded campaign.

The contract under test: resuming from a corrupted checkpoint
converges to the same per-job digests and the same layout-independent
campaign digest as a clean run — never an unhandled exception, never
a silent double-count.
"""

import pytest

from repro import telemetry
from repro.errors import ArtifactCorrupt, CampaignError, DiskFaultError
from repro.faults import DiskFaultInjector
from repro.runner import CAMPAIGN_COMPLETED, RunManifest, run_campaign
from repro.runner.jobs import KIND_SELFTEST, JobSpec
from repro.storage import (clear_disk_faults, install_disk_faults,
                           journal_path, load_checkpoint,
                           reset_tick_cache)


@pytest.fixture(autouse=True)
def _clean_storage_state():
    reset_tick_cache()
    clear_disk_faults()
    yield
    reset_tick_cache()
    clear_disk_faults()


def _selftest(job_id, program="work:2:0.0"):
    return JobSpec(job_id=job_id, kind=KIND_SELFTEST, name=program,
                   seed=0, timeout_s=30.0, max_attempts=2)


def _specs(count=4):
    return [_selftest(f"j{index:02d}") for index in range(count)]


# ----------------------------------------------------------------------
# property: a journaled checkpoint survives truncation at EVERY offset
# ----------------------------------------------------------------------
def test_manifest_survives_truncation_at_every_byte_offset(tmp_path):
    """Truncate the manifest at every byte offset (journal intact —
    the torn-write crash case): every single load must recover the
    full checkpointed state via the journal, with the exact same
    per-job digests as the untouched manifest."""
    manifest = run_campaign(_specs(3), tmp_path / "runs",
                            campaign_id="clean", seed=3)
    assert manifest.all_completed()
    clean_digests = manifest.digests()
    target = manifest.path
    good = target.read_bytes()
    journal_bytes = journal_path(target).read_bytes()

    for offset in range(len(good)):
        reset_tick_cache()
        work = tmp_path / "prop" / f"o{offset}" / "clean"
        work.mkdir(parents=True)
        (work / "manifest.json").write_bytes(good[:offset])
        journal_path(work / "manifest.json").write_bytes(
            journal_bytes)
        recovered = RunManifest.load(work.parent, "clean")
        assert recovered.digests() == clean_digests, \
            f"divergence at truncation offset {offset}"


def test_journal_truncation_at_every_offset_rolls_back(tmp_path):
    """Truncate the *journal* at every byte offset (a crash mid-WAL
    write, target intact): the load must always return the target's
    state — the torn journal never wins, never crashes the load."""
    path = tmp_path / "manifest.json"
    from repro.storage import checkpoint
    checkpoint(path, {"state": "good"}, "repro.test")
    good = path.read_bytes()
    journal_bytes = journal_path(path).read_bytes()

    for offset in range(len(journal_bytes)):
        reset_tick_cache()
        work = tmp_path / "jprop" / f"o{offset}"
        work.mkdir(parents=True)
        (work / "manifest.json").write_bytes(good)
        journal_path(work / "manifest.json").write_bytes(
            journal_bytes[:offset])
        assert load_checkpoint(work / "manifest.json",
                               "repro.test") == {"state": "good"}, \
            f"divergence at journal truncation offset {offset}"


# ----------------------------------------------------------------------
# torn-write chaos drill: interrupted campaign resumes and converges
# ----------------------------------------------------------------------
def test_torn_write_chaos_resume_converges_to_clean_digest(tmp_path):
    clean = run_campaign(_specs(4), tmp_path / "clean",
                         campaign_id="ref", seed=9)
    assert clean.all_completed()

    install_disk_faults(DiskFaultInjector(
        mode="torn-write", seed=9, strike_after=3))
    with pytest.raises(DiskFaultError):
        run_campaign(_specs(4), tmp_path / "runs",
                     campaign_id="drill", seed=9)
    clear_disk_faults()
    reset_tick_cache()

    with telemetry.session() as sink:
        resumed = run_campaign([], tmp_path / "runs",
                               campaign_id="drill", seed=9,
                               resume=True)
    assert resumed.all_completed()
    # identical per-job digests: no lost work, no double-count
    assert resumed.digests() == clean.digests()
    # the recovery really went through the corruption machinery
    assert sink.counters.get("storage.corruption_detected", 0) >= 1
    corrupt = list((tmp_path / "runs" / "drill").glob("*.corrupt*"))
    assert corrupt, "torn checkpoint should be quarantined"


def test_bit_flip_chaos_resume_never_crashes(tmp_path):
    install_disk_faults(DiskFaultInjector(
        mode="bit-flip", seed=4, strike_after=2, strikes=1))
    first = run_campaign(_specs(3), tmp_path / "runs",
                         campaign_id="flip", seed=4)
    clear_disk_faults()
    reset_tick_cache()
    # the silent corruption must be *detected* on the next load and
    # healed from the other copy — never an unhandled exception
    recovered = RunManifest.load(tmp_path / "runs", "flip")
    resumed = run_campaign([], tmp_path / "runs", campaign_id="flip",
                           seed=4, resume=True)
    assert resumed.all_completed()
    assert resumed.digests() == first.digests()
    assert recovered.campaign_id == "flip"


# ----------------------------------------------------------------------
# sharded campaigns: the one manifest heals like any other
# ----------------------------------------------------------------------
def test_sharded_manifest_bit_flip_heals_from_journal(tmp_path):
    """External bit rot in a completed sharded campaign's manifest:
    the envelope checksum catches it, the journal heals it, and the
    resume converges to the clean campaign digest."""
    runs = tmp_path / "runs"
    manifest = run_campaign(_specs(6), runs, campaign_id="sharded",
                            seed=2, shards=2)
    assert manifest.status == CAMPAIGN_COMPLETED
    data = bytearray(manifest.path.read_bytes())
    data[len(data) // 2] ^= 0x08
    manifest.path.write_bytes(bytes(data))
    reset_tick_cache()

    with telemetry.session() as sink:
        resumed = run_campaign([], runs, campaign_id="sharded",
                               resume=True)
    assert sink.counters["storage.corruption_detected"] >= 1
    assert resumed.status == CAMPAIGN_COMPLETED
    assert resumed.digests() == manifest.digests()
    assert resumed.campaign_digest() == manifest.campaign_digest()
    assert {record.shard for record in resumed.records()} == \
        {"s00", "s01"}
    assert list((runs / "sharded").glob("manifest.json.corrupt*"))


def test_sharded_torn_write_resume_converges_to_clean_digest(tmp_path):
    clean = run_campaign(_specs(6), tmp_path / "clean",
                         campaign_id="ref", seed=5, shards=2)
    assert clean.status == CAMPAIGN_COMPLETED

    install_disk_faults(DiskFaultInjector(
        mode="torn-write", seed=5, strike_after=4))
    with pytest.raises(DiskFaultError):
        run_campaign(_specs(6), tmp_path / "runs", campaign_id="drill",
                     seed=5, shards=2)
    clear_disk_faults()
    reset_tick_cache()

    resumed = run_campaign([], tmp_path / "runs", campaign_id="drill",
                           resume=True)
    assert resumed.status == CAMPAIGN_COMPLETED
    assert resumed.digests() == clean.digests()
    assert resumed.campaign_digest() == clean.campaign_digest()


def test_corrupt_manifest_without_journal_raises_artifact_corrupt(
        tmp_path):
    """A pre-durability manifest (no journal) damaged on disk is a
    typed, quarantining error — not a JSONDecodeError crash."""
    directory = tmp_path / "runs" / "old"
    directory.mkdir(parents=True)
    (directory / "manifest.json").write_text("{ torn",
                                             encoding="utf-8")
    with pytest.raises(ArtifactCorrupt):
        RunManifest.load(tmp_path / "runs", "old")
    assert (directory / "manifest.json.corrupt").exists()


def test_missing_manifest_still_raises_campaign_error(tmp_path):
    with pytest.raises(CampaignError, match="no manifest"):
        RunManifest.load(tmp_path / "runs", "nope")
