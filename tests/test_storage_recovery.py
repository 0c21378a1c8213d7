"""End-to-end durability drills: truncation at every byte offset, and
torn-write and bit-flip chaos with resume convergence — for unsharded
campaigns and for the one manifest of a sharded campaign.

The contract under test: a corrupt manifest is quarantined and the
campaign re-runs from its write-once creation record, converging to
the same per-job digests and the same layout-independent campaign
digest as a clean run — never an unhandled exception, never a silent
double-count.
"""

import pytest

from repro import telemetry
from repro.errors import ArtifactCorrupt, CampaignError, DiskFaultError
from repro.faults import DiskFaultInjector
from repro.runner import (CAMPAIGN_COMPLETED, CREATION_RECORD_NAME,
                          RunManifest, run_campaign)
from repro.runner.jobs import KIND_SELFTEST, JobSpec
from repro.runner.manifest import SCHEMA_TAG
from repro.storage import (clear_disk_faults, install_disk_faults,
                           load_document)


@pytest.fixture(autouse=True)
def _clean_storage_state():
    clear_disk_faults()
    yield
    clear_disk_faults()


def _selftest(job_id, program="work:2:0.0"):
    return JobSpec(job_id=job_id, kind=KIND_SELFTEST, name=program,
                   seed=0, timeout_s=30.0, max_attempts=2)


def _specs(count=4):
    return [_selftest(f"j{index:02d}") for index in range(count)]


# ----------------------------------------------------------------------
# property: a manifest torn at EVERY offset falls back to the record
# ----------------------------------------------------------------------
def test_manifest_survives_truncation_at_every_byte_offset(tmp_path):
    """Truncate a completed sharded campaign's manifest at every byte
    offset (the torn-write crash case): every load quarantines the
    torn copy and returns the creation record's jobs, specs and shards,
    all PENDING, so the resume re-runs the campaign."""
    manifest = run_campaign(_specs(3), tmp_path / "runs",
                            campaign_id="clean", seed=3, shards=2)
    assert manifest.all_completed()
    good = manifest.path.read_bytes()
    record_bytes = (manifest.directory / CREATION_RECORD_NAME
                    ).read_bytes()
    created = load_document(
        manifest.directory / CREATION_RECORD_NAME, SCHEMA_TAG)
    assert {job["status"] for job in created["jobs"].values()} == \
        {"PENDING"}
    assert {job["shard"] for job in created["jobs"].values()} == \
        {"s00", "s01"}

    for offset in range(len(good)):
        work = tmp_path / "prop" / f"o{offset}" / "clean"
        work.mkdir(parents=True)
        (work / "manifest.json").write_bytes(good[:offset])
        (work / CREATION_RECORD_NAME).write_bytes(record_bytes)
        if good[:offset].rstrip() == good.rstrip():
            # only trailing whitespace lost: the document is whole
            assert RunManifest.load(work.parent, "clean").digests() \
                == manifest.digests()
            continue
        with telemetry.session() as sink:
            try:
                recovered = RunManifest.load(work.parent, "clean")
            except ArtifactCorrupt as error:
                pytest.fail(f"offset {offset}: {error}")
        assert {job_id: record.to_dict() for job_id, record in
                recovered.jobs.items()} == created["jobs"], \
            f"divergence at truncation offset {offset}"
        assert sink.counters["storage.corruption_detected"] == 1
        assert (work / "manifest.json.corrupt").read_bytes() == \
            good[:offset]
        assert not (work / "manifest.json").exists()


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

    with telemetry.session() as sink:
        resumed = run_campaign([], tmp_path / "runs",
                               campaign_id="drill", seed=9,
                               resume=True)
    assert resumed.all_completed()
    # identical per-job digests: no lost work, no double-count
    assert resumed.digests() == clean.digests()
    assert resumed.campaign_digest() == clean.campaign_digest()
    # the recovery really went through the corruption machinery
    assert sink.counters.get("storage.corruption_detected", 0) >= 1
    corrupt = list((tmp_path / "runs" / "drill").glob("*.corrupt*"))
    assert corrupt, "torn checkpoint should be quarantined"


def test_bit_flip_chaos_resume_never_crashes(tmp_path):
    install_disk_faults(DiskFaultInjector(
        mode="bit-flip", seed=4, strike_after=2))
    first = run_campaign(_specs(3), tmp_path / "runs",
                         campaign_id="flip", seed=4)
    clear_disk_faults()
    # later manifest writes overwrote the flipped one, so the load
    # serves the final manifest — never an unhandled exception
    recovered = RunManifest.load(tmp_path / "runs", "flip")
    resumed = run_campaign([], tmp_path / "runs", campaign_id="flip",
                           seed=4, resume=True)
    assert resumed.all_completed()
    assert resumed.digests() == first.digests()
    assert recovered.campaign_id == "flip"


# ----------------------------------------------------------------------
# sharded campaigns: the one manifest recovers like any other
# ----------------------------------------------------------------------
def test_sharded_manifest_bit_flip_reruns_from_creation_record(
        tmp_path):
    """External bit rot in a completed sharded campaign's manifest:
    the envelope checksum catches it, the campaign re-runs from its
    creation record, and the resume converges to the clean campaign
    digest."""
    runs = tmp_path / "runs"
    manifest = run_campaign(_specs(6), runs, campaign_id="sharded",
                            seed=2, shards=2)
    assert manifest.status == CAMPAIGN_COMPLETED
    data = bytearray(manifest.path.read_bytes())
    data[len(data) // 2] ^= 0x08
    manifest.path.write_bytes(bytes(data))

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

    resumed = run_campaign([], tmp_path / "runs", campaign_id="drill",
                           resume=True)
    assert resumed.status == CAMPAIGN_COMPLETED
    assert resumed.digests() == clean.digests()
    assert resumed.campaign_digest() == clean.campaign_digest()


def test_both_files_corrupt_resume_is_typed_and_exits_2(tmp_path,
                                                          capsys):
    from repro.cli import main
    runs = tmp_path / "runs"
    manifest = run_campaign(_specs(2), runs, campaign_id="gone", seed=1)
    manifest.path.write_text("{ torn", encoding="utf-8")
    (manifest.directory / CREATION_RECORD_NAME).write_text(
        "[]", encoding="utf-8")
    with pytest.raises(ArtifactCorrupt) as excinfo:
        RunManifest.load(runs, "gone")
    assert excinfo.value.quarantined
    # a second resume finds no manifest, only the damaged record
    code = main(["campaign", "--resume", "gone",
                 "--runs-dir", str(runs)])
    assert code == 2
    assert "no valid manifest or creation record" in \
        capsys.readouterr().err


def test_create_refuses_campaign_whose_manifest_was_quarantined(
        tmp_path):
    runs = tmp_path / "runs"
    manifest = run_campaign(_specs(2), runs, campaign_id="camp", seed=1)
    manifest.path.write_text("{ torn", encoding="utf-8")
    RunManifest.load(runs, "camp")        # quarantines the manifest
    assert not manifest.path.exists()
    assert (manifest.directory / CREATION_RECORD_NAME).exists()
    with pytest.raises(CampaignError, match="already exists"):
        run_campaign(_specs(2), runs, campaign_id="camp", seed=1)


def test_corrupt_manifest_without_creation_record_raises_artifact_corrupt(
        tmp_path):
    """A manifest with no creation record beside it, damaged on disk,
    is a typed, quarantining error — not a JSONDecodeError crash."""
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
