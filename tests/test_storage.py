"""The durable storage layer: checksummed envelopes, the one
enveloped-file reader with quarantine, the manifest's one write per
state transition and its manifest-else-creation-record load rule, the
consolidated atomic writer (byte-identical to the implementation it
replaced), and the deterministic disk-fault injector.
"""

import errno
import json
import pickle

import pytest

from repro import telemetry
from repro.errors import ArtifactCorrupt, DiskFaultError
from repro.faults import DiskFaultInjector, disk_chaos
from repro.runner import CREATION_RECORD_NAME, JobStatus, RunManifest
from repro.runner.jobs import KIND_SELFTEST, JobSpec
from repro.runner.manifest import SCHEMA_TAG
from repro.storage import (CORRUPT_SUFFIX, ENVELOPE_KEY, atomic_write,
                           atomic_write_json, canonical_bytes,
                           clear_disk_faults, install_disk_faults,
                           load_document, parse_document,
                           quarantine_path, read_json, wrap_envelope,
                           write_envelope)


@pytest.fixture(autouse=True)
def _clean_storage_state():
    clear_disk_faults()
    yield
    clear_disk_faults()


def _campaign(runs_dir, campaign_id="camp"):
    """A two-job campaign, created (creation record written) and then
    saved once with its first job COMPLETED."""
    specs = [JobSpec(job_id=job_id, kind=KIND_SELFTEST, name="work:2",
                     seed=0) for job_id in ("a", "b")]
    manifest = RunManifest.create(campaign_id, runs_dir, specs=specs,
                                  seed=0, shards=2)
    manifest.jobs["a"].status = JobStatus.COMPLETED
    manifest.jobs["a"].digest = "d" * 64
    manifest.save()
    return manifest


# ----------------------------------------------------------------------
# envelope format
# ----------------------------------------------------------------------
def test_envelope_roundtrip_dict_payload():
    payload = {"alpha": 1, "jobs": {"j0": {"status": "PENDING"}}}
    document = wrap_envelope(payload, "repro.test")
    # the payload's own keys stay top-level: direct readers
    # (json.load(f)["jobs"]) keep working
    assert document["jobs"] == payload["jobs"]
    assert document[ENVELOPE_KEY]["schema"] == "repro.test"
    parsed, schema, tick = parse_document(document)
    assert parsed == payload
    assert schema == "repro.test"
    assert tick == 1


def test_envelope_roundtrip_non_dict_payload():
    document = wrap_envelope([1, 2, 3], "repro.list")
    parsed, schema, tick = parse_document(document)
    assert parsed == [1, 2, 3]
    assert schema == "repro.list"
    assert tick == 1


def test_document_without_envelope_is_corrupt():
    with pytest.raises(ArtifactCorrupt) as excinfo:
        parse_document({"schema": 3, "jobs": {}})
    assert excinfo.value.reason == "no-envelope"


def test_envelope_detects_payload_tampering():
    document = wrap_envelope({"value": 1}, "repro.test")
    document["value"] = 2            # same canonical length
    with pytest.raises(ArtifactCorrupt) as excinfo:
        parse_document(document)
    assert excinfo.value.reason == "checksum-mismatch"


def test_envelope_detects_truncation_by_length():
    document = wrap_envelope({"value": "long-enough-string"},
                             "repro.test")
    document["value"] = "x"
    with pytest.raises(ArtifactCorrupt) as excinfo:
        parse_document(document)
    assert excinfo.value.reason == "length-mismatch"


def test_envelope_rejects_unknown_format_and_reserved_key():
    document = wrap_envelope({"value": 1}, "repro.test")
    document[ENVELOPE_KEY] = dict(document[ENVELOPE_KEY], fmt=99)
    with pytest.raises(ArtifactCorrupt):
        parse_document(document)
    with pytest.raises(ArtifactCorrupt):
        wrap_envelope({ENVELOPE_KEY: "taken"}, "repro.test")


def test_canonical_bytes_are_stable():
    assert canonical_bytes({"b": 1, "a": 2}) == \
        canonical_bytes({"a": 2, "b": 1})


# ----------------------------------------------------------------------
# consolidated atomic writer: byte-identical to the old one
# ----------------------------------------------------------------------
def test_atomic_write_json_bytes_unchanged(tmp_path):
    """Regression for the consolidation: the storage writer must
    produce exactly the bytes the runner's old writer produced."""
    payload = {"schema": 2, "jobs": {"j1": {"status": "COMPLETED"}},
               "seed": None, "created": "2026-08-06T12:00:00",
               "unicode": "münchen"}
    new_path = atomic_write_json(tmp_path / "new.json", payload)
    # the runner's original serialization, verbatim
    legacy = (json.dumps(payload, indent=2, sort_keys=True,
                         ensure_ascii=False) + "\n").encode("utf-8")
    assert new_path.read_bytes() == legacy


def test_atomic_write_dispatches_text_and_bytes(tmp_path):
    text_path = atomic_write(tmp_path / "a.txt", "héllo")
    byte_path = atomic_write(tmp_path / "b.bin", b"\x00\x01")
    assert text_path.read_text(encoding="utf-8") == "héllo"
    assert byte_path.read_bytes() == b"\x00\x01"


def test_atomic_writes_count_telemetry(tmp_path):
    with telemetry.session() as sink:
        atomic_write(tmp_path / "x", "1")
        atomic_write(tmp_path / "y", "2")
    assert sink.counters["storage.writes"] == 2


# ----------------------------------------------------------------------
# one copy per checkpoint: manifest, else creation record
# ----------------------------------------------------------------------
def test_manifest_save_is_one_write_per_transition(tmp_path):
    with telemetry.session() as sink:
        manifest = _campaign(tmp_path)
        assert sink.counters["storage.writes"] == 2   # record + save
        manifest.jobs["b"].status = JobStatus.COMPLETED
        manifest.save()
    assert sink.counters["storage.writes"] == 3
    assert sorted(path.name for path in manifest.directory.iterdir()) \
        == [CREATION_RECORD_NAME, "manifest.json"]
    payload = load_document(manifest.path, SCHEMA_TAG)
    assert parse_document(read_json(manifest.path))[1:] == \
        (SCHEMA_TAG, 1)
    assert {job["status"] for job in payload["jobs"].values()} == \
        {"COMPLETED"}
    # the creation record is write-once: still the state at creation
    record = load_document(
        manifest.directory / CREATION_RECORD_NAME, SCHEMA_TAG)
    assert {job["status"] for job in record["jobs"].values()} == \
        {"PENDING"}
    assert {job["shard"] for job in record["jobs"].values()} == \
        {"s00", "s01"}


def test_load_quarantines_corrupt_target_and_replays(tmp_path):
    """A corrupt manifest is quarantined and the load falls back to
    the creation record, so the resume replays every job."""
    manifest = _campaign(tmp_path)
    manifest.path.write_text("{ not json", encoding="utf-8")
    with telemetry.session() as sink:
        loaded = RunManifest.load(tmp_path, "camp")
    assert sink.counters["storage.corruption_detected"] == 1
    assert [record.status for record in loaded.records()] == \
        [JobStatus.PENDING, JobStatus.PENDING]
    assert {job_id: record.spec for job_id, record in
            loaded.jobs.items()} == \
        {job_id: record.spec for job_id, record in
         manifest.jobs.items()}
    assert [record.shard for record in loaded.records()] == \
        [record.shard for record in manifest.records()]
    # the quarantined forensics hold the damaged bytes
    quarantined = tmp_path / "camp" / f"manifest.json{CORRUPT_SUFFIX}"
    assert quarantined.read_text(encoding="utf-8") == "{ not json"
    assert not manifest.path.exists()


def test_load_raises_when_both_copies_corrupt(tmp_path):
    manifest = _campaign(tmp_path)
    record = manifest.directory / CREATION_RECORD_NAME
    manifest.path.write_text("xxx", encoding="utf-8")
    record.write_text("yyy", encoding="utf-8")
    with pytest.raises(ArtifactCorrupt) as excinfo:
        RunManifest.load(tmp_path, "camp")
    assert excinfo.value.reason == "invalid-json"
    assert excinfo.value.quarantined.endswith(
        f"manifest.json{CORRUPT_SUFFIX}")
    # the damaged manifest moved aside; the write-once record stays
    assert (tmp_path / "camp" / f"manifest.json{CORRUPT_SUFFIX}"
            ).exists()
    assert record.read_text(encoding="utf-8") == "yyy"


def test_load_missing_checkpoint_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_document(tmp_path / "manifest.json", "repro.test")


def test_schema_tag_mismatch_is_corruption(tmp_path):
    path = tmp_path / "manifest.json"
    write_envelope(path, {"state": 1}, "repro.other")
    with pytest.raises(ArtifactCorrupt) as excinfo:
        load_document(path, "repro.test")
    assert excinfo.value.reason == "schema-mismatch"


def test_quarantine_path_never_clobbers(tmp_path):
    path = tmp_path / "manifest.json"
    first = quarantine_path(path)
    first.write_text("old", encoding="utf-8")
    second = quarantine_path(path)
    assert second != first and not second.exists()


def test_write_envelope_for_derived_artifacts(tmp_path):
    path = tmp_path / "aggregate.json"
    write_envelope(path, {"digest": "abc"}, "repro.test.aggregate")
    payload, schema, _ = parse_document(read_json(path))
    assert payload == {"digest": "abc"}
    assert schema == "repro.test.aggregate"


# ----------------------------------------------------------------------
# deterministic disk-fault injector
# ----------------------------------------------------------------------
def test_injector_schedule_is_seed_deterministic():
    first = DiskFaultInjector(mode="torn-write", seed=42)
    second = DiskFaultInjector(mode="torn-write", seed=42)
    other = DiskFaultInjector(mode="torn-write", seed=43)
    assert first.strike_after == second.strike_after
    assert (first.strike_after, other.strike_after) != (0, 0)


def test_torn_write_truncates_target_and_plays_dead(tmp_path):
    injector = DiskFaultInjector(mode="torn-write", seed=1,
                                 strike_after=2)
    install_disk_faults(injector)
    path = tmp_path / "manifest.json"
    write_envelope(path, {"state": 1}, "repro.test")
    with pytest.raises(DiskFaultError):
        write_envelope(path, {"state": 2}, "repro.test")
    assert injector.dead
    kind, struck_path, offset = injector.events[0]
    assert kind == "torn-write" and offset > 0
    assert struck_path == str(path)
    # every further write fails (dead disk), artifacts included
    with pytest.raises(DiskFaultError):
        atomic_write(tmp_path / "artifact.txt", "late")
    clear_disk_faults()
    # the one copy on disk is the torn one: a typed error on load
    assert len(path.read_bytes()) == offset
    with pytest.raises(ArtifactCorrupt):
        load_document(path, "repro.test")


def test_bit_flip_is_silent_and_detected_on_load(tmp_path):
    injector = DiskFaultInjector(mode="bit-flip", seed=5,
                                 strike_after=2)
    install_disk_faults(injector)
    path = tmp_path / "manifest.json"
    write_envelope(path, {"state": 1}, "repro.test")
    # the second manifest write is flipped; nothing raises
    write_envelope(path, {"state": 2}, "repro.test")
    write_envelope(path, {"state": 3}, "repro.test")   # one strike only
    clear_disk_faults()
    assert len(injector.events) == 1
    assert load_document(path, "repro.test") == {"state": 3}
    flipped = tmp_path / "flipped" / "manifest.json"
    injector = DiskFaultInjector(mode="bit-flip", seed=5,
                                 strike_after=1)
    install_disk_faults(injector)
    write_envelope(flipped, {"state": 1}, "repro.test")
    clear_disk_faults()
    with pytest.raises(ArtifactCorrupt):
        load_document(flipped, "repro.test")


def test_enospc_raises_with_errno(tmp_path):
    injector = DiskFaultInjector(mode="enospc", seed=0, strike_after=2)
    install_disk_faults(injector)
    path = tmp_path / "manifest.json"
    write_envelope(path, {"state": 1}, "repro.test")
    with pytest.raises(DiskFaultError) as excinfo:
        write_envelope(path, {"state": 2}, "repro.test")
    clear_disk_faults()
    assert excinfo.value.errno_ == errno.ENOSPC
    assert excinfo.value.kind == "enospc"
    assert injector.dead
    # nothing reached disk: the old target survives intact
    assert load_document(path, "repro.test") == {"state": 1}


def test_injector_match_scopes_the_blast_radius(tmp_path):
    injector = DiskFaultInjector(mode="enospc", seed=0,
                                 strike_after=1)
    install_disk_faults(injector)
    # only manifest writes count and get struck: artifacts and the
    # creation record pass through clean
    atomic_write(tmp_path / "artifact.txt", "fine")
    atomic_write(tmp_path / CREATION_RECORD_NAME, "fine")
    with pytest.raises(DiskFaultError):
        atomic_write(tmp_path / "manifest.json", "{}")


def test_injector_rejects_unknown_mode():
    with pytest.raises(DiskFaultError):
        DiskFaultInjector(mode="meteor-strike")
    assert disk_chaos("meteor-strike") is None
    assert disk_chaos("fsync-fail") is None
    assert disk_chaos("torn-write", seed=1).mode == "torn-write"


# ----------------------------------------------------------------------
# structured errors stay picklable (cross-process reporting)
# ----------------------------------------------------------------------
def test_storage_errors_pickle_roundtrip():
    corrupt = ArtifactCorrupt("bad", path="/p", reason="invalid-json",
                              quarantined="/p.corrupt")
    fault = DiskFaultError("torn", path="/p", kind="torn-write",
                           errno_=errno.EIO)
    for error in (corrupt, fault):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
    clone = pickle.loads(pickle.dumps(corrupt))
    assert clone.reason == "invalid-json"
    assert clone.quarantined == "/p.corrupt"
