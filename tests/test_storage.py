"""The durable storage layer: checksummed envelopes, write-ahead
journaled checkpoints with quarantine + recovery, the consolidated
atomic writer (byte-identical to the implementation it replaced), and
the deterministic disk-fault injector.
"""

import errno
import json
import pickle

import pytest

from repro import telemetry
from repro.errors import ArtifactCorrupt, DiskFaultError
from repro.faults import DiskFaultInjector, disk_chaos
from repro.storage import (CORRUPT_SUFFIX, ENVELOPE_KEY, atomic_write,
                           atomic_write_json, canonical_bytes, checkpoint,
                           clear_disk_faults, install_disk_faults,
                           journal_path, load_checkpoint,
                           parse_document, quarantine_path,
                           read_json, reset_tick_cache,
                           wrap_envelope, write_envelope)


@pytest.fixture(autouse=True)
def _clean_storage_state():
    reset_tick_cache()
    clear_disk_faults()
    yield
    reset_tick_cache()
    clear_disk_faults()


# ----------------------------------------------------------------------
# envelope format
# ----------------------------------------------------------------------
def test_envelope_roundtrip_dict_payload():
    payload = {"alpha": 1, "jobs": {"j0": {"status": "PENDING"}}}
    document = wrap_envelope(payload, "repro.test", tick=3)
    # the payload's own keys stay top-level: direct readers
    # (json.load(f)["jobs"]) keep working
    assert document["jobs"] == payload["jobs"]
    assert document[ENVELOPE_KEY]["schema"] == "repro.test"
    parsed, schema, tick = parse_document(document)
    assert parsed == payload
    assert schema == "repro.test"
    assert tick == 3


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
# write-ahead journal
# ----------------------------------------------------------------------
def test_checkpoint_writes_journal_then_target(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    assert path.exists() and journal_path(path).exists()
    payload, schema, tick = parse_document(read_json(path))
    assert payload == {"state": 1} and tick == 1
    checkpoint(path, {"state": 2}, "repro.test")
    _, _, tick = parse_document(read_json(path))
    assert tick == 2
    assert load_checkpoint(path, "repro.test") == {"state": 2}


def test_load_replays_newer_journal_over_stale_target(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    stale = path.read_bytes()
    checkpoint(path, {"state": 2}, "repro.test")
    # crash between journal and target: the target is one tick behind
    path.write_bytes(stale)
    with telemetry.session() as sink:
        assert load_checkpoint(path, "repro.test") == {"state": 2}
    assert sink.counters["storage.journal_replays"] == 1
    # the replay repaired the target in place
    _, _, tick = parse_document(read_json(path))
    assert tick == 2


def test_load_rolls_back_torn_journal_write(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    jpath = journal_path(path)
    jpath.write_bytes(jpath.read_bytes()[: len(jpath.read_bytes())
                                         // 2])
    with telemetry.session() as sink:
        assert load_checkpoint(path, "repro.test") == {"state": 1}
    assert sink.counters["storage.corruption_detected"] == 1
    assert (tmp_path / f"manifest.json.journal{CORRUPT_SUFFIX}"
            ).exists()


def test_load_quarantines_corrupt_target_and_replays(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    path.write_text("{ not json", encoding="utf-8")
    with telemetry.session() as sink:
        assert load_checkpoint(path, "repro.test") == {"state": 1}
    assert sink.counters["storage.corruption_detected"] == 1
    assert sink.counters["storage.journal_replays"] == 1
    assert (tmp_path / f"manifest.json{CORRUPT_SUFFIX}").exists()
    # the quarantined forensics hold the damaged bytes
    assert (tmp_path / f"manifest.json{CORRUPT_SUFFIX}"
            ).read_text(encoding="utf-8") == "{ not json"


def test_load_raises_when_both_copies_corrupt(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    path.write_text("xxx", encoding="utf-8")
    journal_path(path).write_text("yyy", encoding="utf-8")
    with pytest.raises(ArtifactCorrupt) as excinfo:
        load_checkpoint(path, "repro.test")
    assert excinfo.value.quarantined
    # both damaged copies moved aside for forensics
    assert (tmp_path / f"manifest.json{CORRUPT_SUFFIX}").exists()
    assert (tmp_path / f"manifest.json.journal{CORRUPT_SUFFIX}"
            ).exists()


def test_load_missing_checkpoint_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "manifest.json")


def test_schema_tag_mismatch_is_corruption(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.other")
    journal_path(path).unlink()
    with pytest.raises(ArtifactCorrupt) as excinfo:
        load_checkpoint(path, expect_schema="repro.test")
    assert excinfo.value.reason == "schema-mismatch"


def test_tick_survives_process_restart(tmp_path):
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    checkpoint(path, {"state": 2}, "repro.test")
    reset_tick_cache()               # "new process"
    checkpoint(path, {"state": 3}, "repro.test")
    _, _, tick = parse_document(read_json(path))
    assert tick == 3


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
    checkpoint(path, {"state": 1}, "repro.test")   # writes 1+2 ok...
    with pytest.raises(DiskFaultError):
        checkpoint(path, {"state": 2}, "repro.test")
    assert injector.dead
    kind, struck_path, offset = injector.events[0]
    assert kind == "torn-write" and offset > 0
    assert struck_path.endswith("manifest.json") or \
        struck_path.endswith("manifest.json.journal")
    # every further matching write fails (dead disk)
    with pytest.raises(DiskFaultError):
        checkpoint(path, {"state": 3}, "repro.test")
    clear_disk_faults()
    # after "replacing the disk" the journal recovers the last good
    # state: the strike hit either the journal or the target write
    recovered = load_checkpoint(path, "repro.test")
    assert recovered in ({"state": 1}, {"state": 2})


def test_bit_flip_is_silent_and_detected_on_load(tmp_path):
    injector = DiskFaultInjector(mode="bit-flip", seed=5,
                                 strike_after=2, strikes=1)
    install_disk_faults(injector)
    path = tmp_path / "manifest.json"
    checkpoint(path, {"state": 1}, "repro.test")
    # journal writes don't match the default pattern, so the second
    # checkpoint's *target* write is matching write #2: flipped
    checkpoint(path, {"state": 2}, "repro.test")
    clear_disk_faults()
    assert len(injector.events) == 1               # silent, no raise
    # one copy is damaged; the load must detect it via the checksum
    # and still recover a consistent state from the other copy
    recovered = load_checkpoint(path, "repro.test")
    assert recovered in ({"state": 1}, {"state": 2})


def test_enospc_and_fsync_fail_raise_with_errno(tmp_path):
    for mode, expected in (("enospc", errno.ENOSPC),
                           ("fsync-fail", errno.EIO)):
        injector = DiskFaultInjector(mode=mode, seed=0,
                                     strike_after=1)
        install_disk_faults(injector)
        with pytest.raises(DiskFaultError) as excinfo:
            atomic_write(tmp_path / mode / "manifest.json", "{}")
        clear_disk_faults()
        assert excinfo.value.errno_ == expected
        assert excinfo.value.kind == mode


def test_injector_match_scopes_the_blast_radius(tmp_path):
    injector = DiskFaultInjector(mode="enospc", seed=0,
                                 strike_after=1,
                                 match="manifest.json")
    install_disk_faults(injector)
    # non-matching writes (artifacts, journals) pass through clean
    atomic_write(tmp_path / "artifact.txt", "fine")
    atomic_write(tmp_path / "manifest.json.journal", "fine")
    with pytest.raises(DiskFaultError):
        atomic_write(tmp_path / "manifest.json", "{}")


def test_injector_rejects_unknown_mode():
    with pytest.raises(DiskFaultError):
        DiskFaultInjector(mode="meteor-strike")
    assert disk_chaos("meteor-strike") is None
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
