"""Durable artifact storage: atomic writes, checksummed envelopes,
write-ahead journaling, and corruption quarantine.

The paper's results are hours of unattended measurement whose state
must survive infrastructure faults: torn writes, bit rot, disk-full,
and crashed checkpoints.  This package is the one place every
persisted byte goes through:

* :func:`atomic_write` / :func:`atomic_write_bytes` /
  :func:`atomic_write_text` / :func:`atomic_write_json` — the single
  tmp + fsync + rename writer shared by the CLI, runner, and perf
  suite;
* :func:`wrap_envelope` / :func:`parse_document` — the sha256 +
  schema-tag + length envelope every durable JSON document carries
  (embedded as a plain ``"envelope"`` field, so direct readers keep
  working);
* :func:`checkpoint` / :func:`load_checkpoint` — write-ahead
  journaled persistence for manifests: a checkpoint interrupted
  mid-write replays or rolls back to the last good state, and a
  corrupted target is quarantined to ``<name>.corrupt`` and rebuilt
  from its journal;
* :func:`install_disk_faults` — the choke point the deterministic
  disk-fault injector (:mod:`repro.faults.disk`) perturbs for
  ``--chaos torn-write`` / ``bit-flip`` / ``enospc`` / ``fsync-fail``
  drills.

Telemetry counters: ``storage.writes``, ``storage.journal_replays``,
``storage.corruption_detected``.  See DESIGN.md §13.
"""

from .atomic import (PathLike, atomic_write, atomic_write_bytes,
                     atomic_write_json, atomic_write_text,
                     clear_disk_faults, digest_text, disk_faults,
                     install_disk_faults, read_json)
from .envelope import (BODY_KEY, ENVELOPE_FMT, ENVELOPE_KEY,
                       canonical_bytes, parse_document, wrap_envelope)
from .journal import (CORRUPT_SUFFIX, JOURNAL_SUFFIX, checkpoint,
                      journal_path, load_checkpoint, quarantine_file,
                      quarantine_path, reset_tick_cache)

__all__ = [
    "BODY_KEY",
    "CORRUPT_SUFFIX",
    "ENVELOPE_FMT",
    "ENVELOPE_KEY",
    "JOURNAL_SUFFIX",
    "PathLike",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_bytes",
    "checkpoint",
    "clear_disk_faults",
    "digest_text",
    "disk_faults",
    "install_disk_faults",
    "journal_path",
    "load_checkpoint",
    "parse_document",
    "quarantine_file",
    "quarantine_path",
    "read_json",
    "reset_tick_cache",
    "wrap_envelope",
    "write_envelope",
]


def write_envelope(path, payload, schema: str, *,
                   tick: int = 1):
    """Atomically write ``payload`` as a (non-journaled) enveloped
    document — for derived artifacts like the certify golden, where
    the journal's replay guarantee adds nothing."""
    return atomic_write_json(path, wrap_envelope(payload, schema,
                                                 tick))
