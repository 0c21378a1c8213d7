"""Durable artifact storage: atomic writes, checksummed envelopes,
and corruption quarantine.

The paper's results are hours of unattended measurement whose state
must survive infrastructure faults: torn writes, bit rot, disk-full.
This package is the one place every persisted byte goes through:

* :func:`atomic_write` / :func:`atomic_write_bytes` /
  :func:`atomic_write_text` / :func:`atomic_write_json` — the single
  tmp + fsync + rename writer shared by the CLI, runner, and perf
  suite;
* :func:`wrap_envelope` / :func:`write_envelope` /
  :func:`parse_document` — the sha256 + schema-tag + length envelope
  every durable JSON document carries (embedded as a plain
  ``"envelope"`` field, so direct readers keep working);
* :func:`load_document` / :func:`quarantine_file` — the one reader
  for enveloped files: damage of any kind is a typed
  :class:`repro.errors.ArtifactCorrupt`, and the damaged copy moves
  aside to ``<name>.corrupt``;
* :func:`install_disk_faults` — the choke point the deterministic
  disk-fault injector (:mod:`repro.faults.disk`) perturbs for
  ``--chaos torn-write`` / ``bit-flip`` / ``enospc`` drills.

Telemetry counters: ``storage.writes``,
``storage.corruption_detected``.  See DESIGN.md §13.
"""

from .atomic import (PathLike, atomic_write, atomic_write_bytes,
                     atomic_write_json, atomic_write_text,
                     clear_disk_faults, digest_text, disk_faults,
                     install_disk_faults, read_json)
from .envelope import (BODY_KEY, CORRUPT_SUFFIX, ENVELOPE_FMT,
                       ENVELOPE_KEY, canonical_bytes, load_document,
                       parse_document, quarantine_file,
                       quarantine_path, wrap_envelope, write_envelope)

__all__ = [
    "BODY_KEY",
    "CORRUPT_SUFFIX",
    "ENVELOPE_FMT",
    "ENVELOPE_KEY",
    "PathLike",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_bytes",
    "clear_disk_faults",
    "digest_text",
    "disk_faults",
    "install_disk_faults",
    "load_document",
    "parse_document",
    "quarantine_file",
    "quarantine_path",
    "read_json",
    "wrap_envelope",
    "write_envelope",
]
