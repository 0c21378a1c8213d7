"""Checksummed envelope format for persisted JSON artifacts.

Every durable JSON document carries an ``"envelope"`` field::

    {
      ...payload fields...,
      "envelope": {
        "fmt": 1,                # envelope format version
        "schema": "repro.runner.manifest",   # document type tag
        "tick": 1,               # always 1; kept so fmt 1 holds
        "sha256": "...",         # over the canonical payload bytes
        "length": 1234           # of the canonical payload bytes
      }
    }

The checksum covers the *canonical* serialization (sorted keys,
compact separators) of the payload **without** the envelope field, so
a bit flip, torn write, or truncation anywhere in the payload is
detected on load, while the envelope stays an ordinary JSON field:
existing readers that index straight into the document
(``json.load(f)["jobs"]``, CI digest diffs, ``read_json``) keep
working unchanged.  Non-dict payloads (lists, scalars) are wrapped as
``{"envelope": {...}, "body": <payload>}``.  A document without an
envelope is corrupt.

:func:`load_document` is the one reader for enveloped files: whatever
is wrong with a file that exists (unreadable, torn, bit-flipped, wrong
schema tag) surfaces as :class:`ArtifactCorrupt`, and
:func:`quarantine_file` moves the damage aside to ``<name>.corrupt``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Tuple

from ..errors import ArtifactCorrupt
from .atomic import PathLike, atomic_write_json

ENVELOPE_KEY = "envelope"
ENVELOPE_FMT = 1
#: wrapper key used when the payload itself is not a JSON object
BODY_KEY = "body"
CORRUPT_SUFFIX = ".corrupt"


def canonical_bytes(payload: object) -> bytes:
    """The byte string the envelope checksum covers."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def wrap_envelope(payload: object, schema: str) -> dict:
    """Build the enveloped document for ``payload``."""
    canonical = canonical_bytes(payload)
    envelope = {
        "fmt": ENVELOPE_FMT,
        "schema": schema,
        "tick": 1,
        "sha256": hashlib.sha256(canonical).hexdigest(),
        "length": len(canonical),
    }
    if isinstance(payload, dict):
        if ENVELOPE_KEY in payload:
            raise ArtifactCorrupt(
                f"payload already carries an {ENVELOPE_KEY!r} field",
                reason="reserved-key")
        document = dict(payload)
        document[ENVELOPE_KEY] = envelope
        return document
    return {ENVELOPE_KEY: envelope, BODY_KEY: payload}


def write_envelope(path: PathLike, payload: object,
                   schema: str) -> Path:
    """Atomically write ``payload`` as one enveloped document."""
    return atomic_write_json(path, wrap_envelope(payload, schema))


def parse_document(document: object) -> Tuple[object, str, int]:
    """Validate a loaded JSON document.

    Returns ``(payload, schema_tag, tick)``.  Raises
    :class:`ArtifactCorrupt` when the envelope is missing or malformed,
    or the checksum/length does not match the payload.
    """
    if not isinstance(document, dict) or \
            ENVELOPE_KEY not in document:
        raise ArtifactCorrupt("document has no envelope",
                              reason="no-envelope")
    envelope = document[ENVELOPE_KEY]
    if not isinstance(envelope, dict):
        raise ArtifactCorrupt("envelope field is not an object",
                              reason="bad-envelope")
    if envelope.get("fmt") != ENVELOPE_FMT:
        raise ArtifactCorrupt(
            f"unknown envelope format {envelope.get('fmt')!r}",
            reason="bad-envelope")
    if BODY_KEY in document and len(document) == 2:
        payload = document[BODY_KEY]
    else:
        payload = {key: value for key, value in document.items()
                   if key != ENVELOPE_KEY}
    canonical = canonical_bytes(payload)
    length = envelope.get("length")
    if length != len(canonical):
        raise ArtifactCorrupt(
            f"length mismatch: envelope says {length}, "
            f"payload is {len(canonical)} canonical bytes",
            reason="length-mismatch")
    digest = hashlib.sha256(canonical).hexdigest()
    if envelope.get("sha256") != digest:
        raise ArtifactCorrupt(
            f"checksum mismatch: envelope says "
            f"{envelope.get('sha256')!r}, payload hashes to "
            f"{digest}", reason="checksum-mismatch")
    tick = envelope.get("tick")
    if not isinstance(tick, int) or tick < 0:
        raise ArtifactCorrupt(f"bad envelope tick {tick!r}",
                              reason="bad-envelope")
    return payload, str(envelope.get("schema", "")), tick


def load_document(path: PathLike, schema: str) -> object:
    """Read and validate one enveloped JSON file tagged ``schema``;
    return its payload.  Raises FileNotFoundError when the file is
    missing and :class:`ArtifactCorrupt` for anything else that keeps
    it from serving."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as error:
        raise ArtifactCorrupt(f"cannot read {path}: {error}",
                              path=str(path),
                              reason="unreadable") from error
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactCorrupt(
            f"{path} is not valid JSON (truncated or torn write): "
            f"{error}", path=str(path),
            reason="invalid-json") from error
    try:
        payload, found, _ = parse_document(document)
    except ArtifactCorrupt as error:
        raise ArtifactCorrupt(f"{path}: {error}", path=str(path),
                              reason=error.reason) from error
    if found != schema:
        raise ArtifactCorrupt(
            f"{path} carries schema tag {found!r}, "
            f"expected {schema!r}", path=str(path),
            reason="schema-mismatch")
    return payload


def quarantine_path(path: PathLike) -> Path:
    """The (non-clobbering) destination a damaged file moves to."""
    path = Path(path)
    candidate = path.parent / f"{path.name}{CORRUPT_SUFFIX}"
    sequence = 0
    while candidate.exists():
        sequence += 1
        candidate = path.parent / \
            f"{path.name}{CORRUPT_SUFFIX}.{sequence}"
    return candidate


def quarantine_file(path: PathLike) -> Optional[Path]:
    """Move a damaged file aside to ``<name>.corrupt`` (forensics
    survive, a retried load starts clean).  Returns the quarantine
    path, or None if the file vanished underneath us."""
    path = Path(path)
    destination = quarantine_path(path)
    try:
        path.rename(destination)
    except OSError:
        return None
    from .. import telemetry
    telemetry.count("storage.corruption_detected")
    return destination
