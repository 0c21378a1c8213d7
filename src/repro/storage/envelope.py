"""Checksummed envelope format for persisted JSON artifacts.

Every durable JSON document carries an ``"envelope"`` field::

    {
      ...payload fields...,
      "envelope": {
        "fmt": 1,                # envelope format version
        "schema": "repro.runner.manifest",   # document type tag
        "tick": 17,              # checkpoint sequence number
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
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

from ..errors import ArtifactCorrupt

ENVELOPE_KEY = "envelope"
ENVELOPE_FMT = 1
#: wrapper key used when the payload itself is not a JSON object
BODY_KEY = "body"


def canonical_bytes(payload: object) -> bytes:
    """The byte string the envelope checksum covers."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def wrap_envelope(payload: object, schema: str,
                  tick: int = 1) -> dict:
    """Build the enveloped document for ``payload``."""
    canonical = canonical_bytes(payload)
    envelope = {
        "fmt": ENVELOPE_FMT,
        "schema": schema,
        "tick": int(tick),
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
