"""Write-ahead journaling + corruption recovery for checkpoints.

:func:`checkpoint` persists a JSON document twice: the enveloped
document is first written (atomically, fsynced) to ``<name>.journal``,
then to the target path.  The journal is deliberately **kept** after
the commit — it is the last-known-good copy, so recovery covers not
just a crash *between* the two writes but also later external damage
to the target (bit rot, a torn write on a filesystem whose rename was
not atomic, an operator truncating the file).

:func:`load_checkpoint` arbitrates between the two copies using the
envelope's checkpoint sequence number (``tick``):

* both valid — the newer tick wins; a newer journal is **replayed**
  over the target (the checkpoint died between journal and target);
* target corrupt — it is quarantined to ``<name>.corrupt`` and the
  journal replayed; if the journal is also bad, the load raises
  :class:`repro.errors.ArtifactCorrupt` with the quarantine path;
* journal corrupt, target valid — the torn journal write is **rolled
  back** (quarantined) and the target's last good state wins.

Every detected corruption bumps the ``storage.corruption_detected``
telemetry counter; every replay bumps ``storage.journal_replays``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import ArtifactCorrupt
from .atomic import PathLike, atomic_write_text, read_json
from .envelope import parse_document, wrap_envelope

JOURNAL_SUFFIX = ".journal"
CORRUPT_SUFFIX = ".corrupt"

#: per-path checkpoint sequence numbers (process-local write cache;
#: the authoritative tick lives in the envelopes on disk)
_TICKS: Dict[str, int] = {}


def journal_path(path: PathLike) -> Path:
    path = Path(path)
    return path.parent / f"{path.name}{JOURNAL_SUFFIX}"


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


def _render(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def checkpoint(path: PathLike, payload: object, schema: str) -> Path:
    """Durably persist ``payload``: journal first, then the target.

    A crash at any instant leaves a recoverable pair: old/old (before
    the journal landed), new/old (replayed on next load), or new/new.
    """
    path = Path(path)
    key = str(path)
    tick = _TICKS.get(key)
    if tick is None:
        tick = _tick_on_disk(path)
    tick += 1
    document = wrap_envelope(payload, schema, tick)
    text = _render(document)
    atomic_write_text(journal_path(path), text)
    atomic_write_text(path, text)
    _TICKS[key] = tick
    return path


def _tick_on_disk(path: Path) -> int:
    """Highest tick either copy holds (0 when nothing loads)."""
    best = 0
    for candidate in (path, journal_path(path)):
        try:
            _, _, tick = parse_document(read_json(candidate))
            best = max(best, tick)
        except (OSError, ValueError, ArtifactCorrupt):
            continue
    return best


def _read_copy(path: Path, expect_schema: Optional[str]
               ) -> Tuple[object, int, Optional[str]]:
    """One copy's ``(payload, tick, schema)``; raises
    FileNotFoundError or ArtifactCorrupt."""
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
        payload, schema, tick = parse_document(document)
    except ArtifactCorrupt as error:
        raise ArtifactCorrupt(f"{path}: {error}", path=str(path),
                              reason=error.reason) from error
    if expect_schema is not None and schema != expect_schema:
        raise ArtifactCorrupt(
            f"{path} carries schema tag {schema!r}, "
            f"expected {expect_schema!r}", path=str(path),
            reason="schema-mismatch")
    return payload, tick, schema


def load_checkpoint(path: PathLike,
                    expect_schema: Optional[str] = None) -> object:
    """Load a journaled checkpoint, healing what can be healed.

    Raises FileNotFoundError when neither copy exists, and
    :class:`ArtifactCorrupt` (after quarantining the damage) when
    neither copy validates.
    """
    path = Path(path)
    jpath = journal_path(path)

    target_error: Optional[BaseException] = None
    target: Optional[Tuple[object, int, Optional[str]]] = None
    try:
        target = _read_copy(path, expect_schema)
    except (FileNotFoundError, ArtifactCorrupt) as error:
        target_error = error

    journal: Optional[Tuple[object, int, Optional[str]]] = None
    journal_error: Optional[BaseException] = None
    try:
        journal = _read_copy(jpath, expect_schema)
    except (FileNotFoundError, ArtifactCorrupt) as error:
        journal_error = error

    from .. import telemetry

    if target is not None:
        if journal is not None and journal[1] > target[1]:
            # Checkpoint died between journal and target: replay.
            _replay(path, journal)
            telemetry.count("storage.journal_replays")
            return journal[0]
        if isinstance(journal_error, ArtifactCorrupt):
            # Torn WAL write: roll back to the target's good state.
            quarantine_file(jpath)
        _TICKS[str(path)] = max(_TICKS.get(str(path), 0), target[1])
        return target[0]

    quarantined = None
    if isinstance(target_error, ArtifactCorrupt):
        quarantined = quarantine_file(path)

    if journal is not None:
        _replay(path, journal)
        telemetry.count("storage.journal_replays")
        return journal[0]

    if isinstance(journal_error, ArtifactCorrupt):
        quarantine_file(jpath)
    if isinstance(target_error, FileNotFoundError) and \
            isinstance(journal_error, FileNotFoundError):
        raise FileNotFoundError(str(path))
    detail = target_error or journal_error
    raise ArtifactCorrupt(
        f"checkpoint {path} is corrupt and unrecoverable: {detail}",
        path=str(path),
        reason=getattr(detail, "reason", "corrupt"),
        quarantined=str(quarantined or ""))


def _replay(path: Path,
            copy: Tuple[object, int, Optional[str]]) -> None:
    """Write the journal's state over the target, preserving its
    tick and schema tag."""
    payload, tick, schema = copy
    atomic_write_text(path, _render(wrap_envelope(payload,
                                                  schema or "",
                                                  tick)))
    _TICKS[str(path)] = max(_TICKS.get(str(path), 0), tick)


def reset_tick_cache() -> None:
    """Forget cached checkpoint sequence numbers (tests)."""
    _TICKS.clear()
