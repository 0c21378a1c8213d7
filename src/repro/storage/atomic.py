"""The one atomic artifact writer every layer persists through.

The payload is written to a temporary file in the *same directory*,
fsynced, then :func:`os.replace`'d over the destination.  A SIGKILL at
any point leaves either the old content or the new content — never a
truncated file.  The directory entry is fsynced too (best-effort) so
the rename itself survives a power cut.

The CLI, runner, and perf suite all share this one implementation, so
the deterministic disk-fault injector (:mod:`repro.faults.disk`) has a
single choke point to perturb: :func:`install_disk_faults` installs a
process-global injector that every write consults before touching the
filesystem.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, os.PathLike]

#: process-global disk-fault injector (None = clean disk); workers
#: fork after installation, so a drill's faults reach every writer
#: whose path matches the injector's pattern
_DISK_FAULTS: Optional[object] = None


def install_disk_faults(injector) -> None:
    """Route every subsequent atomic write through ``injector``
    (see :class:`repro.faults.disk.DiskFaultInjector`)."""
    global _DISK_FAULTS
    _DISK_FAULTS = injector


def clear_disk_faults() -> None:
    global _DISK_FAULTS
    _DISK_FAULTS = None


def disk_faults():
    """The installed injector, or None (clean disk)."""
    return _DISK_FAULTS


def digest_text(text: str) -> str:
    """Stable content digest used by the manifest to compare job
    results across runs (clean vs resumed campaigns must byte-match)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:          # platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if _DISK_FAULTS is not None:
        # May corrupt ``data`` (bit flip), tear the target directly,
        # or raise DiskFaultError (ENOSPC / crash).
        data = _DISK_FAULTS.before_write(path, data)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    _fsync_dir(path.parent)
    from .. import telemetry
    telemetry.count("storage.writes")
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write(path: PathLike, data: Union[bytes, str]) -> Path:
    """The consolidated entry point: bytes or text, written atomically."""
    if isinstance(data, str):
        return atomic_write_text(path, data)
    return atomic_write_bytes(path, data)


def atomic_write_json(path: PathLike, payload: object) -> Path:
    """Serialize deterministically (sorted keys, stable layout) so
    identical campaign states produce byte-identical manifests."""
    text = json.dumps(payload, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
    return atomic_write_text(path, text)


def read_json(path: PathLike) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
