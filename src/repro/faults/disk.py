"""Deterministic disk-fault injection for the durable storage layer.

The LBR/BTB/SGX-Step injector (:mod:`repro.faults.injector`) perturbs
the *simulated* machine; this one perturbs the checkpointing substrate
the campaigns persist through — the faults a long unattended
measurement campaign actually meets:

* ``torn-write`` — the struck write lands truncated at a seeded byte
  offset **directly on the target path** (modelling a crash on a
  filesystem whose rename was not atomic, or an fsync that lied),
  then the injector raises :class:`repro.errors.DiskFaultError` and
  plays dead, the way the process would have died mid-checkpoint;
* ``bit-flip`` — one seeded bit of the payload flips silently and the
  write otherwise succeeds (bit rot / DMA corruption); nothing
  raises — the damage must be *detected on load* by the envelope
  checksum;
* ``enospc`` — the write fails up front with the disk-full errno,
  the old target stays in place, and the injector plays dead.

Like every fault surface in this package the schedule is a pure
function of the seed: the struck write index, torn-byte offset, and
flipped bit come from one ``random.Random(f"disk-faults:{seed}")``
stream.  Only campaign manifest writes (``manifest.json``) count and
get struck, so a drill never damages the write-once creation record
or the artifacts beside it.
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from ..errors import DiskFaultError

MODE_TORN_WRITE = "torn-write"
MODE_BIT_FLIP = "bit-flip"
MODE_ENOSPC = "enospc"

DISK_FAULT_MODES = (MODE_TORN_WRITE, MODE_BIT_FLIP, MODE_ENOSPC)


@dataclass
class DiskFaultInjector:
    """Strikes the Nth manifest write with one deterministic fault.

    Installed process-globally via
    :func:`repro.storage.install_disk_faults`; every
    :func:`repro.storage.atomic_write_bytes` consults it.
    """

    mode: str = MODE_TORN_WRITE
    seed: int = 0
    #: strike on this (1-based) manifest write; 0 = seeded in [2, 6]
    strike_after: int = 0
    #: (kind, path, detail) per injected fault, for drills and tests
    events: List[Tuple[str, str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in DISK_FAULT_MODES:
            raise DiskFaultError(
                f"unknown disk fault mode {self.mode!r}; known: "
                f"{', '.join(DISK_FAULT_MODES)}", kind=self.mode)
        self._rng = random.Random(f"disk-faults:{self.seed}")
        if self.strike_after < 1:
            self.strike_after = self._rng.randint(2, 6)
        self._seen = 0
        #: a crashing strike fired: every later write fails
        self.dead = False

    def before_write(self, path, data: bytes) -> bytes:
        """Consulted by the atomic writer before it touches disk.

        Returns the (possibly corrupted) payload to write, writes a
        torn target directly, or raises :class:`DiskFaultError`.
        """
        if self.dead:
            # After a crashing strike nothing at all reaches disk —
            # the process this models is gone — so even artifact
            # writes fail until the drill ends.
            raise DiskFaultError(
                f"disk offline after injected {self.mode} fault",
                path=str(path), kind=self.mode)
        from ..runner.manifest import MANIFEST_NAME
        if Path(path).name != MANIFEST_NAME:
            return data
        self._seen += 1
        if self._seen != self.strike_after:
            return data
        if self.mode == MODE_BIT_FLIP:
            return self._flip_bit(path, data)
        self.dead = True
        if self.mode == MODE_ENOSPC:
            self.events.append((self.mode, str(path), 0))
            raise DiskFaultError(
                f"injected ENOSPC writing {path}", path=str(path),
                kind=self.mode, errno_=errno.ENOSPC)
        return self._tear(path, data)

    def _flip_bit(self, path, data: bytes) -> bytes:
        if not data:
            return data
        bit = self._rng.randrange(len(data) * 8)
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        self.events.append((self.mode, str(path), bit))
        return bytes(corrupted)

    def _tear(self, path, data: bytes) -> bytes:
        offset = self._rng.randrange(1, max(2, len(data)))
        # Bypass the atomic writer: the whole point is a target that
        # holds only the first ``offset`` bytes, as if the rename
        # landed but the data blocks never made it out of the cache.
        with open(path, "wb") as handle:
            handle.write(data[:offset])
        self.events.append((self.mode, str(path), offset))
        raise DiskFaultError(
            f"injected torn write of {path} at byte {offset} "
            f"(process crashed mid-checkpoint)", path=str(path),
            kind=self.mode, errno_=errno.EIO)


def disk_chaos(mode: str, *, seed: int = 0, strike_after: int = 0
               ) -> Optional[DiskFaultInjector]:
    """Build the injector for a ``--chaos`` storage drill (None for
    an unknown mode, so CLI wiring can fall through to other chaos
    families)."""
    if mode not in DISK_FAULT_MODES:
        return None
    return DiskFaultInjector(mode=mode, seed=seed,
                             strike_after=strike_after)
