"""Last Branch Record model.

The paper's measurement channel (§2.3): a ring buffer logging, for each
*retired taken* control transfer, its source PC, target PC, and the
elapsed cycles since the previous record retired.  The attacker reads
its own LBR after the probe step; a mispredicted probe jump shows up as
a large elapsed-cycle reading on the *following* record.

When the core runs in enclave mode the LBR is disabled (SGX behaviour,
§6.2) — enclave branches are never logged, but the attacker's own
branches outside the enclave still are.

Optional Gaussian timing noise models measurement jitter so that probe
classification is a genuine threshold decision rather than an oracle.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, NamedTuple, Optional


class LbrRecord(NamedTuple):
    """One retired taken control transfer.

    A tuple, not a dataclass: one is built per retired taken branch."""

    from_pc: int
    to_pc: int
    #: cycles between the previous record's retire and this one's,
    #: with measurement noise applied
    elapsed_cycles: int
    #: whether the branch was predicted correctly (valid for
    #: conditional branches, as on real LBR; we expose it for all)
    mispredicted: bool


class LBR:
    """Fixed-depth ring buffer of :class:`LbrRecord`."""

    DEPTH = 32

    def __init__(self, depth: int = DEPTH, timing_noise: float = 0.0,
                 seed: int = 0, rng: Optional[random.Random] = None):
        self.depth = depth
        self.timing_noise = timing_noise
        #: measurement-noise RNG.  Callers that need coordinated
        #: reproducibility (the --seed plumbing, fault sweeps) inject
        #: their own ``random.Random``; the seeded default keeps the
        #: no-injection path deterministic too — there is no unseeded
        #: RNG anywhere in the measurement channel.
        self._rng = rng if rng is not None else random.Random(seed)
        self._records: Deque[LbrRecord] = deque(maxlen=depth)
        self._last_retire_cycles: Optional[float] = None
        self.enabled = True
        #: optional :class:`repro.faults.FaultInjector` (entry drops,
        #: extra timestamp jitter); None on a clean substrate
        self.fault_injector = None

    def record(self, from_pc: int, to_pc: int, cycles_now: float,
               mispredicted: bool) -> None:
        """Log one retired taken control transfer at time ``cycles_now``."""
        if not self.enabled:
            # Still advance the timestamp: elapsed cycles on the next
            # enabled record must include time spent while disabled.
            self._last_retire_cycles = cycles_now
            return
        if self._last_retire_cycles is None:
            elapsed = 0.0
        else:
            elapsed = cycles_now - self._last_retire_cycles
        if self.timing_noise > 0.0:
            elapsed += self._rng.gauss(0.0, self.timing_noise)
        if self.fault_injector is not None:
            dropped, jitter = self.fault_injector.lbr_fault()
            if dropped:
                # The branch retired but its record never made it into
                # the buffer; the timestamp still advances.
                self._last_retire_cycles = cycles_now
                return
            elapsed += jitter
        self._records.append(LbrRecord(
            from_pc, to_pc, max(0, round(elapsed)), mispredicted))
        self._last_retire_cycles = cycles_now

    # ------------------------------------------------------------------
    # reading (what the attacker does)
    # ------------------------------------------------------------------
    def records(self) -> List[LbrRecord]:
        """All records, oldest first."""
        return list(self._records)

    def last(self) -> Optional[LbrRecord]:
        return self._records[-1] if self._records else None

    def find_from(self, from_pc: int) -> Optional[LbrRecord]:
        """Most recent record whose source is ``from_pc``."""
        for record in reversed(self._records):
            if record.from_pc == from_pc:
                return record
        return None

    def elapsed_after(self, from_pc: int) -> Optional[int]:
        """Elapsed cycles of the record *following* the most recent
        record sourced at ``from_pc`` — the paper's Figure 2 metric
        (time between the jump's retire and the next transfer, e.g. the
        subsequent ``ret``)."""
        records = self._records
        for index in range(len(records) - 1, -1, -1):
            if records[index].from_pc == from_pc:
                if index + 1 < len(records):
                    return records[index + 1].elapsed_cycles
                return None
        return None

    def clear(self) -> None:
        self._records.clear()
        self._last_retire_cycles = None

    def __len__(self) -> int:
        return len(self._records)
