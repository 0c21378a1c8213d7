"""Branch Target Buffer model.

Implements the behaviour the paper reverse-engineers:

* **Organisation** (§2.1): set-associative; every access derives a
  5-bit *offset* (byte within the 32-byte fetch block), a *set index*,
  and a *truncated tag* — address bits at and above ``tag_keep_bits``
  (33 for SkyLake-family, 34 for IceLake) are ignored, so PCs that are
  8/16 GiB apart alias onto the same entry.

* **Takeaway 2** (§2.4): a lookup from fetch PC *p* hits an entry iff
  the entry has the same tag and set index and an offset **greater than
  or equal to** *p*'s offset; among multiple hits, the smallest such
  offset wins.  This gives BTB lookups range-query semantics over the
  prediction window.

* **Takeaway 1** (§2.3): when the predicted entry turns out to describe
  a non-control-transfer instruction (a *false hit*), the entry is
  **deallocated** as soon as decode detects the problem — even if the
  triggering instruction never retires.  Deallocation is performed by
  the front end (:mod:`repro.cpu.core`) via :meth:`BTB.deallocate`.

The optional *partitioning* mode models the §8.2 mitigation: entries
are tagged with a security-domain id, so cross-domain collisions become
impossible and NightVision is defeated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..memory.address import BLOCK_SHIFT
from ..isa.instructions import INDIRECT_KINDS, Kind
from .btb_backends import BTBBackend, btb_set_bits, make_backend
from .config import CpuGeneration, DEFAULT_GENERATION


def reconstruct_end_byte(fetch_pc: int, entry_offset: int) -> int:
    """Address of the predicted branch's last byte, assuming (as the
    front end does) that the entry's branch lives in ``fetch_pc``'s
    32-byte fetch block — the assumption false hits violate."""
    return (fetch_pc & ~((1 << BLOCK_SHIFT) - 1)) | entry_offset


@dataclass
class BTBEntry:
    """One BTB entry: a (truncated) branch PC mapped to its target.

    Entries are indexed by the **last byte** of the branch instruction.
    This matches the paper's measured boundaries: Figure 2 shows
    collisions for ``F2 < F1 + 2`` (a nop landing on either byte of the
    2-byte ``jmp`` deallocates its entry) and Figure 4 shows the range
    lookup selecting ``jmp L2``'s entry while ``F1 <= F2 + 1``.
    """

    valid: bool = False
    tag: int = 0
    set_index: int = 0
    offset: int = 0            # 5-bit byte offset within the fetch block
    target: int = 0            # full predicted target PC
    kind: Kind = Kind.DIRECT_JUMP
    domain: int = 0            # security domain (partitioning mode only)
    lru: int = 0               # last-touch stamp


@dataclass
class BTBStats:
    """Counters exposed for tests and benchmarks."""

    lookups: int = 0
    hits: int = 0
    allocations: int = 0
    target_updates: int = 0
    deallocations: int = 0
    evictions: int = 0
    spurious_evictions: int = 0
    indirect_flushes: int = 0
    full_flushes: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class BTB:
    """Branch Target Buffer behind a design-family strategy.

    The default (``intel``) backend is the paper's set-associative
    range-query design; alternative organisations (arm / sodor / orcs)
    plug in via :mod:`repro.cpu.btb_backends`, varying geometry,
    indexing, hit semantics and replacement while every front-end
    behaviour above the lookup (prediction windows, false-hit
    deallocation, generation stamping) stays shared."""

    def __init__(self, config: Optional[CpuGeneration] = None):
        self.config = config if config is not None else DEFAULT_GENERATION
        #: the design-family strategy (geometry/index/hit/replacement)
        self.backend: BTBBackend = make_backend(self.config)
        sets = self.config.btb_sets
        self._set_bits = btb_set_bits(sets)
        #: hit-semantics and partitioning flags cached for the lookup
        #: hot path
        self._range_hits = self.backend.range_hits
        self._partitioned = self.config.btb_partitioning
        self._sets: List[List[BTBEntry]] = [
            [BTBEntry() for _ in range(self.config.btb_ways)]
            for _ in range(sets)
        ]
        self._clock = 0
        #: Security domain of the code currently executing (only
        #: consulted when ``config.btb_partitioning`` is set).
        self._current_domain = 0
        #: Lookup-visibility generation.  Bumped by every mutation that
        #: can change a *lookup result* — allocate (including the
        #: eviction it may imply), target update, deallocation, spurious
        #: eviction, flushes that drop an entry, and domain switches
        #: under partitioning.  ``touch`` does NOT bump it: LRU refreshes
        #: change future eviction choices but never the outcome of a
        #: lookup, and any LRU-driven eviction itself happens inside
        #: ``allocate`` (which bumps).  Superblocks
        #: (:mod:`repro.cpu.decoded`) are stamped with this counter: an
        #: unchanged generation validates every lookup a chain was built
        #: from with one integer compare, and a moved one sends the
        #: chain to re-peek just those lookups.
        self.generation = 0
        self.stats = BTBStats()
        #: Telemetry sink captured at construction (None → disabled;
        #: the hot paths then pay one ``is None`` check per rare
        #: event).  Per-lookup counters are not emitted individually —
        #: the registered stats source folds the :class:`BTBStats`
        #: totals in when the sink finalizes.
        self._tel: Optional[telemetry.TelemetrySink] = None
        sink = telemetry.current()
        if sink is not None:
            self.bind_telemetry(sink)

    def bind_telemetry(self,
                       sink: Optional[telemetry.TelemetrySink]) -> None:
        """(Re)attach this BTB to ``sink`` — used when the BTB was
        constructed outside the telemetry session that observes it."""
        if sink is self._tel:
            return
        self._tel = sink
        if sink is not None:
            sink.register(self._stat_counters)

    def _stat_counters(self) -> Dict[str, int]:
        return {f"cpu.btb.{name}": getattr(self.stats, name)
                for name in BTBStats.__dataclass_fields__}

    @property
    def current_domain(self) -> int:
        return self._current_domain

    @current_domain.setter
    def current_domain(self, domain: int) -> None:
        """Switch security domain.  Only under partitioning does the
        switch change which entries a lookup can see, so only then does
        it bump :attr:`generation`; domain-blind lookups return the same
        entries either way (new allocations are stamped with the new
        domain, but allocating bumps on its own)."""
        if domain != self._current_domain:
            self._current_domain = domain
            if self._partitioned:
                self.generation += 1

    # ------------------------------------------------------------------
    # field extraction
    # ------------------------------------------------------------------
    def fields(self, pc: int) -> Tuple[int, int, int]:
        """Split ``pc`` into ``(tag, set_index, offset)`` under this
        BTB's design (delegates to the backend's pure split)."""
        return self.backend.split(pc)

    def aliases(self, a: int, b: int) -> bool:
        """Do two PCs map to the same (tag, set, offset) triple?"""
        return self.fields(a) == self.fields(b)

    def anchor_pc(self, last_byte_pc: int, length: int) -> int:
        """The byte this design indexes a branch by, given the
        branch's last byte and length (see
        :meth:`BTBBackend.anchor_pc`)."""
        return self.backend.anchor_pc(last_byte_pc, length)

    # ------------------------------------------------------------------
    # access (fetch-time prediction)
    # ------------------------------------------------------------------
    def lookup(self, fetch_pc: int) -> Optional[BTBEntry]:
        """Backend-semantics lookup.

        Under the range-hit designs (Takeaway 2) this returns the valid
        entry with the same tag/set whose offset is >= the fetch PC's
        offset, preferring the smallest such offset; under tag-exact
        designs only an entry anchored exactly at the fetch PC hits.
        ``None`` on a miss.  Does not modify any entry.
        """
        self.stats.lookups += 1
        best = self.peek(fetch_pc)
        if best is not None:
            self.stats.hits += 1
        return best

    def peek(self, fetch_pc: int) -> Optional[BTBEntry]:
        """:meth:`lookup` without the stats counting.

        Used by the superblock builder, which probes predictions while
        *constructing* a chain: those probes have no slow-path
        equivalent, so counting them would make ``cpu.btb.lookups``
        diverge between the fast and reference paths.  The executor
        instead bulk-counts one lookup+hit per chained edge when a
        superblock actually runs (see ``Core.run``).

        An entry is visible when it is valid, has the pc's tag and —
        under partitioning only — the current domain; the test is
        written out per way rather than called (DESIGN §19).
        """
        tag, set_index, offset = self.backend.split(fetch_pc)
        partitioned = self._partitioned
        domain = self._current_domain
        if not self._range_hits:
            # Tag-exact designs: at most one entry can match (allocate
            # updates same-anchor entries in place).
            for entry in self._sets[set_index]:
                if (entry.valid and entry.tag == tag
                        and entry.offset == offset
                        and (not partitioned or entry.domain == domain)):
                    return entry
            return None
        best: Optional[BTBEntry] = None
        for entry in self._sets[set_index]:
            if (entry.valid and entry.tag == tag
                    and entry.offset >= offset
                    and (not partitioned or entry.domain == domain)
                    and (best is None or entry.offset < best.offset)):
                best = entry
        return best

    def predicted_end_byte(self, fetch_pc: int, entry: BTBEntry) -> int:
        """Reconstruct the address of the predicted branch's *anchor
        byte* (its last byte on Intel-family designs, its first byte on
        instruction-indexed designs) within ``fetch_pc``'s fetch block.

        Only the low ``tag_keep_bits`` of the branch PC are stored in
        the BTB; the front end assumes the branch lives in the current
        fetch block (which is how false hits arise)."""
        return reconstruct_end_byte(fetch_pc, entry.offset)

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------
    def allocate(self, anchor_pc: int, target: int,
                 kind: Kind) -> BTBEntry:
        """Install (or refresh) the entry for a taken branch.

        ``anchor_pc`` is the byte the design indexes the branch by —
        its **last byte** (``pc + length - 1``) on the default Intel
        backend, its first byte on instruction-indexed backends (the
        front end computes it via :meth:`anchor_pc`)."""
        tag, set_index, offset = self.fields(anchor_pc)
        ways = self._sets[set_index]
        partitioned = self._partitioned
        domain = self._current_domain
        victim: Optional[BTBEntry] = None
        in_place = False
        for entry in ways:
            if (entry.valid and entry.tag == tag
                    and entry.offset == offset
                    and (not partitioned or entry.domain == domain)):
                victim = entry          # same branch: update in place
                in_place = True
                break
        if victim is None:
            victim, evicted = self.backend.pick_victim(ways)
            if evicted:
                self.stats.evictions += 1
        # Counting keys off the *same-branch* match above (which
        # includes the security domain): a replacement victim that
        # merely shares (tag, offset) — e.g. a cross-domain twin under
        # partitioning — is an eviction + allocation, not an in-place
        # target update.
        if in_place:
            self.stats.target_updates += 1
        else:
            self.stats.allocations += 1
        if self._tel is not None:
            self._tel.emit("cpu.btb.insert", {
                "tag": tag, "set": set_index, "off": offset,
                "target": target, "kind": kind.name})
        victim.valid = True
        victim.tag = tag
        victim.set_index = set_index
        victim.offset = offset
        victim.target = target
        victim.kind = kind
        victim.domain = self._current_domain
        self.generation += 1
        self.backend.stamp_insert(self, victim)
        return victim

    def update_target(self, entry: BTBEntry, target: int,
                      kind: Optional[Kind] = None) -> None:
        """Correct the target of an existing entry (wrong-target case)."""
        entry.target = target
        if kind is not None:
            entry.kind = kind
        self.generation += 1
        self.stats.target_updates += 1
        if self._tel is not None:
            self._tel.emit("cpu.btb.update", {
                "tag": entry.tag, "set": entry.set_index,
                "off": entry.offset, "target": target,
                "kind": entry.kind.name})
        self.backend.stamp_insert(self, entry)

    def _invalidate(self, entry: BTBEntry) -> None:
        """Shared entry-invalidation path: clears validity *and* the
        backend's replacement bookkeeping, then bumps the visibility
        generation.  Every invalidation (deallocate, spurious
        eviction, flush) must route through here — mutating
        ``entry.valid`` directly would leave clock-style replacement
        stamps stale and desynchronise fault drills from real
        evictions."""
        entry.valid = False
        self.backend.clear_entry(entry)
        self.generation += 1

    def deallocate(self, entry: BTBEntry) -> None:
        """Invalidate an entry after a false hit (Takeaway 1)."""
        if entry.valid:
            self._invalidate(entry)
            self.stats.deallocations += 1

    def evict_spurious(self, rng) -> Optional[BTBEntry]:
        """Invalidate one random valid entry (fault injection's
        co-resident-noise model).  Goes through the same
        entry-invalidation state change as a capacity eviction — the
        lookup/allocate/replacement semantics are never bypassed."""
        candidates = self.valid_entries()
        if not candidates:
            return None
        victim = rng.choice(candidates)
        self._invalidate(victim)
        self.stats.spurious_evictions += 1
        return victim

    def touch(self, entry: BTBEntry) -> None:
        """Refresh replacement state after a correct prediction (a
        no-op on designs whose stamps are written only at insert)."""
        self.backend.stamp_touch(self, entry)

    # ------------------------------------------------------------------
    # flush operations (mitigations, §4.1 / §8.2)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate everything (the §8.2 flush-on-switch mitigation).

        The generation only moves when at least one entry was dropped:
        flushing an empty BTB changes no lookup result, so it must not
        send every cached superblock to re-validation."""
        self._flush_where(lambda entry: True)
        self.stats.full_flushes += 1

    def flush_indirect(self) -> None:
        """IBRS/IBPB model (§4.1): only entries for *indirect* control
        transfers are invalidated; direct jumps and conditional branches
        survive, which is why NightVision is unaffected.  Superblock
        chains built only from direct-branch lookups re-peek the same
        entries and survive."""
        self._flush_where(lambda entry: entry.kind in INDIRECT_KINDS)
        self.stats.indirect_flushes += 1

    def _flush_where(self, predicate) -> None:
        """Invalidate every valid entry satisfying ``predicate``,
        bumping the generation once if any entry was dropped."""
        clear_entry = self.backend.clear_entry
        changed = False
        for ways in self._sets:
            for entry in ways:
                if entry.valid and predicate(entry):
                    entry.valid = False
                    clear_entry(entry)
                    changed = True
        if changed:
            self.generation += 1

    # ------------------------------------------------------------------
    # introspection (tests / debugging only — attack code never calls)
    # ------------------------------------------------------------------
    def valid_entries(self) -> List[BTBEntry]:
        return [
            entry
            for ways in self._sets
            for entry in ways
            if entry.valid
        ]

    def entry_for(self, branch_pc: int) -> Optional[BTBEntry]:
        """Exact-match probe (same tag/set/offset), for tests."""
        tag, set_index, offset = self.fields(branch_pc)
        partitioned = self._partitioned
        domain = self._current_domain
        for entry in self._sets[set_index]:
            if (entry.valid and entry.tag == tag
                    and entry.offset == offset
                    and (not partitioned or entry.domain == domain)):
                return entry
        return None

    def occupancy(self) -> int:
        return len(self.valid_entries())
