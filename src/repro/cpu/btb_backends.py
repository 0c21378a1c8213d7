"""BTB backend strategies: the design space behind :class:`~repro.cpu.btb.BTB`.

The paper reverse-engineers *one* BTB — the Intel-shaped design whose
range-query lookups and last-byte indexing NightVision exploits.  Other
real front ends organise their BTBs differently, and the portability
question ("which attack primitives survive which design?") needs those
organisations to be first-class.  A :class:`BTBBackend` bundles the
four axes a design varies on:

* **geometry** — set count, associativity, how many low address bits
  the tag check keeps (``tag_keep_bits``; fewer bits = closer aliases);
* **indexing** — how a PC splits into ``(tag, set_index, offset)``,
  including which byte of a branch anchors its entry (Intel indexes the
  branch's *last* byte, §2.1; instruction-granular designs index the
  first byte);
* **hit semantics** — Takeaway 2's range predicate (entry offset >=
  fetch offset, smallest wins) vs. ordinary tag-exact matching;
* **replacement** — LRU with touch-refresh on correct predictions vs.
  clock stamps written only at allocation, vs. direct-mapped overwrite.

Concrete backends:

``intel``
    The paper's design, byte-identical to the pre-refactor model: range
    hits, last-byte anchor, truncated tags (keep 33/34), LRU.
``arm``
    Modelled on the Arm BTB reverse-engineering report (Wan, 2024,
    PAPERS.md): tag-exact hits on the branch *instruction* address,
    16-byte fetch-granule indexing, partial tags (keep 32 — aliases
    exist, 4 GiB apart), pseudo-LRU approximated as LRU.
``sodor``
    riscv-sodor's direct-mapped BTB (SNIPPETS.md): one way per set,
    instruction-granular index (``pc >> 2``), full tags (no aliasing
    within the simulated 47-bit address space), unconditional overwrite.
``orcs``
    OrCS's 128-set x 4-way BTB (SNIPPETS.md): instruction-granular
    index ``(pc >> 2) & 0x7F``, clock-field eviction (victim = smallest
    allocation stamp; correct predictions do *not* refresh), modelled
    here with SkyLake-style tag truncation so cross-address-space
    probes remain constructible.

Every strategy is stateless apart from precomputed masks; mutable
replacement state (the stamp counter, per-entry stamps) stays on the
owning :class:`~repro.cpu.btb.BTB` so two BTBs never share clocks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from ..errors import CpuError
from ..memory.address import BLOCK_SHIFT


def btb_set_bits(btb_sets: int) -> int:
    """log2 of the set count (validated power of two)."""
    if btb_sets <= 0 or btb_sets & (btb_sets - 1):
        raise CpuError(f"btb_sets must be a power of two: {btb_sets}")
    return btb_sets.bit_length() - 1


class BTBBackend:
    """Base strategy: Intel-style geometry maths + LRU replacement.

    Subclasses override the class attributes (and, for replacement, the
    hook methods).  Instances precompute the split masks from the
    owning config's geometry, so :meth:`split` is pure integer ops.
    """

    #: registry key (also ``CpuGeneration.btb_backend``)
    kind = "intel"
    #: Takeaway-2 range predicate vs. tag-exact matching
    range_hits = True
    #: entries anchored at the branch's last byte (Intel) or first byte
    last_byte_index = False
    #: low bit of the set-index field
    index_shift = BLOCK_SHIFT
    #: human-readable replacement-policy name for reports
    replacement = "lru"

    def __init__(self, config) -> None:
        self.sets = config.btb_sets
        self.ways = config.btb_ways
        self.tag_keep_bits = config.tag_keep_bits
        self.set_bits = btb_set_bits(self.sets)
        self._keep_mask = (1 << self.tag_keep_bits) - 1
        self._set_mask = self.sets - 1
        self._tag_shift = self.index_shift + self.set_bits
        self._block_mask = (1 << BLOCK_SHIFT) - 1

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def split(self, pc: int) -> Tuple[int, int, int]:
        """``(tag, set_index, offset)`` of ``pc`` under this design,
        after truncating away address bits at and above
        ``tag_keep_bits`` (§2.1).  The offset is always the byte within
        the 32-byte fetch block, a front-end property: prediction
        windows are 32-byte bundles whatever the BTB indexes by."""
        truncated = pc & self._keep_mask
        return (truncated >> self._tag_shift,
                (truncated >> self.index_shift) & self._set_mask,
                truncated & self._block_mask)

    def anchor_pc(self, last_byte_pc: int, length: int) -> int:
        """The byte this design indexes a branch by, given the branch's
        last byte and length: the last byte itself on Intel-family
        designs (the paper's §2.1 finding), the first byte on
        instruction-indexed designs."""
        if self.last_byte_index:
            return last_byte_pc
        return last_byte_pc - (length - 1)

    # ------------------------------------------------------------------
    # replacement policy hooks (mutable state lives on the BTB)
    # ------------------------------------------------------------------
    def pick_victim(self, ways: List) -> Tuple[object, bool]:
        """Choose the entry a new allocation overwrites; the second
        element reports whether a live entry is being evicted."""
        for entry in ways:
            if not entry.valid:
                return entry, False
        return min(ways, key=lambda e: e.lru), True

    def stamp_insert(self, btb, entry) -> None:
        """Replacement bookkeeping on allocate / target update."""
        btb._clock += 1
        entry.lru = btb._clock

    def stamp_touch(self, btb, entry) -> None:
        """Replacement bookkeeping on a correct prediction."""
        btb._clock += 1
        entry.lru = btb._clock

    def clear_entry(self, entry) -> None:
        """Replacement bookkeeping when an entry is invalidated
        (deallocation, spurious eviction, flush).  Resetting the stamp
        keeps invalidated slots first in line for reuse on designs
        whose victim choice reads the stamp directly."""
        entry.lru = 0


class IntelRangeBackend(BTBBackend):
    """The paper's design (default): range hits, last-byte anchor."""

    kind = "intel"
    range_hits = True
    last_byte_index = True
    index_shift = BLOCK_SHIFT
    replacement = "lru"


class ArmExactBackend(BTBBackend):
    """Arm-style BTB per the Wan 2024 reverse-engineering report:
    tag-exact hits on the branch instruction address, 16-byte-granule
    set indexing, partial tags (keep 32), LRU-ish replacement."""

    kind = "arm"
    range_hits = False
    last_byte_index = False
    index_shift = 4
    replacement = "lru"


class SodorDirectBackend(BTBBackend):
    """riscv-sodor's direct-mapped BTB: one way, instruction-granular
    index (``pc >> 2``), full tag compare, unconditional overwrite."""

    kind = "sodor"
    range_hits = False
    last_byte_index = False
    index_shift = 2
    replacement = "overwrite"

    def pick_victim(self, ways: List) -> Tuple[object, bool]:
        victim = ways[0]
        return victim, victim.valid


class OrcsClockBackend(BTBBackend):
    """OrCS's 128x4 BTB: instruction-granular index, clock eviction —
    the victim is the way with the smallest allocation stamp, and a
    correct prediction does *not* refresh the stamp (FIFO-like)."""

    kind = "orcs"
    range_hits = False
    last_byte_index = False
    index_shift = 2
    replacement = "clock"

    def pick_victim(self, ways: List) -> Tuple[object, bool]:
        victim = min(ways, key=lambda e: e.lru)
        return victim, victim.valid

    def stamp_touch(self, btb, entry) -> None:
        return None


#: backend kind -> strategy class
BACKEND_CLASSES: Dict[str, Type[BTBBackend]] = {
    cls.kind: cls
    for cls in (IntelRangeBackend, ArmExactBackend, SodorDirectBackend,
                OrcsClockBackend)
}


def make_backend(config) -> BTBBackend:
    """Instantiate the strategy named by ``config.btb_backend``."""
    kind = getattr(config, "btb_backend", "intel")
    try:
        cls = BACKEND_CLASSES[kind]
    except KeyError:
        known = ", ".join(sorted(BACKEND_CLASSES))
        raise CpuError(
            f"unknown BTB backend {kind!r}; known: {known}") from None
    return cls(config)
