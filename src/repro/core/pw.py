"""Prediction-window (PW) snippet construction (§4.1, Figures 5 & 7).

A PW snippet is the attacker's measurement instrument: a sequence of
1-byte nops ending in a 2-byte direct jump, occupying exactly the
monitored address range *in low-order address bits*.  Because the BTB
tag check ignores bits at and above ``tag_keep_bits``, the attacker
maps its snippet at ``victim_address + alias_index * 2**tag_keep_bits``
and the two ranges collide in the BTB.

Snippets for several monitored ranges are chained (Fig. 7): each PW's
terminating ``jmp8`` has displacement 0, i.e. it *jumps* to the next
byte (a real taken control transfer that allocates a BTB entry, with
fall-through layout).  Non-adjacent ranges are linked with 5-byte glue
jumps placed right after the preceding PW; a terminator jump + ``hlt``
closes the chain so the last PW's misprediction penalty still lands in
a measurable LBR record.

Address-space discipline: everything the attacker fetches aliases
*some* victim bytes — that is inherent to the technique.  What matters
is that the only *BTB entries* the attacker allocates inside monitored
ranges are the PW terminators themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import AttackError
from ..isa.assembler import Assembler, Ref
from ..memory.address import BLOCK_SIZE, same_block, truncate


@dataclass(frozen=True)
class PwRange:
    """One monitored victim virtual-address range ``[start, end)``.

    Constraints from the BTB organisation: at least 2 bytes (the
    ``jmp8``), at most 32, and fully inside one 32-byte-aligned block
    (a PW cannot cross a fetch-block boundary).
    """

    start: int
    end: int

    def __post_init__(self):
        if not 2 <= self.size <= BLOCK_SIZE:
            raise AttackError(
                f"PW range size must be in [2, 32]: {self}")
        if self.size > 2 and not same_block(self.start, self.end - 1):
            # A bare 2-byte probe may straddle a block boundary — it
            # degenerates into a point probe at its jump's last byte,
            # which is exactly what the traversal's final pass needs.
            raise AttackError(
                f"PW range must stay inside one 32-byte block: {self}")

    @property
    def size(self) -> int:
        return self.end - self.start

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def split(self, pieces: int = 2) -> List["PwRange"]:
        """Split into ``pieces`` contiguous sub-ranges (PW traversal,
        Fig. 10).  Sizes stay >= 2 bytes."""
        if pieces < 2:
            return [self]
        if self.size < 2 * pieces:
            pieces = max(1, self.size // 2)
            if pieces < 2:
                return [self]
        base_size = self.size // pieces
        out: List[PwRange] = []
        cursor = self.start
        for index in range(pieces):
            size = base_size + (self.size % pieces if
                                index == pieces - 1 else 0)
            out.append(PwRange(cursor, cursor + size))
            cursor += size
        return out

    def __str__(self) -> str:
        return f"[{self.start:#x}, {self.end:#x})"


def page_pws(page_base_address: int,
             page_size: int = 4096) -> List[PwRange]:
    """The 128 mutually-disjoint 32-byte PWs covering one page
    (Fig. 10, pass #1)."""
    return [
        PwRange(page_base_address + offset,
                page_base_address + offset + BLOCK_SIZE)
        for offset in range(0, page_size, BLOCK_SIZE)
    ]


@dataclass
class ProbeCode:
    """An assembled chain of PW snippets, ready to prime/probe."""

    ranges: Tuple[PwRange, ...]
    #: attacker-space address where execution starts
    entry: int
    #: attacker-space PC of each PW's terminating jmp8 (LBR from_pc),
    #: parallel to ``ranges``
    jmp_pcs: Tuple[int, ...]
    #: attacker-space PC of the terminator jump closing the chain
    terminator_pc: int
    #: the program to map into the attacker's address space
    program: object
    #: alias displacement applied (attacker = victim_low + alias_base)
    alias_base: int


class PwBuilder:
    """Builds :class:`ProbeCode` for a set of monitored ranges."""

    def __init__(self, tag_keep_bits: int, alias_index: int = 2):
        if alias_index < 1:
            raise AttackError("alias_index must be >= 1")
        self.tag_keep_bits = tag_keep_bits
        self.alias_base = alias_index << tag_keep_bits

    def attacker_address(self, victim_address: int) -> int:
        """Where the snippet byte aliasing ``victim_address`` lives in
        the attacker's address space."""
        return truncate(victim_address, self.tag_keep_bits) \
            + self.alias_base

    def build(self, ranges: Sequence[PwRange]) -> ProbeCode:
        """Assemble the chained snippet for ``ranges``.

        Ranges must be pairwise disjoint in low-order-bit space; gaps
        between consecutive snippets must be 0 (chained) or >= 5 bytes
        (room for a glue jump).

        A single 2-byte range straddling a 32-byte block boundary gets
        a special *ret probe*: a block-aligned monitored byte cannot be
        instrumented with a 2-byte jump (the jump would start in the
        previous block and never predict), but a 1-byte ``ret`` ending
        exactly on that byte can.
        """
        if not ranges:
            raise AttackError("no PW ranges given")
        if len(ranges) == 1 and ranges[0].size == 2 \
                and not same_block(ranges[0].start, ranges[0].end - 1):
            return self._build_ret_probe(ranges[0])
        for pw_range in ranges:
            if not same_block(pw_range.start, pw_range.end - 1):
                raise AttackError(
                    f"straddling range {pw_range} must be probed alone")
        placed = sorted(
            ((self.attacker_address(r.start),
              self.attacker_address(r.end - 1) + 1, r)
             for r in ranges),
            key=lambda item: item[0],
        )
        for (_, prev_end, prev), (next_start, _, cur) in zip(
                placed, placed[1:]):
            gap = next_start - prev_end
            if gap < 0:
                raise AttackError(
                    f"PW ranges {prev} and {cur} overlap in low-bit "
                    f"space")
            if 0 < gap < 5:
                raise AttackError(
                    f"gap between {prev} and {cur} is {gap} bytes; "
                    f"must be 0 or >= 5 (glue jump)")

        # Preamble stub: a branch retired just before the first PW so
        # the first monitored jump's elapsed-cycle reading has a time
        # origin (the paper's measurements have the call into the
        # snippet playing this role).  Placed 1 MiB + 16 fetch blocks
        # above the monitored region: the 1 MiB changes the tag, the
        # 16 blocks change the *set index* so the stub entry can never
        # fight the monitored entries for BTB ways (a same-block PW
        # batch already uses one way per sub-PW).
        stub = placed[0][0] + 0x10_0000 + 16 * BLOCK_SIZE
        asm = Assembler(base=stub)
        asm.label("__stub")
        asm.emit("jmp", "__pwstart0")
        jmp_by_range: Dict[PwRange, int] = {}
        for index, (start, end, pw_range) in enumerate(placed):
            asm.org(start)
            asm.label(f"__pwstart{index}")
            asm.nops(pw_range.size - 2)
            jmp_by_range[pw_range] = end - 2
            asm.emit("jmp8", 0)          # taken jump to the next byte
            if index + 1 < len(placed):
                next_start = placed[index + 1][0]
                if next_start != end:
                    asm.emit("jmp", f"__pwstart{index + 1}")
        # Terminator: a final jump whose *successor record* captures
        # the last PW's misprediction penalty, then a halt.
        last_end = placed[-1][1]
        terminator_pc = last_end
        asm.emit("jmp", "__done")
        asm.nops(32)                      # keep hlt out of the last PW
        asm.label("__done")
        asm.emit("hlt")
        program = asm.assemble()
        return ProbeCode(
            ranges=tuple(ranges),
            entry=stub,
            jmp_pcs=tuple(jmp_by_range[r] for r in ranges),
            terminator_pc=terminator_pc,
            program=program,
            alias_base=self.alias_base,
        )

    def _build_ret_probe(self, pw_range: PwRange) -> ProbeCode:
        """Point probe at ``pw_range.end - 1`` built from a 1-byte
        ``ret`` (see :meth:`build`).  The stub pushes the continuation
        address, so the ret is a perfectly predictable branch whose
        misprediction flags the deallocation."""
        target_byte = self.attacker_address(pw_range.end - 1)
        stub = target_byte + 0x10_0000 + 16 * BLOCK_SIZE
        asm = Assembler(base=stub)
        asm.label("__stub")
        asm.emit("movabs", "rcx", Ref("__cont", mode="abs"))
        asm.emit("push", "rcx")
        asm.emit("jmp", "__probe_ret")
        asm.label("__cont")
        asm.emit("jmp", "__done")
        asm.nops(8)
        asm.label("__done")
        asm.emit("hlt")
        asm.org(target_byte)
        asm.label("__probe_ret")
        asm.emit("ret")
        program = asm.assemble()
        return ProbeCode(
            ranges=(pw_range,),
            entry=stub,
            jmp_pcs=(target_byte,),
            terminator_pc=program.address_of("__cont"),
            program=program,
            alias_base=self.alias_base,
        )
