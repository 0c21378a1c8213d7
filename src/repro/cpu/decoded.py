"""Decoded-window execution cache for the simulator hot loops.

The paper's own prediction-window structure (§2.2: fetch bundles are
confined to one 32-byte-aligned block) gives the simulator a natural
decode-cache granularity.  A :class:`DecodedWindow` captures, for one
window entry PC, the full straight-line decode up to the block boundary
or the first control transfer: per-instruction compiled thunks
(:func:`repro.cpu.semantics.compile_straightline`, the one concrete
semantics of straight-line instructions, which :func:`execute` also
runs), issue-cost extras, and the fall-through layout.  Both execution engines use it:

* :meth:`repro.cpu.core.Core.run` hands windows to its one cached
  executor (``Core._run_superblock``): chained into superblocks at a
  bundle start, or as a one-link chain mid-bundle when the BTB
  prediction cannot interact with the window (no entry, or the
  predicted branch-end byte lies at/after the window's terminator
  region) — bit-identical cycle accounting, BTB, LBR and trace
  behaviour is enforced by the differential suite in
  ``tests/test_fastpath_diff.py``;
* :func:`repro.cpu.interpret` / :func:`repro.cpu.run_function` execute
  it unconditionally (the oracle has no micro-architectural state).

Cache key and invalidation
--------------------------
Windows are keyed by entry PC and stamped with the memory's
``code_generation`` counter (its page table's ``epoch``).  The counter
bumps when

* a write changes bytes on or next to a page that holds cached
  decodes (``VirtualMemory.write_bytes`` — self-modifying code; a
  write of identical bytes changes nothing), or
* a page is mapped fresh, re-mapped with other permissions, or
  unmapped (``PageTable.map_page``/``unmap_page`` — page swaps).

``set_perms`` deliberately does *not* bump it: decoded bytes are
content, not permissions, and the controlled-channel attacker flips
execute permission on every single step — thrashing the cache there
would defeat the point.  Permissions are instead enforced live: the
core fast path performs one execute check per window (equivalent to
the warm slow path, because a 32-byte block never crosses a page), and
the oracle skips checks exactly as its icache hit path always has.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from .. import telemetry
from ..errors import DecodeError, InvalidInstruction, PageFault
from ..isa.encoding import decode as decode_bytes
from ..isa.instructions import Instruction, Kind, SPECS_BY_OPCODE
from ..memory.address import block_end
from .btb import reconstruct_end_byte
from .costs import EXTRA_ISSUE_COST, MEM_WRITERS
from .fusion import can_fuse
from .semantics import compile_straightline

_ENABLED = os.environ.get("NV_FAST_PATH", "1").strip().lower() not in (
    "0", "false", "off", "no")


def set_fast_path(enabled: bool) -> bool:
    """Globally enable/disable the fast path; returns the previous
    setting (so tests and benchmarks can restore it)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def fast_path_enabled() -> bool:
    """Is the decoded-window fast path currently enabled?

    Defaults to on; ``NV_FAST_PATH=0`` in the environment or
    :func:`set_fast_path` turn it off (the slow path is the reference
    the differential tests compare against).
    """
    return _ENABLED


#: icache value caching a "no instruction here" verdict: the byte at the
#: pc is not an opcode.  Consumers that hit it re-run the miss path's
#: first-byte fetch and raise through :func:`raise_bad_opcode`.
BAD_OPCODE = (None, 1)


def raise_bad_opcode(memory, pc: int):
    """Raise what :func:`decode_at` raises for a bad opcode at ``pc``:
    the first-byte execute and filter check, then
    :class:`InvalidInstruction` with the same message."""
    first = memory.read_bytes(pc, 1, access="execute")
    raise InvalidInstruction(f"bad opcode {first[0]:#04x} at {pc:#x}")


def decode_at(memory, pc: int) -> Tuple[Instruction, int]:
    """Decode the instruction at ``pc`` and fill the icache.

    The shared miss path of ``interp._fetch`` and ``Core._decode``:
    execute-permission-checked fetch, opcode validation, decode, icache
    insert.  Raises :class:`InvalidInstruction` for junk bytes (decode
    failures included) and lets :class:`PageFault` propagate.  A bad
    opcode is cached as :data:`BAD_OPCODE`.

    Inside an attached code image (fast path only) the loader's own
    decode replaces the read and the byte decode; the fetch checks run
    all the same, first byte then full length.
    """
    telemetry.count("cpu.decode.misses")
    if _ENABLED:
        image = memory.image_at(pc)
        if image is not None:
            shared = image.decode(pc)
            if shared is not None:
                memory.check_fetch(pc, 1)
                memory.check_fetch(pc, shared[1])
                telemetry.count("cpu.decode.image_hits")
                memory.icache[pc] = shared
                return shared
    first = memory.read_bytes(pc, 1, access="execute")
    spec = SPECS_BY_OPCODE.get(first[0])
    if spec is None:
        memory.icache[pc] = BAD_OPCODE
        raise InvalidInstruction(f"bad opcode {first[0]:#04x} at {pc:#x}")
    blob = memory.read_bytes(pc, spec.length, access="execute")
    try:
        instruction, length = decode_bytes(blob, 0)
    except DecodeError as error:
        raise InvalidInstruction(str(error)) from error
    memory.icache[pc] = (instruction, length)
    return instruction, length


class DecodedWindow:
    """The cached straight-line decode of one prediction window."""

    __slots__ = ("entry_pc", "generation", "limit", "pcs", "instructions",
                 "thunks", "extras", "count", "resume_pc", "has_store",
                 "fuse_holdback", "terminator", "decode_error")

    def __init__(self, entry_pc: int, generation: int, limit: int,
                 pcs: List[int], instructions: List[Instruction],
                 thunks: list, extras: List[float], resume_pc: int,
                 has_store: bool, terminator: Optional[Instruction],
                 decode_error: bool):
        self.entry_pc = entry_pc
        self.generation = generation
        self.limit = limit
        self.pcs = pcs
        self.instructions = instructions
        self.thunks = thunks
        self.extras = extras
        self.count = len(pcs)
        #: PC of the first instruction the generic loop must handle:
        #: the terminator, the undecodable byte, or the fall-through
        #: into the next block.
        self.resume_pc = resume_pc
        self.has_store = has_store
        self.terminator = terminator
        self.decode_error = decode_error
        #: leave the last item to the generic loop when it could
        #: macro-fuse with what follows: a Jcc terminator, or an
        #: unknown successor (window ran to the boundary / stopped on
        #: a decode error).  Fusion retires the pair as one unit, which
        #: the straight-line loop cannot model.
        self.fuse_holdback = bool(
            instructions and instructions[-1].spec.fusible
            and (terminator is None
                 or terminator.spec.kind is Kind.COND_JUMP))

    def stamped(self, generation: int) -> "DecodedWindow":
        """This window's shared decode under another memory's
        ``generation`` stamp."""
        clone = DecodedWindow.__new__(DecodedWindow)
        for name in DecodedWindow.__slots__:
            setattr(clone, name, getattr(self, name))
        clone.generation = generation
        return clone

    def __repr__(self) -> str:                     # pragma: no cover
        return (f"DecodedWindow({self.entry_pc:#x}, n={self.count}, "
                f"resume={self.resume_pc:#x}, gen={self.generation})")


def build_window(memory, entry_pc: int) -> DecodedWindow:
    """Decode the window starting at ``entry_pc`` and cache it.

    Decoding stops at the 32-byte block boundary, at the first
    non-sequential instruction (the window terminator: control
    transfer, ``syscall`` or ``hlt``), or at an undecodable/unfetchable
    byte — the latter is *not* an error here; the generic loop
    reproduces the fault at ``resume_pc``.  Empty error windows are not
    cached so a transient fault (e.g. execute permission revoked during
    a controlled-channel probe) does not stick.

    A window that decoded cleanly and lies wholly inside an attached
    code image with window sharing on is published on the image, for
    other memories to adopt (:func:`adopt_window`).
    """
    telemetry.count("cpu.decode.window_builds")
    generation = memory.code_generation
    limit = block_end(entry_pc)
    icache = memory.icache
    pcs: List[int] = []
    instructions: List[Instruction] = []
    thunks: list = []
    extras: List[float] = []
    has_store = False
    terminator: Optional[Instruction] = None
    decode_error = False
    pc = entry_pc
    while pc < limit:
        cached = icache.get(pc)
        try:
            if cached is None:
                instruction, length = decode_at(memory, pc)
            elif cached[0] is None:
                raise_bad_opcode(memory, pc)
            else:
                instruction, length = cached
        except (PageFault, InvalidInstruction):
            decode_error = True
            break
        if instruction.spec.kind is not Kind.SEQUENTIAL:
            terminator = instruction
            break
        pcs.append(pc)
        instructions.append(instruction)
        thunks.append(compile_straightline(instruction, pc))
        extras.append(EXTRA_ISSUE_COST.get(instruction.spec.mnemonic, 0.0))
        if instruction.spec.mnemonic in MEM_WRITERS:
            has_store = True
        pc += length
    window = DecodedWindow(entry_pc, generation, limit, pcs, instructions,
                           thunks, extras, pc, has_store, terminator,
                           decode_error)
    cache = getattr(memory, "window_cache", None)
    if cache is not None and not (decode_error and not pcs):
        cache[entry_pc] = window
        if _ENABLED and not decode_error:
            _publish(memory, window)
    return window


def _publish(memory, window: DecodedWindow) -> None:
    """Keep ``window`` on its code image when every instruction it
    decoded (terminator included) is one of the image's own decodes —
    so it never reads past the segment's end, and misaligned entries
    and data bytes stay private."""
    image = memory.image_at(window.entry_pc)
    if image is None or image.windows is None:
        return
    decode = image.decode
    if window.terminator is not None and decode(window.resume_pc) is None:
        return
    for pc in window.pcs:
        if decode(pc) is None:
            return
    image.windows[window.entry_pc] = window


def adopt_window(memory, pc: int) -> Optional[DecodedWindow]:
    """Take the window at ``pc`` from an attached code image, if it has
    one, instead of building it.

    Re-runs the checks a build would make: every window pc (terminator
    included) missing from the private icache gets the fetch checks of
    :func:`decode_at`.  If any check fails, nothing is filled and
    ``None`` sends the caller to :func:`build_window`, which reproduces
    the failure.  Otherwise the icache fills as a build would fill it
    and the window enters the private cache under this memory's
    ``code_generation``.
    """
    if not _ENABLED:
        return None
    image = memory.image_at(pc)
    if image is None or not image.windows:
        return None
    shared = image.windows.get(pc)
    if shared is None:
        return None
    icache = memory.icache
    pcs = shared.pcs
    if shared.terminator is not None:
        pcs = pcs + [shared.resume_pc]
    missing = [(at, image.decode(at)) for at in pcs if at not in icache]
    try:
        for at, decoded in missing:
            memory.check_fetch(at, 1)
            memory.check_fetch(at, decoded[1])
    except Exception:
        # An access filter may raise any error; the build reproduces
        # whichever it is, or stops the window there.
        return None
    if missing:
        telemetry.count("cpu.decode.misses", len(missing))
        telemetry.count("cpu.decode.image_hits", len(missing))
        for at, decoded in missing:
            icache[at] = decoded
    telemetry.count("cpu.decode.window_adoptions")
    window = shared.stamped(memory.code_generation)
    memory.window_cache[pc] = window
    return window


def get_window(memory, pc: int) -> DecodedWindow:
    """Current-generation window for ``pc``, adopting or building it
    on demand.  ``memory`` must have a window cache."""
    window = memory.window_cache.get(pc)
    if window is not None and window.generation == memory.code_generation:
        return window
    return adopt_window(memory, pc) or build_window(memory, pc)


# ----------------------------------------------------------------------
# superblocks: chains of windows linked across predicted edges
# ----------------------------------------------------------------------

#: maximum chained edges in one superblock.  Real front ends bound the
#: fetch-ahead distance similarly; eight edges covers every hot loop in
#: the victim corpus (gcd's loop body spans two, the pointer-chase
#: traversal four).
SUPERBLOCK_MAX_LINKS = 8

#: maximum chains kept per entry pc, the most recently used first.
#: The chains an entry pc gets differ only in the BTB lookups they were
#: built from, and an attacker priming and probing a victim's sets
#: between slices flips those lookups back and forth.  One seed-0 NV-U
#: leak pass (``benchmarks/e2e`` ``nvu_leak``) makes 16,907 builds with
#: one chain per pc, 7,000 with two, 5,812 with three, 5,475 with four
#: and 5,191 with six or eight.
SUPERBLOCK_VARIANTS = 4


class SuperblockLink:
    """One window of a superblock plus its chained exit edge.

    Three edge flavours exist:

    * **predicted-taken** (``entry is not None``): the BTB predicts the
      terminator's *exact* last byte and the chain continues at
      ``entry.target``.  The link pins the BTB entry object; that
      reference stays truthful for as long as the lookup it came from
      still returns it unchanged — the superblock's validity
      condition — so the executor compares ``entry.target`` against
      the architectural outcome without a fresh lookup.
    * **fall-through** (``entry is None``, ``term`` set): no BTB entry
      is in range for this window's block, the terminator is a
      conditional jump, and the chain continues at the not-taken
      successor.  The slow path treats this edge as a pure non-event
      (no LBR record, no BTB touch, prediction window stays open),
      which is why it can chain.
    * **boundary** (``term is None``): straight-line code running to
      the 32-byte block limit with no BTB entry in range; the chain
      continues at the next block (``window.resume_pc``), where the
      slow path closes the exhausted window for free and opens a new
      one — so the successor link always ``opens_pw``.
    * **boundary-fused** (``mid_fetch``): the window's held-back ALU
      macro-fuses with a conditional jump that *leads the next block*.
      The slow path executes the ALU in the generic loop, charges the
      fetch and opens the successor's prediction window mid-retire-unit
      (``Core.run``'s fused-Jcc block), then executes the Jcc as the
      same unit.  The link models that: ``term`` is the next block's
      Jcc, ``entry``/``pred_end`` describe *its* window (the prefix
      ran under the previous, predictionless one), and ``term_limit``
      is the next block's 32-byte limit.

    ``opens_pw`` records whether the slow path would open a fresh
    prediction window at this link's entry (charging fetch cycles and
    counting one BTB lookup): true after every taken edge and whenever
    a fall-through crosses into a new 32-byte block, false when a
    fall-through continues inside the block — range semantics guarantee
    the opening lookup's miss covers every later offset in the block.
    """

    __slots__ = ("window", "entry", "pred_end", "term", "term_pc",
                 "term_len", "term_extra", "target", "fused", "count",
                 "units", "insts", "opens_pw", "mid_fetch", "term_limit")

    def __init__(self, window: DecodedWindow, entry,
                 pred_end: Optional[int], term: Optional[Instruction],
                 term_pc: int, target: int, fused: bool, opens_pw: bool,
                 mid_fetch: bool = False,
                 term_limit: Optional[int] = None):
        self.window = window
        self.entry = entry
        self.pred_end = pred_end
        self.term = term
        self.term_pc = term_pc
        self.target = target
        self.fused = fused
        self.opens_pw = opens_pw
        self.mid_fetch = mid_fetch
        #: block limit of the window the *terminator* executes under —
        #: ``window.limit`` except for mid-fetch links, whose Jcc lives
        #: in the successor block.
        self.term_limit = window.limit if term_limit is None else term_limit
        self.count = window.count
        if term is not None:
            self.term_len = term.length
            self.term_extra = EXTRA_ISSUE_COST.get(term.mnemonic, 0.0)
            #: architectural instructions per link (prefix + terminator)
            self.insts = window.count + 1
            #: retire units per link (a fused pair retires as one)
            self.units = window.count + (0 if fused else 1)
        else:
            # Boundary link: prefix only, nothing to terminate.
            self.term_len = 0
            self.term_extra = 0.0
            self.insts = window.count
            self.units = window.count


class Superblock:
    """A cached chain of decoded windows across predicted edges.

    Keyed by entry PC in ``memory.superblock_cache`` and stamped with
    ``memory.code_generation``, the owning BTB, and the BTB lookups the
    chain was built from: ``lookups`` holds one ``(pc, entry, offset,
    target, set_index)`` record per :meth:`BTB.peek` the builder made,
    and ``stamps`` the matching :attr:`BTB.set_generation` stamp of
    that set.  The chain is a pure function of the code bytes and those
    lookup results, so it stays valid for as long as every recorded pc
    still peeks the same entry object with the same offset and target.
    The owning BTB's ``generation`` makes the steady state one compare;
    when it moved, only the records whose set stamp moved are re-peeked,
    and on success the stamps are refreshed.  BTB churn that leaves the
    chain's own predictions alone — another set's allocations, a
    deallocate-and-reallocate of the same entry, domain switches that
    hide none of its entries — therefore does not force a rebuild.

    A chain with no ``links`` is a *negative marker*: the entry PC is
    unchainable, and stays cached under the same validity rule so the
    builder is retried only once one of its lookups (or the code)
    changes.  ``loop`` marks chains whose last edge targets the entry
    PC: the dispatcher re-enters them once per iteration.

    ``older`` links to the next most recently used variant for the same
    entry PC and code generation (at most :data:`SUPERBLOCK_VARIANTS`
    chains in all): a chain whose lookups changed stays there, and is
    reused once they change back (:meth:`promote`).
    """

    __slots__ = ("entry_pc", "code_generation", "btb", "btb_generation",
                 "lookups", "stamps", "links", "loop", "loop_taken",
                 "insts_per_pass", "units_per_pass", "older")

    def __init__(self, entry_pc: int, code_generation: int, btb,
                 lookups: list, links: List[SuperblockLink], loop: bool,
                 older: Optional["Superblock"] = None):
        self.entry_pc = entry_pc
        self.code_generation = code_generation
        self.btb = btb
        self.btb_generation = btb.generation
        self.lookups = lookups
        set_generation = btb.set_generation
        self.stamps = [set_generation[record[4]] for record in lookups]
        self.links = links
        self.loop = loop
        #: loop closed by a predicted-taken edge: each pass ends with
        #: the prediction window closed, so the dispatcher may run
        #: several passes back-to-back (a fall-through-closing loop
        #: leaves the window open and must return to the outer loop).
        self.loop_taken = loop and links[-1].entry is not None
        self.insts_per_pass = sum(link.insts for link in links)
        self.units_per_pass = sum(link.units for link in links)
        # Keep at most SUPERBLOCK_VARIANTS chains: this one and the
        # first SUPERBLOCK_VARIANTS - 1 of ``older``.
        self.older = older
        node = older
        for _ in range(SUPERBLOCK_VARIANTS - 2):
            if node is None:
                break
            node = node.older
        if node is not None:
            node.older = None

    def btb_valid(self, btb) -> bool:
        """Would every lookup this chain was built from answer the same
        way now?"""
        if btb is not self.btb:
            return False
        generation = btb.generation
        if generation == self.btb_generation:
            return True
        set_generation = btb.set_generation
        stamps = self.stamps
        for i, (pc, entry, offset, target, set_index) in enumerate(
                self.lookups):
            stamp = set_generation[set_index]
            if stamp != stamps[i]:
                now = btb.peek(pc)
                if now is not entry or (now is not None and (
                        now.offset != offset or now.target != target)):
                    return False
                # This record holds at the set's current stamp, whatever
                # the others say.
                stamps[i] = stamp
        self.btb_generation = generation
        return True

    def promote(self, btb) -> Optional["Superblock"]:
        """The first older variant valid on ``btb``, moved to the front
        of the list with this chain as its ``older``; ``None`` if no
        variant is valid."""
        previous = self
        variant = self.older
        while variant is not None:
            if variant.btb_valid(btb):
                previous.older = variant.older
                variant.older = self
                return variant
            previous = variant
            variant = variant.older
        return None

    def __repr__(self) -> str:                     # pragma: no cover
        return (f"Superblock({self.entry_pc:#x}, links={len(self.links)}, "
                f"loop={self.loop})")


def build_superblock(memory, btb, entry_pc: int, fusion_enabled: bool,
                     older: Optional[Superblock] = None) -> Superblock:
    """Chain windows from ``entry_pc`` across predicted edges.

    A window extends the chain iff it ends in a control transfer and
    either

    * the BTB predicts the terminator's *exact* anchor byte — its last
      byte on Intel-family designs, its first byte on
      instruction-indexed backends (``reconstruct_end_byte`` of the
      entry's offset equals that anchor): the prediction cannot
      interact with the prefix (no false-hit walk, no mid-prefix
      settle) and the predicted target gives the next window; or
    * no entry is in range at all and the terminator is a conditional
      jump: the not-taken successor gives the next window (see
      :class:`SuperblockLink` for why this edge is chainable).

    Probing uses :meth:`BTB.peek` so build-time probes never perturb
    the lookup stats the differential suite compares.  Every probe is
    recorded as the chain's validity condition (see
    :class:`Superblock`).

    Always returns a :class:`Superblock`; when not even the first edge
    qualifies it has no links — a negative marker the caller caches to
    suppress rebuild attempts until the code or one of the recorded
    lookups changes.  Pure code-shape verdicts (syscall/hlt terminator,
    decode error) record no lookup, so only a code-generation change
    revisits them.

    ``older`` is the variant list the new chain goes in front of (the
    oldest variant past :data:`SUPERBLOCK_VARIANTS` drops out).
    """
    links: List[SuperblockLink] = []
    lookups: list = []
    pc = entry_pc
    seen = {entry_pc}
    loop = False
    opens = True
    last_byte_index = btb.backend.last_byte_index
    split = btb.backend.split

    def peek(fetch_pc: int):
        entry = btb.peek(fetch_pc)
        set_index = split(fetch_pc)[1]
        if entry is None:
            lookups.append((fetch_pc, None, 0, 0, set_index))
        else:
            lookups.append((fetch_pc, entry, entry.offset, entry.target,
                            set_index))
        return entry

    while len(links) < SUPERBLOCK_MAX_LINKS:
        window = get_window(memory, pc)
        if window.decode_error:
            break
        term = window.terminator
        if term is not None and not term.spec.is_control:
            break                           # syscall / hlt terminator
        if opens:
            entry = peek(pc)
        else:
            # Continuation inside the block: the opening lookup missed.
            # Under range semantics every higher offset misses too; the
            # exact-hit designs never re-look-up mid-window at all (the
            # front end probes once per fetch), so entry stays None for
            # every backend.
            entry = None
        term_pc = window.resume_pc
        if term is None:
            # Straight-line to the block limit (boundary edge).
            if entry is not None:
                # A prediction points into straight-line code: the
                # false-hit machinery will burn it down — not
                # chainable until then.
                break
            if fusion_enabled and window.fuse_holdback:
                nw = get_window(memory, window.resume_pc)
                if (not nw.count and nw.terminator is not None
                        and nw.terminator.spec.kind is Kind.COND_JUMP
                        and can_fuse(window.instructions[-1],
                                     nw.terminator)):
                    # The held-back ALU fuses with the next block's
                    # leading Jcc: a boundary-fused (mid-fetch) link.
                    # The Jcc runs under the *successor's* prediction
                    # window, so its edge must qualify the same way a
                    # taken or fall-through edge would.
                    jcc = nw.terminator
                    jcc_pc = window.resume_pc
                    entry2 = peek(jcc_pc)
                    jcc_anchor = (jcc_pc + jcc.length - 1
                                  if last_byte_index else jcc_pc)
                    if entry2 is not None and reconstruct_end_byte(
                            jcc_pc, entry2.offset) != jcc_anchor:
                        # Prediction interacts with the Jcc (false-hit
                        # walk / mid-unit settle): not chainable until
                        # that entry dies.
                        break
                    if entry2 is not None:
                        pe2: Optional[int] = jcc_anchor
                        target = entry2.target
                        next_opens = True
                    else:
                        pe2 = None
                        target = jcc_pc + jcc.length
                        next_opens = target >= nw.limit
                    links.append(SuperblockLink(
                        window, entry2, pe2, jcc, jcc_pc, target, True,
                        opens, mid_fetch=True, term_limit=nw.limit))
                    pc = target
                    if pc == entry_pc:
                        loop = True
                        break
                    if pc in seen:
                        break
                    seen.add(pc)
                    opens = next_opens
                    continue
            pred_end: Optional[int] = None
            target = window.resume_pc
            next_opens = True
            fused = False
        elif entry is not None:
            term_anchor = (term_pc + term.length - 1
                           if last_byte_index else term_pc)
            if reconstruct_end_byte(pc, entry.offset) != term_anchor:
                break
            pred_end = term_anchor
            target = entry.target
            next_opens = True
            fused = bool(fusion_enabled and window.count
                         and can_fuse(window.instructions[-1], term))
        else:
            if term.spec.kind is not Kind.COND_JUMP:
                # An unpredicted jmp/call/ret mispredicts every pass
                # until an entry exists; chainable once it does.
                break
            pred_end = None
            target = term_pc + term.length
            next_opens = target >= window.limit
            fused = bool(fusion_enabled and window.count
                         and can_fuse(window.instructions[-1], term))
        links.append(SuperblockLink(window, entry, pred_end, term,
                                    term_pc, target, fused, opens))
        pc = target
        if pc == entry_pc:
            loop = True
            break
        if pc in seen:
            break
        seen.add(pc)
        opens = next_opens
    return Superblock(entry_pc, memory.code_generation, btb, lookups,
                      links, loop, older)
