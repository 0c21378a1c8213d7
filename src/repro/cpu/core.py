"""Cycle-accounted pipelined front-end model.

This is the substrate whose behaviour the whole reproduction rests on.
It executes instructions architecturally (via
:mod:`repro.cpu.semantics`) while modelling the *front end* the way the
paper describes modern Intel cores:

* **Prediction windows** — instructions are fetched in bundles confined
  to one 32-byte-aligned block; each bundle either ends with a taken
  control transfer or runs to the block boundary (§2.2).
* **BTB range lookups** — each new PW performs one BTB lookup with
  range semantics (Takeaway 2); a hit predicts where the PW's
  terminating branch *ends* (entries are indexed by the branch's last
  byte, matching the measured ``F2 < F1+2`` / ``F1 < F2+2`` boundaries
  of Figures 2 and 4) and where it goes.
* **False hits** — when decode discovers the predicted "branch" is a
  non-control-transfer instruction (or not aligned with any
  instruction's last byte), the pipeline squashes and the BTB entry is
  **deallocated** (Takeaway 1), even though the triggering instruction
  itself executes and retires normally.
* **Cycle accounting** — a first-order timing model: per-PW fetch cost,
  per-instruction issue cost, and a constant squash penalty for every
  misprediction/false hit.  LBR records retire-to-retire elapsed
  cycles, which is exactly what the paper measures.
* **Macro-fusion** — fusible ALU + Jcc pairs retire as one unit, so a
  single-step interrupt cannot split them (§7.3).
* **Speculative look-ahead** — optionally, instructions past a retire
  stop keep updating the BTB before the pipeline drains (§6.3 "Impact
  of Speculative Execution").  With the fast path on, its
  straight-line stretches run on cached decoded windows; prediction
  and control transfers stay on its per-instruction loop.

The BTB, LBR and cycle counter are *core* state, shared by every
process/enclave context-switched onto this core.  That sharing is the
side channel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import (
    EnclaveAccessError,
    InvalidInstruction,
    PageFault,
    ProtectionFault,
    ReproError,
    SimulationTimeout,
)
from ..isa.instructions import Instruction, Kind
from ..memory.address import block_end
from .btb import BTB, BTBEntry
from .config import CpuGeneration, DEFAULT_GENERATION
from .costs import EXTRA_ISSUE_COST
from .decoded import (SuperblockLink, adopt_window, build_superblock,
                      build_window, decode_at, fast_path_enabled,
                      raise_bad_opcode)
from .fusion import can_fuse
from .interp import _DEADLINE_STRIDE, _check_deadline_now
from .lbr import LBR
from .semantics import Outcome, execute
from .state import MachineState


#: how a fetch is refused: the page table, or the memory's access
#: filter (the EPC filter raises ``EnclaveAccessError``, others
#: ``ProtectionFault``).  A speculative fetch refused this way stalls.
_FETCH_REFUSALS = (PageFault, ProtectionFault, EnclaveAccessError)


class StopReason(enum.Enum):
    """Why :meth:`Core.run` returned."""

    HALT = "halt"
    SYSCALL = "syscall"
    RETIRE_LIMIT = "retire_limit"     # timer interrupt / single step
    PAGE_FAULT = "page_fault"


@dataclass
class RunResult:
    """Outcome of one :meth:`Core.run` invocation."""

    reason: StopReason
    retired: int = 0                   # retire units (fused pair = 1)
    instructions: int = 0              # architectural instructions
    cycles: float = 0.0                # cycles consumed by this run
    fault: Optional[PageFault] = None
    #: retired instruction PCs, in order (only if collect_trace)
    trace: Optional[List[int]] = None
    #: leading PC of each retire unit (only if collect_trace)
    unit_starts: Optional[List[int]] = None


@dataclass
class _PredictionWindow:
    """Prediction context for the bundle currently being fetched."""

    entry: Optional[BTBEntry]
    #: address of the predicted branch's last byte, or None on BTB miss
    pred_end: Optional[int]
    limit: int


class _SpecMemory:
    """Store-buffer overlay used during speculative look-ahead.

    Reads see speculative stores; writes never reach real memory.
    Exposes the subset of the :class:`VirtualMemory` interface the
    semantics layer and its compiled thunks touch.
    """

    def __init__(self, memory):
        self._memory = memory
        self._stores: Dict[int, int] = {}
        self.page_table = memory.page_table
        self.icache = memory.icache
        self.access_filter = memory.access_filter
        self.context = memory.context
        # The underlying memory's code images serve decode misses.
        self.image_at = memory.image_at
        self.check_fetch = memory.check_fetch

    def read_u64(self, address: int, **kwargs) -> int:
        if address in self._stores:
            return self._stores[address]
        return self._memory.read_u64(address, **kwargs)

    def write_u64(self, address: int, value: int, **kwargs) -> None:
        self._stores[address] = value & (1 << 64) - 1

    def read_bytes(self, address: int, size: int, **kwargs) -> bytes:
        return self._memory.read_bytes(address, size, **kwargs)


class Core:
    """One simulated hardware thread's shared micro-architecture."""

    #: hard runaway guard (architectural instructions per run call)
    DEFAULT_INSTRUCTION_GUARD = 20_000_000

    def __init__(self, config: Optional[CpuGeneration] = None, *,
                 lbr_rng=None):
        self.config = config if config is not None else DEFAULT_GENERATION
        self.btb = BTB(self.config)
        #: does the BTB design anchor a branch at its last byte (Intel)
        #: or its first?  Cached: decides both the byte passed to
        #: ``allocate`` and what an aligned prediction looks like.
        self._last_byte_index = self.btb.backend.last_byte_index
        self.lbr = LBR(timing_noise=self.config.timing_noise,
                       seed=self.config.seed, rng=lbr_rng)
        self.cycles: float = 0.0
        self.total_retired: int = 0
        #: extra issue cost for slow instructions, in cycles — shared
        #: with the decoded-window builder so cached per-item costs
        #: match the generic loop exactly.
        self._extra_cost = dict(EXTRA_ISSUE_COST)
        self._issue_cost = 1.0 / self.config.issue_width
        #: Telemetry sink captured at construction (None → disabled).
        #: Rare events (false hits, squashes) emit directly; per-run
        #: totals fold in once at each :meth:`run` return.
        self._tel: Optional[telemetry.TelemetrySink] = telemetry.current()

    def attach_telemetry(
            self, sink: Optional[telemetry.TelemetrySink]) -> None:
        """(Re)bind this core — and its BTB — to ``sink``.  Needed when
        the core outlives the session it was built in (or was built
        before one opened), e.g. the differential validator."""
        self._tel = sink
        self.btb.bind_telemetry(sink)

    # ------------------------------------------------------------------
    # mode / context management (called by the system layer)
    # ------------------------------------------------------------------
    def context_switch(self, domain: Optional[int] = None) -> None:
        """Apply the configured mitigation behaviour on a switch."""
        if self.config.flush_btb_on_switch:
            self.btb.flush()
        elif self.config.ibrs_ibpb:
            self.btb.flush_indirect()
        if domain is not None:
            self.btb.current_domain = domain

    def set_enclave_mode(self, enabled: bool) -> None:
        """Enclave entry disables LBR recording (SGX behaviour)."""
        self.lbr.enabled = not enabled

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def _decode(self, state: MachineState,
                pc: int) -> Tuple[Instruction, int]:
        memory = state.memory
        cached = memory.icache.get(pc)
        if cached is not None:
            if cached[0] is None:
                raise_bad_opcode(memory, pc)
            # Permission check still applies on every fetch (controlled-
            # channel attacks depend on seeing every executed page).
            # The oracle's ``interp._fetch`` deliberately skips this on
            # hits — see its docstring.
            if memory.access_filter is not None:
                memory.access_filter(pc, 1, "execute", memory.context)
            memory.page_table.check(pc, "execute")
            return cached  # type: ignore[return-value]
        return decode_at(memory, pc)

    # ------------------------------------------------------------------
    # main run loop
    # ------------------------------------------------------------------
    def run(self, state: MachineState, *,
            max_retired: Optional[int] = None,
            max_instructions: Optional[int] = None,
            collect_trace: bool = False) -> RunResult:
        """Execute from ``state.rip`` until a stop condition.

        ``max_retired`` counts *retire units* (a macro-fused pair is
        one unit) — this is the timer-interrupt / single-step knob.
        On return, ``state.rip`` points at the next unexecuted
        instruction (or at the faulting one for PAGE_FAULT).
        """
        guard = max_instructions or self.DEFAULT_INSTRUCTION_GUARD
        start_cycles = self.cycles
        retired = 0
        instructions = 0
        trace: Optional[List[int]] = [] if collect_trace else None
        unit_starts: Optional[List[int]] = [] if collect_trace else None
        pw: Optional[_PredictionWindow] = None
        # Superblock telemetry is kept in plain locals (integer adds per
        # *dispatch*, not per instruction) and folded into the sink
        # once per run() — the disabled-mode hot loop stays untouched.
        sb_builds = 0
        sb_hits = 0
        sb_bailouts = 0
        sb_invalidations = 0

        def result(reason: StopReason,
                   fault: Optional[PageFault] = None) -> RunResult:
            if reason is StopReason.RETIRE_LIMIT:
                # The front end is ahead of retirement: it finishes
                # decoding the in-flight prediction window(s), firing
                # decode-time BTB deallocations for instructions that
                # will never retire (§6.3).
                # Then it runs ``spec_lookahead`` instructions further
                # (none when the generation sets it to 0).
                self._drain_fetch_ahead(state, pw)
                self._speculative_lookahead(state)
            elif reason in (StopReason.HALT, StopReason.SYSCALL):
                # Fetch ran ahead of the halting/trapping instruction
                # too: the rest of its prediction window was decoded,
                # so decode-time BTB effects still fire.
                self._drain_fetch_ahead(state, pw)
            tel = self._tel
            if tel is not None:
                tel.count("cpu.core.runs")
                if instructions:
                    tel.count("cpu.core.instructions", instructions)
                if retired:
                    tel.count("cpu.core.retired", retired)
                if sb_builds:
                    tel.count("cpu.superblock.builds", sb_builds)
                if sb_hits:
                    tel.count("cpu.superblock.hits", sb_hits)
                if sb_bailouts:
                    tel.count("cpu.superblock.bailouts", sb_bailouts)
                if sb_invalidations:
                    tel.count("cpu.superblock.invalidations",
                              sb_invalidations)
            return RunResult(
                reason=reason, retired=retired, instructions=instructions,
                cycles=self.cycles - start_cycles, fault=fault,
                trace=trace, unit_starts=unit_starts,
            )

        memory = state.memory
        window_cache = getattr(memory, "window_cache", None)
        superblock_cache = getattr(memory, "superblock_cache", None)
        fast = fast_path_enabled() and window_cache is not None
        # ``epoch`` is ``memory.code_generation`` (one counter)
        page_table = memory.page_table
        fusion_enabled = self.config.fusion_enabled
        next_deadline_check = _DEADLINE_STRIDE
        while True:
            if instructions >= guard:
                raise SimulationTimeout(
                    f"{instructions} instructions without stopping",
                    budget=guard, executed=instructions)
            if instructions >= next_deadline_check:
                next_deadline_check = instructions + _DEADLINE_STRIDE
                _check_deadline_now(instructions)
            pc = state.rip
            ran = None
            if pw is None:
                # ----- bundle start: superblock dispatch --------------
                # A cached chain of windows linked across predicted
                # edges can run whole hot loops without re-opening
                # prediction windows.  Validity is two integer compares
                # (code generation + BTB generation) plus a BTB identity
                # check, and a moved BTB generation re-peeks the chain's
                # recorded lookups in the sets that moved; a chain
                # without links is a cached "unchainable pc" verdict
                # under the same rule.  The cache holds the most
                # recently used variant for the pc; when it is stale,
                # the older variants are tried before a build, and a
                # code change drops them all.  Only a pass that fits
                # the instruction and retire budgets whole is
                # dispatched; otherwise the bundle opens here
                # and the mid-bundle entry below runs (and clips) its
                # first window.  Loop superblocks re-enter through this
                # check each batch of passes, which keeps the guard and
                # deadline strides of the outer loop authoritative.
                if (fast and superblock_cache is not None
                        and memory.access_filter is None):
                    head = sb = superblock_cache.get(pc)
                    if (head is not None
                            and head.code_generation != page_table.epoch):
                        if head.links:
                            sb_invalidations += 1
                        head = sb = None        # every variant is stale
                    elif head is not None and not head.btb_valid(self.btb):
                        sb = head.promote(self.btb)
                        if sb is not None:
                            superblock_cache[pc] = sb
                        elif head.links:
                            sb_invalidations += 1
                    if sb is None:
                        sb = build_superblock(memory, self.btb, pc,
                                              fusion_enabled, head)
                        superblock_cache[pc] = sb
                        if sb.links:
                            sb_builds += 1
                    if sb.links and (
                            instructions + sb.insts_per_pass <= guard
                            and (max_retired is None
                                 or retired + sb.units_per_pass
                                 <= max_retired)):
                        sb_hits += 1
                        passes = 1
                        if sb.loop_taken:
                            # Taken-edge loop: amortize the dispatch
                            # over as many passes as the instruction /
                            # retire budgets and the deadline-check
                            # stride allow.
                            room = ((guard - instructions)
                                    // sb.insts_per_pass)
                            if max_retired is not None:
                                r = ((max_retired - retired)
                                     // sb.units_per_pass)
                                if r < room:
                                    room = r
                            d = ((next_deadline_check - instructions)
                                 // sb.insts_per_pass) + 1
                            if d < room:
                                room = d
                            if room > 1:
                                passes = room
                        ran = self._run_superblock(
                            sb.links if passes == 1 else sb.links * passes,
                            sb.code_generation, state, memory, trace,
                            unit_starts)
                        if ran[5]:              # bailed mid-chain
                            sb_bailouts += 1
                if ran is None:
                    self.cycles += self.config.fetch_cycles
                    pw = self._open_window(pc)

            if ran is None:
                # A predicted branch-end byte we have walked past did
                # not align with any instruction: false hit, deallocate.
                while pw.pred_end is not None and pw.pred_end < pc:
                    self._false_hit(pw, pc)

                if pc >= pw.limit:
                    # Bundle ran to the 32-byte boundary: next PW.
                    pw = None
                    continue

                # ----- mid-bundle: the window's straight-line prefix --
                # A one-link chain with no chained edge, run under the
                # live prediction window when the prediction cannot
                # interact with the prefix: a BTB miss, or a predicted
                # branch-end byte at/after the terminator region
                # (``resume_pc``).  Predictions inside the prefix,
                # access filters, control transfers and faults all use
                # the reference loop below — the differential suite
                # proves the two bit-identical on state, traces, cycles,
                # BTB and LBR.
                if fast and memory.access_filter is None:
                    window = window_cache.get(pc)
                    if (window is None
                            or window.generation != page_table.epoch):
                        window = (adopt_window(memory, pc)
                                  or build_window(memory, pc))
                    if window.count and (pw.pred_end is None
                                         or pw.pred_end >= window.resume_pc):
                        budget = guard - instructions
                        if (max_retired is not None
                                and max_retired - retired < budget):
                            budget = max_retired - retired
                        ran = self._run_superblock(
                            (SuperblockLink(window, None, None, None,
                                            window.resume_pc,
                                            window.resume_pc, False,
                                            False),),
                            window.generation, state, memory, trace,
                            unit_starts, pw, budget)

            if ran is not None:
                # ``ran[4]`` is whatever prediction window the reference
                # loop would have open right now: after a fall-through
                # the window stays open, and re-opening one here would
                # double-charge fetch and lookups.
                sb_insts, sb_units, fault, error, pw, _ = ran
                instructions += sb_insts
                retired += sb_units
                if fault is not None:
                    return result(StopReason.PAGE_FAULT, fault)
                if error is not None:
                    raise error
                if max_retired is not None and retired >= max_retired:
                    return result(StopReason.RETIRE_LIMIT)
                continue

            try:
                instruction, length = self._decode(state, pc)
            except PageFault as fault:
                return result(StopReason.PAGE_FAULT, fault)

            predicted_here = self._settle_prediction(pw, pc, length,
                                                     instruction)

            # ----- macro-fusion lookahead ------------------------------
            fused_next: Optional[Tuple[Instruction, int]] = None
            if (self.config.fusion_enabled and instruction.spec.fusible
                    and not predicted_here):
                try:
                    candidate = self._decode(state, pc + length)
                    if can_fuse(instruction, candidate[0]):
                        fused_next = candidate
                except (PageFault, InvalidInstruction):
                    fused_next = None

            # ----- architectural execution -----------------------------
            try:
                outcome = execute(state, instruction, pc)
            except PageFault as fault:
                return result(StopReason.PAGE_FAULT, fault)
            instructions += 1
            self.cycles += self._issue_cost + self._extra_cost.get(
                instruction.mnemonic, 0.0)
            if trace is not None:
                trace.append(pc)
            if unit_starts is not None:
                unit_starts.append(pc)
            state.rip = outcome.next_pc

            pw_ended = False
            if instruction.is_control:
                pw_ended = self._resolve_control(
                    pw, pc, length, instruction, outcome, predicted_here)
            if outcome.halt:
                retired += 1
                return result(StopReason.HALT)
            if outcome.syscall:
                retired += 1
                return result(StopReason.SYSCALL)

            # ----- execute the fused Jcc as part of this retire unit ---
            if fused_next is not None and state.rip == pc + length:
                jcc, jcc_length = fused_next
                jcc_pc = state.rip
                while pw.pred_end is not None and pw.pred_end < jcc_pc:
                    self._false_hit(pw, jcc_pc)
                if jcc_pc >= pw.limit:
                    # The jcc begins a new bundle; fusion still holds
                    # micro-architecturally (one retire unit).
                    self.cycles += self.config.fetch_cycles
                    pw = self._open_window(jcc_pc)
                jcc_predicted = self._settle_prediction(
                    pw, jcc_pc, jcc_length, jcc)
                try:
                    jcc_outcome = execute(state, jcc, jcc_pc)
                except PageFault as fault:
                    retired += 1
                    return result(StopReason.PAGE_FAULT, fault)
                instructions += 1
                self.cycles += self._issue_cost
                if trace is not None:
                    trace.append(jcc_pc)
                state.rip = jcc_outcome.next_pc
                pw_ended = self._resolve_control(
                    pw, jcc_pc, jcc_length, jcc, jcc_outcome,
                    jcc_predicted)

            retired += 1
            self.total_retired += 1
            if pw_ended:
                pw = None
            if max_retired is not None and retired >= max_retired:
                return result(StopReason.RETIRE_LIMIT)

    # ------------------------------------------------------------------
    # cached executor
    # ------------------------------------------------------------------
    def _run_superblock(self, links, code_gen: int, state: MachineState,
                        memory, trace: Optional[List[int]],
                        unit_starts: Optional[List[int]],
                        pw: Optional[_PredictionWindow] = None,
                        budget: int = 0):
        """Execute a chain of decoded windows stamped with ``code_gen``.

        The one cached executor, with two entry points:

        * **bundle start** (``pw is None``): a validated superblock's
          links, repeated once per loop pass; every link opens or
          continues prediction windows exactly as the builder recorded.
        * **mid-bundle** (``pw`` is the live prediction window): one
          link with no chained edge, whose window's straight-line
          prefix runs under ``pw``.  The prefix is clipped to
          ``budget`` (what the instruction guard and ``max_retired``
          still allow) and holds back its last instruction when that
          could macro-fuse with what follows — fusion retires the pair
          as one unit, which only the reference loop models.  Returns
          ``None`` when that leaves nothing to run.

        Otherwise returns ``(instructions, units, fault, error,
        live_pw, bailed)``.  Cycle, retire, trace, BTB and LBR effects
        are committed exactly as the reference loop would have produced
        them — the float accumulation order per item is identical, the
        LBR timestamp is the pre-penalty retire time, and every link
        that opens a prediction window counts one BTB lookup (plus a
        hit when the edge is predicted), mirroring the per-window
        ``_open_window`` the dispatch replaced; fall-through links that
        continue inside an open window charge nothing, exactly like the
        reference loop.  On a mispredicted edge the committed partial
        state is handed to :meth:`_resolve_control`, which performs the
        squash / target-update / allocation bookkeeping; the chain dies
        at its next dispatch if re-peeking one of its recorded lookups
        then gives a different answer.  ``live_pw`` is the prediction
        window the reference loop would have open on return: ``pw``
        itself for a mid-bundle entry; otherwise set on
        self-modification bails and whenever execution stops inside a
        fall-through window (including a completed pass whose last
        edge fell through), ``None`` after taken edges.
        """
        issue_cost = self._issue_cost
        fetch_cycles = self.config.fetch_cycles
        stats = self.btb.stats
        lbr = self.lbr
        touch = self.btb.touch
        page_table = memory.page_table      # its epoch: the code generation
        page_check = page_table.check
        cycles_now = self.cycles
        insts = 0
        units = 0
        first_link = True
        for link in links:
            window = link.window
            pc = window.entry_pc
            k = count = window.count
            if first_link:
                first_link = False
                if pw is not None:
                    if self.config.fusion_enabled and window.fuse_holdback:
                        k -= 1
                    if k > budget:
                        k = budget
                    if k <= 0:
                        return None
            elif page_table.epoch != code_gen:
                # A previous link's terminator wrote code pages
                # (e.g. a call pushing onto a code-holding page):
                # later cached links may be stale, so hand back to
                # the reference loop, which re-decodes.
                self.cycles = cycles_now
                self.total_retired += units
                state.rip = pc
                live = None
                if not link.opens_pw:
                    # Mid-block fall-through: the window is open.
                    live = _PredictionWindow(entry=None, pred_end=None,
                                             limit=window.limit)
                return insts, units, None, None, live, True
            if link.opens_pw:
                # Same fetch charge and lookup count as
                # ``_open_window``; a hit only when the edge is
                # predicted (fall-through openers looked up and
                # missed).
                cycles_now += fetch_cycles
                stats.lookups += 1
                if link.entry is not None and not link.mid_fetch:
                    # (A mid-fetch link's ``entry`` belongs to the
                    # successor block's window; this opener missed.)
                    stats.hits += 1
            try:
                # One execute check covers the link: a 32-byte block
                # never crosses a page, so this equals the warm
                # reference loop's per-fetch first-byte check.
                page_check(pc, "execute")
            except PageFault as fault:
                self.cycles = cycles_now
                self.total_retired += units
                state.rip = pc
                return insts, units, fault, None, None, True
            pcs = window.pcs
            thunks = window.thunks
            extras = window.extras
            fault = None
            error = None
            i = 0
            try:
                if window.has_store:
                    while i < k:
                        thunks[i](state)
                        cycles_now += issue_cost + extras[i]
                        i += 1
                        if page_table.epoch != code_gen:
                            break       # self-modifying code
                else:
                    while i < k:
                        thunks[i](state)
                        cycles_now += issue_cost + extras[i]
                        i += 1
            except PageFault as page_fault:
                fault = page_fault
            except BaseException as exc:
                error = exc
            insts += i
            units += i
            if trace is not None:
                trace.extend(pcs[:i])
                unit_starts.extend(pcs[:i])
            if fault is not None or error is not None:
                # The faulting item is not counted, charged or traced,
                # and RIP points at it — as in the reference loop.
                self.cycles = cycles_now
                self.total_retired += units
                state.rip = pcs[i]
                return insts, units, fault, error, None, True
            if page_table.epoch != code_gen:
                # A store in this prefix hit code pages; the cached
                # terminator may be stale.  Resume with the prediction
                # window still open.
                self.cycles = cycles_now
                self.total_retired += units
                state.rip = pcs[i] if i < count else window.resume_pc
                # The window open over the prefix: predictionless for
                # mid-fetch links (their ``entry`` describes the
                # successor block's window, not this one).
                if pw is not None:
                    live = pw
                elif link.mid_fetch:
                    live = _PredictionWindow(entry=None, pred_end=None,
                                             limit=window.limit)
                else:
                    live = _PredictionWindow(entry=link.entry,
                                             pred_end=link.pred_end,
                                             limit=window.limit)
                return insts, units, None, None, live, True
            # ----- the link's terminating control transfer -----------
            term = link.term
            if term is None:
                # Boundary link, or a (possibly clipped) mid-bundle
                # prefix: nothing to terminate.  At the 32-byte limit
                # the reference loop closes the exhausted window for
                # free; the next link re-opens one (fetch charge +
                # lookup).
                state.rip = pcs[i] if i < count else window.resume_pc
                continue
            term_pc = link.term_pc
            fused = link.fused
            if link.mid_fetch:
                # Boundary-fused link: the Jcc leads the next 32-byte
                # block.  The slow path's lookahead decode checks its
                # page (fusion silently fails on a fault — the ALU
                # retires standalone and the window closes at the
                # limit), then charges the fetch and opens the
                # successor's prediction window mid-retire-unit.
                try:
                    page_check(term_pc, "execute")
                except PageFault:
                    self.cycles = cycles_now
                    self.total_retired += units
                    state.rip = term_pc
                    return insts, units, None, None, None, True
                cycles_now += fetch_cycles
                stats.lookups += 1
                if link.entry is not None:
                    stats.hits += 1
            try:
                outcome = execute(state, term, term_pc)
            except PageFault as page_fault:
                self.cycles = cycles_now
                if fused:
                    # Mirrors the slow path's fused-Jcc fault handling
                    # (dead in practice: a conditional jump cannot
                    # fault): the pair's unit retires, but is not added
                    # to ``total_retired`` there either.
                    self.total_retired += units - 1
                    state.rip = term_pc
                    return insts, units, page_fault, None, None, True
                self.total_retired += units
                state.rip = term_pc
                return insts, units, page_fault, None, None, True
            except BaseException as exc:
                self.cycles = cycles_now
                if fused:
                    units -= 1  # the fused ALU's unit never retired
                self.total_retired += units
                state.rip = term_pc
                return insts, units, None, exc, None, True
            insts += 1
            if fused:
                cycles_now += issue_cost
            else:
                cycles_now += issue_cost + link.term_extra
                units += 1
            if trace is not None:
                trace.append(term_pc)
                if not fused:
                    unit_starts.append(term_pc)
            state.rip = outcome.next_pc
            if link.entry is not None:
                if outcome.taken and outcome.next_pc == link.target:
                    # Correctly predicted edge: LRU refresh + LBR
                    # record at the pre-penalty retire time (same
                    # order as ``_resolve_control``'s happy path).
                    touch(link.entry)
                    lbr.record(term_pc, outcome.next_pc, cycles_now,
                               False)
                    continue
            elif not outcome.taken:
                # Fall-through edge held: the slow path's not-taken
                # unpredicted conditional is a pure non-event (no LBR,
                # no touch, window stays open).
                continue
            # Mispredicted (wrong target, not taken, or an unpredicted
            # edge taken): commit, then let the reference machinery
            # squash/update/allocate.  When that bookkeeping changes a
            # lookup the chain was built from, the next dispatch
            # rebuilds it.  (A fused pair's unit was
            # already counted with its ALU in the prefix loop.)
            self.cycles = cycles_now
            self.total_retired += units
            live = _PredictionWindow(entry=link.entry,
                                     pred_end=link.pred_end,
                                     limit=link.term_limit)
            self._resolve_control(live, term_pc, link.term_len, term,
                                  outcome, link.entry is not None)
            return insts, units, None, None, None, True
        self.cycles = cycles_now
        self.total_retired += units
        live = pw
        last = links[-1]
        if live is None and last.entry is None:
            # The pass ended on a fall-through edge: the reference
            # loop's prediction window is still open (the outer loop
            # closes it for free if the successor crossed the block
            # boundary).
            live = _PredictionWindow(entry=None, pred_end=None,
                                     limit=last.term_limit)
        return insts, units, None, None, live, False

    # ------------------------------------------------------------------
    # prediction machinery
    # ------------------------------------------------------------------
    def _open_window(self, pc: int) -> _PredictionWindow:
        entry = self.btb.lookup(pc)
        pred_end = (self.btb.predicted_end_byte(pc, entry)
                    if entry is not None else None)
        return _PredictionWindow(
            entry=entry, pred_end=pred_end, limit=block_end(pc))

    def _false_hit(self, pw: _PredictionWindow, pc: int,
                   charge: bool = True) -> None:
        """Squash + deallocate + re-predict from ``pc`` (Takeaway 1)."""
        assert pw.entry is not None
        if charge:
            self.cycles += self.config.squash_penalty
        if self._tel is not None:
            entry = pw.entry
            # This event *is* the Takeaway-1 deallocation record: pc is
            # where decode had reached, (tag, set, off) the dying entry.
            self._tel.emit("cpu.core.false_hit", {
                "pc": pc, "tag": entry.tag, "set": entry.set_index,
                "off": entry.offset, "charged": charge})
            if charge:
                self._tel.count("cpu.core.squashes")
        self.btb.deallocate(pw.entry)
        pw.entry = self.btb.lookup(pc)
        pw.pred_end = (self.btb.predicted_end_byte(pc, pw.entry)
                       if pw.entry is not None else None)

    def _settle_prediction(self, pw: _PredictionWindow, pc: int,
                           length: int, instruction: Instruction,
                           charge: bool = True) -> bool:
        """Reconcile the BTB prediction with the decoded instruction at
        ``[pc, pc+length)``.

        Returns True when the prediction legitimately points at this
        instruction (a control transfer whose anchor byte — last byte
        on Intel-family designs, first byte otherwise — is the
        predicted end byte).  Any prediction landing *inside* the
        instruction otherwise is a false hit: deallocate and re-check
        (several aliasing entries can burn down in sequence).
        """
        aligned = (pc + length - 1) if self._last_byte_index else pc
        while pw.pred_end is not None and pc <= pw.pred_end < pc + length:
            if instruction.is_control and pw.pred_end == aligned:
                return True
            self._false_hit(pw, pc, charge)
        return False

    def _resolve_control(self, pw: _PredictionWindow, pc: int,
                         length: int, instruction: Instruction,
                         outcome: Outcome, predicted_here: bool) -> bool:
        """Handle prediction bookkeeping for a control transfer.

        Returns True when the PW ends (taken transfer or redirect).
        """
        entry = pw.entry if predicted_here else None
        if outcome.taken:
            mispredicted = True
            if entry is not None and entry.target == outcome.next_pc:
                mispredicted = False
                self.btb.touch(entry)
            # LBR logs with the *pre-penalty* retire time: the penalty
            # delays everything after the branch, not the branch itself.
            self.lbr.record(pc, outcome.next_pc, self.cycles, mispredicted)
            if mispredicted:
                self.cycles += self.config.squash_penalty
                if self._tel is not None:
                    self._tel.count("cpu.core.squashes")
                if entry is not None:
                    # Right location, wrong target: fix the entry.
                    self.btb.update_target(entry, outcome.next_pc,
                                           instruction.kind)
                else:
                    # Unpredicted taken transfer: allocate, indexed by
                    # the design's anchor byte — the branch's last byte
                    # on Intel (§2.1).  Note: an entry predicting a
                    # *later* position in the window is left alone —
                    # Figure 4's data shows jmp L2's execution does not
                    # disturb jmp L1's entry.
                    self.btb.allocate(
                        self.btb.anchor_pc(pc + length - 1, length),
                        outcome.next_pc, instruction.kind)
            return True
        # Not-taken conditional.
        if entry is not None:
            # BTB said taken, execution fell through: squash; the entry
            # survives (direction mispredict, not a false hit).
            self.cycles += self.config.squash_penalty
            if self._tel is not None:
                self._tel.count("cpu.core.squashes")
            return True  # redirect restarts fetch at the fall-through
        return False

    # ------------------------------------------------------------------
    # fetch-ahead drain past a single-step stop (§6.3)
    # ------------------------------------------------------------------
    def _drain_fetch_ahead(self, state: MachineState,
                           pw: Optional[_PredictionWindow]) -> None:
        """Finish fetching+decoding the in-flight prediction window(s).

        Runs in decode-only mode: no architectural state changes, no
        cycle charges, but Takeaway-1 deallocations fire exactly as
        they do on hardware (the BTB entry dies "as soon as
        instruction decoding finishes and even if the instruction
        causing the false hit doesn't retire", §1).  Follows predicted
        redirects and decode-resolvable direct jumps; stops at
        conditional/indirect transfers it cannot resolve, at NX pages
        (speculative fetches do not fault architecturally), and after
        ``config.drain_windows`` windows.
        """
        budget = self.config.drain_windows
        if budget <= 0 or pw is None:
            # The unit ended with a taken transfer (or redirect): the
            # squash drained the pipeline and the pending interrupt
            # preempts the refetch, so there is nothing in flight.
            return
        cur = state.rip
        icache = state.memory.icache
        check_fetch = state.memory.check_fetch
        windows_used = 1
        guard = 0
        while guard < 64 * budget:
            guard += 1
            if pw is None:
                if windows_used >= budget:
                    return
                pw = self._open_window(cur)
                windows_used += 1
            while pw.pred_end is not None and pw.pred_end < cur:
                self._false_hit(pw, cur, charge=False)
            if cur >= pw.limit:
                pw = None
                continue
            cached = icache.get(cur)
            if cached is not None and cached[0] is None:
                # A cached junk byte (the zero padding after a probe
                # snippet's ``hlt``): the first-byte fetch check the
                # miss path made, then the junk rule below, without
                # building and catching an ``InvalidInstruction``.
                try:
                    check_fetch(cur, 1)
                except _FETCH_REFUSALS:
                    return
                if pw.pred_end == cur:
                    self._false_hit(pw, cur, charge=False)
                cur += 1
                continue
            try:
                instruction, length = self._decode(state, cur)
            except _FETCH_REFUSALS:
                return          # NX page or filter: the fetch stalls
            except InvalidInstruction:
                # Junk bytes still flow through the decoders (real
                # ISAs decode almost anything); a prediction claiming
                # a branch ends inside junk is a false hit like any
                # other non-control-transfer byte.
                if pw.pred_end == cur:
                    self._false_hit(pw, cur, charge=False)
                cur += 1
                continue
            predicted_here = self._settle_prediction(
                pw, cur, length, instruction, charge=False)
            if instruction.is_control:
                if predicted_here:
                    cur = pw.entry.target      # follow the prediction
                    pw = None
                    continue
                if instruction.kind in (Kind.DIRECT_JUMP, Kind.CALL):
                    # Decode-resolvable target: the branch-address
                    # calculator redirects fetch at decode and the BTB
                    # entry is installed right away — unretired direct
                    # transfers therefore leave allocations behind
                    # (the effect that makes Fig. 5 cases 1/2 visible
                    # to a single-stepping attacker).  Any entry
                    # predicting a later position is left alone
                    # (Figure 4).
                    target = cur + length + instruction.operands[0]
                    self.btb.allocate(
                        self.btb.anchor_pc(cur + length - 1, length),
                        target, instruction.kind)
                    cur = target
                    pw = None
                    continue
                if instruction.kind is Kind.COND_JUMP:
                    # BTB miss: static prediction is not-taken, the
                    # front end keeps fetching the fall-through path
                    cur += length
                    continue
                return   # ret/indirect: decode cannot resolve; the
                         # speculative execute pass handles these
            cur += length

    # ------------------------------------------------------------------
    # speculative look-ahead past a single-step stop (§6.3)
    # ------------------------------------------------------------------
    def _speculative_lookahead(self, state: MachineState) -> None:
        """Let the front end run ``spec_lookahead`` more instructions,
        updating the BTB but never committing architectural state.

        Each instruction is fetched, predicted and executed one at a
        time on a :class:`_SpecMemory` overlay.  A refused fetch, junk,
        ``lfence``, ``hlt``, ``syscall``, a trap, a mispredict or a
        squash ends speculation; only a correctly predicted taken
        branch lets it run on past a control transfer.
        """
        left = self.config.spec_lookahead
        if left <= 0:
            return
        spec_state = MachineState(memory=_SpecMemory(state.memory),
                                  rip=state.rip, regs=state.regs.copy())
        pw: Optional[_PredictionWindow] = None
        while left > 0:
            pc = spec_state.rip
            if pw is None:
                pw = self._open_window(pc)
            while pw.pred_end is not None and pw.pred_end < pc:
                self._false_hit(pw, pc, charge=False)
            if pc >= pw.limit:
                pw = self._open_window(pc)
            left -= 1
            try:
                instruction, length = self._decode(spec_state, pc)
            except (InvalidInstruction, *_FETCH_REFUSALS):
                return  # junk, NX page or filter: the fetch stalls
            if instruction.mnemonic == "lfence":
                return  # serializing: speculation drains
            predicted_here = self._settle_prediction(
                pw, pc, length, instruction, charge=False)
            try:
                outcome = execute(spec_state, instruction, pc)
            except ReproError:
                return  # a spec-path trap just drains the pipeline
            if outcome.halt or outcome.syscall:
                return
            if instruction.is_control and outcome.taken:
                entry = pw.entry if predicted_here else None
                if entry is not None and entry.target != outcome.next_pc:
                    # Speculative target verification: the entry is
                    # corrected before retirement (§6.3) — and the
                    # resulting squash plus the pending interrupt end
                    # speculation here.
                    self.btb.update_target(entry, outcome.next_pc,
                                           instruction.kind)
                    return
                if entry is None:
                    self.btb.allocate(
                        self.btb.anchor_pc(pc + length - 1, length),
                        outcome.next_pc, instruction.kind)
                    return   # mispredicted: squash ends speculation
                pw = None    # correctly predicted: keep speculating
            elif instruction.is_control and pw.entry is not None \
                    and predicted_here:
                return       # predicted taken, fell through: squash
            spec_state.rip = outcome.next_pc
