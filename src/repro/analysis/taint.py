"""Secret-taint dataflow over recovered CFGs.

A forward, flow-sensitive, interprocedural (summary-based) taint
analysis seeded from a victim's *declared secret inputs* — the data
arrays an attacker ultimately wants.  It propagates taint through the
per-mnemonic semantics of the invented ISA and flags the exact leakage
surface the NightVision attacks exploit:

* **secret-dependent branches** — a conditional jump whose flags were
  produced from tainted data (NV-Core / branch shadowing's target);
* **secret-indexed memory accesses** — a load or store whose *address*
  is tainted (the classic cache-channel surface, reported for
  completeness).

The abstract value lattice tracks just enough structure to follow the
compiler's addressing idioms precisely:

``const v``  exact 64-bit constant
``frame o``  stack slot pointer: entry-``rsp``-relative offset ``o``
``ptr R``    pointer into one of the named data regions in ``R``
``top``      anything else

Every value additionally carries one taint bit.  Explicit flows only:
a branch *on* a secret taints neither arm's assignments (the classic
implicit-flow blind spot, called out in DESIGN.md §10) — which is fine
here, because the implicit flow is precisely what the lint is meant to
*report* at its source, the branch itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..isa.instructions import Kind
from ..isa.registers import MASK64, register_number
from .cfg import (CFG, nodes_on_cycles, postdominator_sets,
                  reachable_from)

_RSP = register_number("rsp")
_RAX = register_number("rax")
_RDX = register_number("rdx")
_ARG_REGS = tuple(register_number(r)
                  for r in ("rdi", "rsi", "rdx", "rcx", "r8", "r9"))
#: clobbered across a call under the compiler's convention
_CALLER_SAVED = tuple(register_number(r) for r in (
    "rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"))

_KIND_TOP = "top"
_KIND_CONST = "const"
_KIND_FRAME = "frame"
_KIND_PTR = "ptr"


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: a shape plus a taint bit."""

    kind: str = _KIND_TOP
    value: int = 0                       # const value / frame offset
    regions: FrozenSet[str] = frozenset()
    taint: bool = False

    def with_taint(self, taint: bool) -> "AbsVal":
        if taint == self.taint:
            return self
        return replace(self, taint=taint)


TOP = AbsVal()
TOP_TAINTED = AbsVal(taint=True)


def const(value: int, taint: bool = False) -> AbsVal:
    return AbsVal(_KIND_CONST, value & MASK64, frozenset(), taint)


def frame(offset: int, taint: bool = False) -> AbsVal:
    return AbsVal(_KIND_FRAME, offset, frozenset(), taint)


def ptr(regions: Iterable[str], taint: bool = False) -> AbsVal:
    return AbsVal(_KIND_PTR, 0, frozenset(regions), taint)


@dataclass(frozen=True)
class Region:
    """A named span of victim data memory (one array)."""

    name: str
    base: int
    size: int                            # bytes

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size


@dataclass(frozen=True)
class LeakFinding:
    """One statically detected leak site."""

    kind: str                            # "secret-branch" | "secret-load"
    #                                    # | "secret-store"
    pc: int
    function: str
    mnemonic: str
    detail: str = ""

    def key(self) -> Tuple[str, str, int]:
        return (self.kind, self.function, self.pc)


# ----------------------------------------------------------------------
# abstract machine state
# ----------------------------------------------------------------------
class _State:
    """Registers + flags-taint + frame-relative stack cells."""

    __slots__ = ("regs", "flags_taint", "cells")

    def __init__(self, regs: Tuple[AbsVal, ...], flags_taint: bool,
                 cells: Dict[int, AbsVal]):
        self.regs = list(regs)
        self.flags_taint = flags_taint
        self.cells = dict(cells)

    @classmethod
    def at_entry(cls, args: Tuple[AbsVal, ...]) -> "_State":
        regs = [TOP] * 16
        for register, av in zip(_ARG_REGS, args):
            regs[register] = av
        regs[_RSP] = frame(0)
        # cells[0] holds the (untainted, opaque) return address
        return cls(tuple(regs), False, {0: TOP})

    def copy(self) -> "_State":
        return _State(tuple(self.regs), self.flags_taint, self.cells)

    def snapshot(self):
        return (tuple(self.regs), self.flags_taint,
                tuple(sorted(self.cells.items())))


def join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    taint = a.taint or b.taint
    if a.kind == b.kind:
        if a.kind in (_KIND_CONST, _KIND_FRAME) and a.value == b.value:
            return a.with_taint(taint)
        if a.kind == _KIND_PTR:
            return ptr(a.regions | b.regions, taint)
        if a.kind == _KIND_TOP:
            return TOP_TAINTED if taint else TOP
    # const/ptr mixes stay pointers when both sides name regions
    regions = _regions_of(a) | _regions_of(b)
    if regions and all(v.kind in (_KIND_CONST, _KIND_PTR) for v in (a, b)):
        return ptr(regions, taint)
    return TOP_TAINTED if taint else TOP


def _regions_of(av: AbsVal) -> FrozenSet[str]:
    return av.regions


def _join_states(a: _State, b: _State) -> _State:
    regs = tuple(join_vals(x, y) for x, y in zip(a.regs, b.regs))
    cells: Dict[int, AbsVal] = {}
    for off in set(a.cells) & set(b.cells):
        cells[off] = join_vals(a.cells[off], b.cells[off])
    return _State(regs, a.flags_taint or b.flags_taint, cells)


# ----------------------------------------------------------------------
# the analysis
# ----------------------------------------------------------------------
@dataclass
class _FnSummary:
    args: Tuple[AbsVal, ...] = tuple([TOP] * 6)
    ret: AbsVal = TOP
    seeded: bool = False
    #: block starts whose terminator branches on secret-derived flags.
    #: A return *control-dependent* on one of these (post-dominator
    #: join, see ``_control_dependent``) carries implicit taint even
    #: when each arm returns a constant — the ``bn_cmp`` return-code
    #: idiom the GCD secret branch consumes.  Returns the secret
    #: branch cannot steer stay untainted, unlike the old
    #: whole-function rule.
    secret_branch_blocks: Set[int] = field(default_factory=set)


@dataclass
class TaintReport:
    """Result of :func:`analyze_taint`."""

    findings: List[LeakFinding]
    #: region name -> was it (transitively) tainted?
    region_taint: Dict[str, bool]
    #: analysis soundness warnings (unknown-address accesses, joins
    #: that lost stack-pointer shape, ...)
    warnings: List[str] = field(default_factory=list)

    def flagged_functions(self) -> FrozenSet[str]:
        return frozenset(f.function for f in self.findings)


class _Analyzer:
    def __init__(self, cfg: CFG, regions: List[Region],
                 secret_regions: Set[str]):
        self.cfg = cfg
        self.regions = list(regions)
        self.region_taint: Dict[str, bool] = {
            r.name: r.name in secret_regions for r in self.regions}
        self.findings: Dict[Tuple[str, str, int], LeakFinding] = {}
        self.warnings: List[str] = []
        self.summaries: Dict[int, _FnSummary] = {}
        self._changed = False
        self._graphs: Dict[int, Dict[int, Set[int]]] = {}
        self._reach: Dict[Tuple[int, int], Set[int]] = {}
        self._pdom: Dict[int, Dict[int, Set[int]]] = {}
        self._cyclic: Dict[int, Set[int]] = {}
        self._rax_defs: Dict[int, Set[int]] = {}
        self._clean_reach: Dict[Tuple[int, int], Set[int]] = {}

    # -- region helpers -------------------------------------------------
    def _region_at(self, address: int) -> Optional[Region]:
        for region in self.regions:
            if region.contains(address):
                return region
        return None

    def _classify_const(self, av: AbsVal) -> AbsVal:
        """Promote a constant that points into a data region."""
        if av.kind == _KIND_CONST:
            region = self._region_at(av.value)
            if region is not None:
                return ptr({region.name}, av.taint)
        return av

    def _regions_taint(self, names: FrozenSet[str]) -> bool:
        return any(self.region_taint.get(name, False) for name in names)

    def _taint_regions(self, names: FrozenSet[str]) -> None:
        for name in names:
            if not self.region_taint.get(name, False):
                if name in self.region_taint:
                    self.region_taint[name] = True
                    self._changed = True

    def _taint_all_regions(self, why: str) -> None:
        self._warn(why)
        for name, tainted in self.region_taint.items():
            if not tainted:
                self.region_taint[name] = True
                self._changed = True

    def _warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def _record(self, kind: str, pc: int, mnemonic: str,
                detail: str) -> None:
        function = self.cfg.function_of(pc) or "?"
        finding = LeakFinding(kind, pc, function, mnemonic, detail)
        if finding.key() not in self.findings:
            self.findings[finding.key()] = finding
            self._changed = True

    # -- driver ---------------------------------------------------------
    def run(self, entry: int) -> None:
        self.summaries[entry] = _FnSummary(seeded=True)
        for round_index in range(64):
            self._changed = False
            for fn_entry in sorted(self.summaries):
                if self.summaries[fn_entry].seeded:
                    self._analyze_function(fn_entry)
            if not self._changed:
                return
        self._warn("taint fixpoint did not converge within 64 rounds")

    def _function_blocks(self, fn_entry: int) -> List[int]:
        return sorted(
            start for start, block in self.cfg.blocks.items()
            if self.cfg.function_entry_of.get(start) == fn_entry)

    def _block_graph(self, fn_entry: int) -> Dict[int, Set[int]]:
        """Intra-function block successor graph (calls fall through to
        their return site, rets exit, unresolved indirects
        conservatively reach every block of the function)."""
        graph = self._graphs.get(fn_entry)
        if graph is not None:
            return graph
        members = set(self._function_blocks(fn_entry))
        graph = {}
        for start in sorted(members):
            block = self.cfg.blocks[start]
            successors: Set[int] = {block.end}
            for pc in block.instructions:
                instruction = self.cfg.instrs[pc]
                kind = instruction.kind
                if kind is Kind.SEQUENTIAL or kind is Kind.SYSCALL:
                    continue
                if kind is Kind.CALL or kind is Kind.INDIRECT_CALL:
                    successors = {pc + instruction.length}
                elif kind is Kind.RET:
                    successors = set()
                else:
                    raw = self.cfg.successors(pc)
                    successors = (set(raw) if raw is not None
                                  else set(members))
                break
            graph[start] = successors & members
        self._graphs[fn_entry] = graph
        return graph

    def _control_dependent(self, fn_entry: int, ret_block: int,
                           summary: _FnSummary) -> bool:
        """Is the return at ``ret_block`` control-dependent on one of
        the function's secret branches (post-dominator join)?

        A secret branch ``B`` steers this return when the return is
        reachable from ``B`` and either ``B`` sits on a cycle (the
        branch decides *how many times* the path loops before
        returning — the ``bn_is_zero`` idiom) or the return does not
        post-dominate ``B`` (some direction of ``B`` bypasses it —
        the ``bn_cmp`` per-arm-return idiom).  Because the DSL
        compiler funnels every ``return`` through one shared epilogue
        (each arm is a guarded ``movi rax`` plus a jump), a third
        disjunct catches the arm-return idiom the epilogue hides: a
        block in the branch's *influence region* (reachable from the
        branch but not post-dominating it) defines ``rax`` and that
        definition reaches this return along a path with no
        intervening redefinition.  A return that post-dominates an
        acyclic secret branch and receives no such definition executes
        either way with a direction-independent value, so it stays
        untainted — unlike under the old rule, which tainted every
        return of any function containing a secret branch.  Residual
        blind spot: a constant staged through a *memory slot* under
        secret control (``r = 1`` in an arm, ``return r`` after the
        join) is still missed at this layer; the symbolic certifier
        (DESIGN.md §15) closes it exactly."""
        if not summary.secret_branch_blocks:
            return False
        graph, pdom, cyclic = self._dominance(fn_entry)
        for branch_block in sorted(summary.secret_branch_blocks):
            reach = self._branch_reach(fn_entry, branch_block)
            if ret_block not in reach:
                continue
            if branch_block in cyclic:
                return True
            branch_pdom = pdom.get(branch_block, set())
            if ret_block not in branch_pdom:
                return True
            influence = reach - branch_pdom
            if influence:
                defs = self._rax_def_blocks(fn_entry)
                clean = self._clean_rax_reach(fn_entry, ret_block)
                if influence & defs & clean:
                    return True
        return False

    def _dominance(self, fn_entry: int):
        graph = self._block_graph(fn_entry)
        pdom = self._pdom.get(fn_entry)
        cyclic = self._cyclic.get(fn_entry)
        if pdom is None or cyclic is None:
            pdom = postdominator_sets(graph)
            cyclic = nodes_on_cycles(graph)
            self._pdom[fn_entry] = pdom
            self._cyclic[fn_entry] = cyclic
        return graph, pdom, cyclic

    def _branch_reach(self, fn_entry: int, branch_block: int) -> Set[int]:
        key = (fn_entry, branch_block)
        reach = self._reach.get(key)
        if reach is None:
            graph = self._block_graph(fn_entry)
            reach = reachable_from(graph, graph.get(branch_block, ()))
            self._reach[key] = reach
        return reach

    def _rax_def_blocks(self, fn_entry: int) -> Set[int]:
        """Blocks containing an instruction that (re)defines rax —
        call return values included, flag/memory writers excluded."""
        defs = self._rax_defs.get(fn_entry)
        if defs is not None:
            return defs
        defs = set()
        for start in self._function_blocks(fn_entry):
            block = self.cfg.blocks[start]
            for pc in block.instructions:
                if self._instr_defines_rax(self.cfg.instrs[pc]):
                    defs.add(start)
                    break
        self._rax_defs[fn_entry] = defs
        return defs

    @staticmethod
    def _instr_defines_rax(instruction) -> bool:
        if instruction.kind in (Kind.CALL, Kind.INDIRECT_CALL):
            return True
        if instruction.kind not in (Kind.SEQUENTIAL, Kind.SYSCALL):
            return False
        m = instruction.mnemonic
        if m in ("syscall", "mul", "div"):
            return True                  # implicit rax destination
        if m in ("nop", "lfence", "push", "store", "storew", "cmp",
                 "test", "cmpi", "cmpi8", "testi", "cmc"):
            return False                 # flags/memory only
        ops = instruction.operands
        if m == "xchg":
            return _RAX in ops[:2]
        # everything else (mov/movi/load/pop/alu/shift/set*/cmov*
        # and the conservative unknown-mnemonic fallback) writes ops[0]
        return bool(ops) and ops[0] == _RAX

    def _clean_rax_reach(self, fn_entry: int, ret_block: int) -> Set[int]:
        """Blocks with a path to ``ret_block`` whose *intermediate*
        blocks never redefine rax: an rax definition made in such a
        block survives to the return (the block's own later
        redefinition — e.g. the shared epilogue's — does not apply,
        since the definition we track is the block's last)."""
        key = (fn_entry, ret_block)
        clean = self._clean_reach.get(key)
        if clean is not None:
            return clean
        graph = self._block_graph(fn_entry)
        defs = self._rax_def_blocks(fn_entry)
        preds: Dict[int, Set[int]] = {start: set() for start in graph}
        for start, succs in graph.items():
            for succ in succs:
                preds.setdefault(succ, set()).add(start)
        clean = set(preds.get(ret_block, ()))
        worklist = [n for n in clean if n not in defs]
        while worklist:
            node = worklist.pop()
            for pred in preds.get(node, ()):
                if pred not in clean:
                    clean.add(pred)
                    if pred not in defs:
                        worklist.append(pred)
        self._clean_reach[key] = clean
        return clean

    def _analyze_function(self, fn_entry: int) -> None:
        summary = self.summaries[fn_entry]
        in_states: Dict[int, _State] = {
            fn_entry: _State.at_entry(summary.args)}
        worklist: List[int] = [fn_entry]
        seen: Dict[int, object] = {}
        guard = 0
        while worklist:
            guard += 1
            if guard > 10_000:           # pragma: no cover - safety net
                self._warn(f"block worklist blow-up in fn {fn_entry:#x}")
                break
            start = worklist.pop(0)
            state = in_states[start].copy()
            snap = state.snapshot()
            if seen.get(start) == snap:
                continue
            seen[start] = snap
            block = self.cfg.blocks.get(start)
            if block is None:
                continue
            successors = self._transfer_block(fn_entry, block, state)
            for succ_pc, succ_state in successors:
                if succ_pc in in_states:
                    in_states[succ_pc] = _join_states(
                        in_states[succ_pc], succ_state)
                else:
                    in_states[succ_pc] = succ_state
                if succ_pc not in worklist:
                    worklist.append(succ_pc)

    # -- per-block transfer --------------------------------------------
    def _transfer_block(self, fn_entry: int, block,
                        state: _State) -> List[Tuple[int, _State]]:
        out: List[Tuple[int, _State]] = []
        for pc in block.instructions:
            instruction = self.cfg.instrs[pc]
            kind = instruction.kind
            if kind is Kind.SEQUENTIAL or kind is Kind.SYSCALL:
                self._transfer_instr(state, instruction, pc)
                continue
            # control transfer: terminates the block
            if kind is Kind.COND_JUMP:
                if state.flags_taint:
                    self._record("secret-branch", pc,
                                 instruction.mnemonic,
                                 "flags derived from secret data")
                    summary = self.summaries[fn_entry]
                    if block.start not in summary.secret_branch_blocks:
                        summary.secret_branch_blocks.add(block.start)
                        self._changed = True
            elif kind is Kind.CALL:
                target = pc + instruction.length + instruction.operands[0]
                self._transfer_call(state, target)
                # intra-procedurally, execution continues at the return
                # site with the post-call state (callee effects travel
                # through the summary, not through CFG edges)
                self._emit(out, fn_entry, pc + instruction.length, state)
                return out
            elif kind is Kind.RET:
                summary = self.summaries[fn_entry]
                ret_av = state.regs[_RAX]
                if self._control_dependent(fn_entry, block.start,
                                           summary):
                    ret_av = ret_av.with_taint(True)
                joined = join_vals(summary.ret, ret_av)
                if joined != summary.ret:
                    summary.ret = joined
                    self._changed = True
                return out
            elif kind is Kind.INDIRECT_CALL:
                self._transfer_unknown_call(state)
                self._emit(out, fn_entry, pc + instruction.length, state)
                return out
            # COND_JUMP / DIRECT_JUMP / INDIRECT_JUMP / HALT: follow
            # the in-function static successors
            succ = self.cfg.successors(pc)
            if succ:
                for dst in sorted(succ):
                    self._emit(out, fn_entry, dst, state)
            return out
        # block fell through without a terminator
        self._emit(out, fn_entry, block.end, state)
        return out

    def _emit(self, out: List[Tuple[int, _State]], fn_entry: int,
              dst: int, state: _State) -> None:
        """Queue ``dst`` if it is a block of the same function."""
        if (dst in self.cfg.blocks
                and self.cfg.function_entry_of.get(dst) == fn_entry):
            out.append((dst, state.copy()))

    def _transfer_call(self, state: _State, target: int) -> None:
        args = tuple(self._classify_const(state.regs[r])
                     for r in _ARG_REGS)
        summary = self.summaries.setdefault(target, _FnSummary())
        if not summary.seeded:
            # first observed call site *sets* the argument shapes; a
            # join with the TOP default would discard them forever
            summary.args = args
            summary.seeded = True
            self._changed = True
        else:
            joined = tuple(join_vals(a, b)
                           for a, b in zip(summary.args, args))
            if joined != summary.args:
                summary.args = joined
                self._changed = True
        self._after_call(state, summary.ret)

    def _transfer_unknown_call(self, state: _State) -> None:
        tainted = any(self.region_taint.values())
        self._after_call(state, TOP_TAINTED if tainted else TOP)

    def _after_call(self, state: _State, ret_av: AbsVal) -> None:
        for register in _CALLER_SAVED:
            state.regs[register] = TOP
        state.regs[_RAX] = ret_av
        state.flags_taint = False
        sp = state.regs[_RSP]
        if sp.kind == _KIND_FRAME:
            # arguments/temps at or below the callee frame are dead
            state.cells = {off: av for off, av in state.cells.items()
                           if off >= sp.value}

    # -- per-instruction transfer ---------------------------------------
    def _transfer_instr(self, state: _State, instruction, pc: int) -> None:
        m = instruction.mnemonic
        ops = instruction.operands
        regs = state.regs

        if m == "nop" or m == "lfence":
            return
        if m == "syscall":
            regs[_RAX] = TOP
            return
        if m in ("mov",):
            regs[ops[0]] = regs[ops[1]]
            return
        if m in ("movi", "movabs"):
            regs[ops[0]] = self._classify_const(const(ops[1]))
            return
        if m == "xchg":
            regs[ops[0]], regs[ops[1]] = regs[ops[1]], regs[ops[0]]
            return
        if m == "lea":
            regs[ops[0]] = self._address_of(regs[ops[1]], ops[2])
            return
        if m == "push":
            self._push(state, regs[ops[0]], pc)
            return
        if m == "pop":
            regs[ops[0]] = self._pop(state, pc)
            return
        if m in ("load", "loadw"):
            regs[ops[0]] = self._load(state, regs[ops[1]], ops[2], pc, m)
            return
        if m in ("store", "storew"):
            self._store(state, regs[ops[0]], ops[2], regs[ops[1]], pc, m)
            return
        if m.startswith("set"):
            regs[ops[0]] = AbsVal(_KIND_TOP, taint=state.flags_taint)
            return
        if m.startswith("cmov"):
            src = regs[ops[1]]
            merged = join_vals(regs[ops[0]], src)
            regs[ops[0]] = merged.with_taint(
                merged.taint or state.flags_taint)
            return
        if m == "mul":
            taint = regs[_RAX].taint or regs[ops[0]].taint
            regs[_RAX] = AbsVal(_KIND_TOP, taint=taint)
            regs[_RDX] = AbsVal(_KIND_TOP, taint=taint)
            state.flags_taint = taint
            return
        if m == "div":
            taint = (regs[_RAX].taint or regs[_RDX].taint
                     or regs[ops[0]].taint)
            regs[_RAX] = AbsVal(_KIND_TOP, taint=taint)
            regs[_RDX] = AbsVal(_KIND_TOP, taint=taint)
            state.flags_taint = taint
            return
        if m in ("cmp", "test"):
            state.flags_taint = regs[ops[0]].taint or regs[ops[1]].taint
            return
        if m in ("cmpi", "cmpi8", "testi"):
            state.flags_taint = regs[ops[0]].taint
            return
        if m == "cmc":
            return                       # flips CF; taint unchanged
        if m in ("inc", "dec", "neg", "not"):
            src = regs[ops[0]]
            if src.kind == _KIND_CONST:
                delta = {"inc": 1, "dec": -1}.get(m)
                if delta is not None:
                    regs[ops[0]] = const(src.value + delta, src.taint)
                else:
                    regs[ops[0]] = AbsVal(_KIND_TOP, taint=src.taint)
            else:
                regs[ops[0]] = AbsVal(_KIND_TOP, taint=src.taint)
            if m != "not":
                state.flags_taint = src.taint
            return
        if m in ("add", "sub", "adc", "sbb", "and", "or", "xor", "imul"):
            self._alu_rr(state, m, ops[0], ops[1])
            return
        if m in ("addi", "addi8", "subi", "subi8", "andi", "andi8",
                 "ori", "ori8", "xori", "xori8"):
            self._alu_ri(state, m, ops[0], ops[1])
            return
        if m in ("shl", "shr", "sar"):
            src = regs[ops[0]]
            if src.kind == _KIND_CONST:
                shifted = {
                    "shl": src.value << ops[1],
                    "shr": src.value >> ops[1],
                    "sar": src.value >> ops[1],
                }[m] & MASK64
                regs[ops[0]] = const(shifted, src.taint)
            else:
                regs[ops[0]] = AbsVal(_KIND_TOP, taint=src.taint)
            state.flags_taint = src.taint
            return
        # unknown mnemonic: conservatively smash the destination
        self._warn(f"no taint transfer for mnemonic '{m}'")
        if ops:
            regs[ops[0]] = TOP_TAINTED

    # -- helpers ---------------------------------------------------------
    def _address_of(self, base: AbsVal, disp: int) -> AbsVal:
        base = self._classify_const(base)
        if base.kind == _KIND_FRAME:
            return frame(base.value + disp, base.taint)
        if base.kind == _KIND_PTR:
            return ptr(base.regions, base.taint)
        if base.kind == _KIND_CONST:
            return self._classify_const(const(base.value + disp,
                                              base.taint))
        return base

    def _push(self, state: _State, av: AbsVal, pc: int) -> None:
        sp = state.regs[_RSP]
        if sp.kind != _KIND_FRAME:
            self._warn(f"push with unknown stack pointer at {pc:#x}")
            return
        state.regs[_RSP] = frame(sp.value - 8)
        state.cells[sp.value - 8] = av

    def _pop(self, state: _State, pc: int) -> AbsVal:
        sp = state.regs[_RSP]
        if sp.kind != _KIND_FRAME:
            self._warn(f"pop with unknown stack pointer at {pc:#x}")
            return TOP
        state.regs[_RSP] = frame(sp.value + 8)
        return state.cells.pop(sp.value, TOP)

    def _load(self, state: _State, base: AbsVal, disp: int, pc: int,
              mnemonic: str) -> AbsVal:
        address = self._address_of(base, disp)
        if address.taint:
            self._record("secret-load", pc, mnemonic,
                         "load address derived from secret data")
        if address.kind == _KIND_FRAME:
            return state.cells.get(address.value, TOP)
        if address.kind == _KIND_PTR:
            taint = address.taint or self._regions_taint(address.regions)
            return AbsVal(_KIND_TOP, taint=taint)
        self._warn(f"load from unknown address at {pc:#x}")
        taint = address.taint or any(self.region_taint.values())
        return AbsVal(_KIND_TOP, taint=taint)

    def _store(self, state: _State, base: AbsVal, disp: int,
               value: AbsVal, pc: int, mnemonic: str) -> None:
        address = self._address_of(base, disp)
        if address.taint:
            self._record("secret-store", pc, mnemonic,
                         "store address derived from secret data")
        if address.kind == _KIND_FRAME:
            state.cells[address.value] = value
            return
        if address.kind == _KIND_PTR:
            if value.taint:
                self._taint_regions(address.regions)
            return
        self._taint_all_regions(
            f"store to unknown address at {pc:#x}"
            if not value.taint else
            f"tainted store to unknown address at {pc:#x}")

    def _alu_rr(self, state: _State, m: str, dst: int, src: int) -> None:
        regs = state.regs
        a = self._classify_const(regs[dst])
        b = self._classify_const(regs[src])
        if m in ("xor", "sub", "sbb") and dst == src:
            regs[dst] = const(0)         # zeroing idiom clears taint
            state.flags_taint = False
            return
        taint = a.taint or b.taint
        if m in ("adc", "sbb"):
            taint = taint or state.flags_taint
        result: AbsVal
        if a.kind == _KIND_CONST and b.kind == _KIND_CONST:
            folded = {
                "add": a.value + b.value, "sub": a.value - b.value,
                "and": a.value & b.value, "or": a.value | b.value,
                "xor": a.value ^ b.value, "imul": a.value * b.value,
            }.get(m)
            result = (const(folded, taint) if folded is not None
                      else AbsVal(_KIND_TOP, taint=taint))
            result = self._classify_const(result)
        elif m == "add" and _KIND_FRAME in (a.kind, b.kind):
            fr, other = (a, b) if a.kind == _KIND_FRAME else (b, a)
            result = (frame(fr.value + other.value, taint)
                      if other.kind == _KIND_CONST
                      else AbsVal(_KIND_TOP, taint=taint))
        elif m == "sub" and a.kind == _KIND_FRAME:
            result = (frame(a.value - b.value, taint)
                      if b.kind == _KIND_CONST
                      else AbsVal(_KIND_TOP, taint=taint))
        elif m == "add" and (a.regions or b.regions):
            result = ptr(a.regions | b.regions, taint)
        elif m == "sub" and a.regions:
            result = ptr(a.regions, taint)
        else:
            result = AbsVal(_KIND_TOP, taint=taint)
        regs[dst] = result
        state.flags_taint = taint

    def _alu_ri(self, state: _State, m: str, dst: int, imm: int) -> None:
        regs = state.regs
        a = self._classify_const(regs[dst])
        op = m.rstrip("8").rstrip("i")   # addi/addi8 -> add
        taint = a.taint
        if a.kind == _KIND_CONST:
            folded = {
                "add": a.value + imm, "sub": a.value - imm,
                "and": a.value & imm, "or": a.value | imm,
                "xor": a.value ^ imm,
            }[op]
            regs[dst] = self._classify_const(const(folded, taint))
        elif a.kind == _KIND_FRAME and op in ("add", "sub"):
            delta = imm if op == "add" else -imm
            regs[dst] = frame(a.value + delta, taint)
        elif a.kind == _KIND_PTR and op in ("add", "sub"):
            regs[dst] = ptr(a.regions, taint)
        else:
            regs[dst] = AbsVal(_KIND_TOP, taint=taint)
        state.flags_taint = taint


def analyze_taint(cfg: CFG, regions: Iterable[Region],
                  secret_regions: Iterable[str]) -> TaintReport:
    """Run the taint analysis over ``cfg``.

    ``regions`` describes the victim's data arrays; ``secret_regions``
    names the subset holding secrets.  Returns every leak finding plus
    the final (monotone) region-taint map.
    """
    secret = set(secret_regions)
    region_list = list(regions)
    known = {r.name for r in region_list}
    missing = secret - known
    if missing:
        raise ValueError(
            f"secret regions not in the data layout: {sorted(missing)}")
    analyzer = _Analyzer(cfg, region_list, secret)
    analyzer.run(cfg.entry)
    findings = sorted(analyzer.findings.values(),
                      key=lambda f: (f.function, f.pc))
    return TaintReport(findings=findings,
                       region_taint=dict(analyzer.region_taint),
                       warnings=list(analyzer.warnings))
