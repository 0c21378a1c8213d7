"""Bounded symbolic execution of compiled victims.

The executor runs the victim's binary from its start stub with
bit-vector words (:mod:`.bitvec`) for registers and memory.  Concrete
values stay Python ints (the fast path); only the declared symbolic
bits of the secret input arrays introduce :class:`~.bitvec.Node`
expressions.  At a conditional branch whose condition folds to a
constant the direction is simply recorded; at a *symbolic* condition
the solver decides which directions are feasible under the current
path predicate and the path forks.  Symbolic memory addresses (and
indirect branch targets) are soundly *enumerated*: every feasible
concrete value under the predicate becomes its own path.

Because the symbolic input domain is finite, exploration terminates
naturally; the step/path/gate budgets are a safety net whose
exhaustion is reported as an incomplete exploration (certified
``UNDECIDED``, never a wrong verdict).

Per completed path the executor records, for every conditional branch
site, the ordered *direction trace*, and for every
enumerated-address site the ordered *value trace* — the cross-path
comparison of these traces is exactly BTB-event-stream divergence,
which :mod:`.certify` turns into verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...cpu.state import MachineState
from ...errors import DecodeError
from ...isa.instructions import Cond, Kind
from ...isa.registers import MASK64
from ..cfg import CodeImage
from .bitvec import Bit, BitCtx, GateBudgetExceeded, Word
from .solver import SatResult, SolverStats, solve_bit

__all__ = ["ExploreBudget", "Exploration", "CompletedPath",
           "SymbolicExecError", "explore_victim"]

_STACK_TOP = 0x7FFF_0000_0000


class SymbolicExecError(Exception):
    """The executor hit something it cannot model soundly."""


@dataclass(frozen=True)
class ExploreBudget:
    """Safety-net bounds; exhaustion degrades soundly to UNDECIDED."""

    max_paths: int = 512
    max_steps: int = 600_000          # total retired symbolic steps
    max_gates: int = 4_000_000
    solver_decisions: int = 100_000
    enum_limit: int = 8               # feasible values per symbolic address


@dataclass
class CompletedPath:
    """One start-to-halt execution class of the victim."""

    index: int
    predicate: Bit
    model: Dict[str, bool]
    #: conditional site pc -> ordered taken/not-taken directions
    branch_traces: Dict[int, Tuple[int, ...]]
    #: enumerated-address site pc -> ordered concrete values
    access_traces: Dict[int, Tuple[int, ...]]
    steps: int


@dataclass
class Exploration:
    """Everything one exhaustive (or aborted) exploration produced."""

    paths: List[CompletedPath] = field(default_factory=list)
    #: reasons any path was abandoned; non-empty => incomplete
    aborted: List[str] = field(default_factory=list)
    steps: int = 0
    forks: int = 0
    stats: SolverStats = field(default_factory=SolverStats)
    ctx: BitCtx = field(default_factory=BitCtx)

    @property
    def complete(self) -> bool:
        return not self.aborted

    def branch_sites(self) -> List[int]:
        sites = set()
        for path in self.paths:
            sites.update(path.branch_traces)
        return sorted(sites)

    def access_sites(self) -> List[int]:
        sites = set()
        for path in self.paths:
            sites.update(path.access_traces)
        return sorted(sites)


class _Path:
    """Mutable in-flight path state (cheap to clone at forks)."""

    __slots__ = ("pc", "regs", "flags", "mem", "pred", "branch_traces",
                 "access_traces", "pinned", "steps")

    def __init__(self, pc: int, regs: List[Word], flags: Dict[str, Bit],
                 mem: Dict[int, Word], pred: Bit):
        self.pc = pc
        self.regs = regs
        self.flags = flags
        self.mem = mem                      # overlay over backing memory
        self.pred = pred
        self.branch_traces: Dict[int, List[int]] = {}
        self.access_traces: Dict[int, List[int]] = {}
        self.pinned: Dict[Tuple, int] = {}
        self.steps = 0

    def clone(self) -> "_Path":
        twin = _Path(self.pc, list(self.regs), dict(self.flags),
                     dict(self.mem), self.pred)
        twin.branch_traces = {pc: list(t)
                              for pc, t in self.branch_traces.items()}
        twin.access_traces = {pc: list(t)
                              for pc, t in self.access_traces.items()}
        twin.pinned = dict(self.pinned)
        twin.steps = self.steps
        return twin


def _sym_cond(ctx: BitCtx, cond: Cond, f: Dict[str, Bit]) -> Bit:
    """Bit-level mirror of :func:`repro.isa.instructions.evaluate_cond`."""
    zf, sf, cf, of = f["zf"], f["sf"], f["cf"], f["of"]
    if cond == Cond.E:
        return zf
    if cond == Cond.NE:
        return ctx.not_(zf)
    if cond == Cond.L:
        return ctx.xor_(sf, of)
    if cond == Cond.GE:
        return ctx.not_(ctx.xor_(sf, of))
    if cond == Cond.LE:
        return ctx.or_(zf, ctx.xor_(sf, of))
    if cond == Cond.G:
        return ctx.and_(ctx.not_(zf), ctx.not_(ctx.xor_(sf, of)))
    if cond == Cond.B:
        return cf
    if cond == Cond.AE:
        return ctx.not_(cf)
    if cond == Cond.BE:
        return ctx.or_(cf, zf)
    if cond == Cond.A:
        return ctx.and_(ctx.not_(cf), ctx.not_(zf))
    if cond == Cond.S:
        return sf
    if cond == Cond.NS:
        return ctx.not_(sf)
    if cond == Cond.O:
        return of
    if cond == Cond.NO:
        return ctx.not_(of)
    raise SymbolicExecError(f"unknown condition {cond!r}")


class _Engine:
    def __init__(self, victim, domains: Sequence,
                 template_inputs: Dict[str, int],
                 budget: ExploreBudget, ctx: Optional[BitCtx] = None):
        self.victim = victim
        self.budget = budget
        self.ctx = ctx if ctx is not None else BitCtx(budget.max_gates)
        self.ctx.gate_budget = budget.max_gates
        self.out = Exploration(ctx=self.ctx)
        self.image = CodeImage.from_program(victim.compiled.program)
        self._decoded: Dict[int, object] = {}

        inputs = dict(template_inputs)
        for domain in domains:
            inputs.setdefault(domain.array, domain.forced_or)
        state = MachineState(victim.new_memory(inputs))
        state.setup_stack(_STACK_TOP)
        self.backing = state.memory
        if victim.compiled.start is None:
            raise SymbolicExecError("victim compiled without a start stub")

        regs: List[Word] = list(state.regs._values)
        overlay: Dict[int, Word] = {}
        for domain in domains:
            spec = victim.layout[domain.array]
            sym = set(range(domain.shift, domain.shift + domain.bits))
            bits = tuple(
                self.ctx.var(f"{domain.array}.{i}") if i in sym
                else (domain.forced_or >> i) & 1
                for i in range(64))
            overlay[spec.address] = self.ctx.collapse(bits)
        flags: Dict[str, Bit] = {"zf": 0, "sf": 0, "cf": 0, "of": 0}
        self.initial = _Path(victim.compiled.start, regs, flags,
                             overlay, 1)

    # -- helpers -------------------------------------------------------
    def _decode(self, pc: int):
        inst = self._decoded.get(pc)
        if inst is None:
            try:
                inst, _ = self.image.decode(pc)
            except DecodeError as exc:
                raise SymbolicExecError(
                    f"undecodable pc {pc:#x}: {exc}") from exc
            self._decoded[pc] = inst
        return inst

    def _solve(self, bit: Bit) -> SatResult:
        return solve_bit(bit, ctx=self.ctx,
                         max_decisions=self.budget.solver_decisions,
                         stats=self.out.stats)

    def _read_mem(self, path: _Path, address: int) -> Word:
        word = path.mem.get(address)
        if word is not None:
            return word
        try:
            return self.backing.read_u64(address)
        except Exception as exc:
            raise SymbolicExecError(
                f"unreadable address {address:#x}: {exc}") from exc

    def _write_mem(self, path: _Path, address: int, word: Word) -> None:
        """Overlay store; refuses what the concrete store faults on."""
        try:
            self.backing.page_table.check(address, "write")
        except Exception as exc:
            raise SymbolicExecError(
                f"unwritable address {address:#x}: {exc}") from exc
        path.mem[address] = word

    def _set_zs(self, flags: Dict[str, Bit], result: Word) -> None:
        flags["zf"] = self.ctx.is_zero(result)
        flags["sf"] = self.ctx.sign(result)

    def _concretize(self, path: _Path, word: Word, site_pc: int,
                    work: List[_Path]) -> int:
        """Pin a symbolic word to a concrete value, forking one path
        per feasible value under the path predicate."""
        ctx = self.ctx
        if isinstance(word, int):
            return word
        pinned = path.pinned.get(word)
        if pinned is not None:
            return pinned
        candidates: List[int] = []
        excl: Bit = path.pred
        while len(candidates) <= self.budget.enum_limit:
            result = self._solve(excl)
            if result.status == "unknown":
                raise SymbolicExecError(
                    f"solver budget exhausted at {site_pc:#x}")
            if result.status == "unsat":
                break
            value = ctx.eval_word(word, result.model)
            candidates.append(value)
            excl = ctx.and_(excl, ctx.not_(ctx.eq_const(word, value)))
        else:
            raise SymbolicExecError(
                f"address enumeration blew past "
                f"{self.budget.enum_limit} values at {site_pc:#x}")
        if not candidates:
            raise SymbolicExecError(
                f"infeasible path reached {site_pc:#x}")
        for value in candidates[1:]:
            twin = path.clone()
            twin.pred = ctx.and_(twin.pred, ctx.eq_const(word, value))
            twin.pinned[word] = value
            self.out.forks += 1
            work.append(twin)
        first = candidates[0]
        if len(candidates) > 1:
            path.pred = ctx.and_(path.pred, ctx.eq_const(word, first))
        path.pinned[word] = first
        return first

    def _address(self, path: _Path, base: int, disp: int,
                 pc: int, work: List[_Path]) -> int:
        address_word = path.regs[base]
        if not isinstance(address_word, int):
            value = self._concretize(path, address_word, pc, work)
            path.access_traces.setdefault(pc, []).append(value)
            address = (value + disp) & MASK64
        else:
            address = (address_word + disp) & MASK64
        if address % 8:
            raise SymbolicExecError(
                f"unaligned access {address:#x} at {pc:#x}")
        return address

    # -- main loop -----------------------------------------------------
    def run(self) -> Exploration:
        work: List[_Path] = [self.initial]
        path_count = 1
        while work:
            path = work.pop()
            try:
                self._run_path(path, work)
            except (SymbolicExecError, GateBudgetExceeded) as exc:
                self.out.aborted.append(f"{path.pc:#x}: {exc}")
            path_count = len(self.out.paths) + len(work) + 1
            if path_count > self.budget.max_paths:
                self.out.aborted.append(
                    f"path budget {self.budget.max_paths} exhausted")
                break
        return self.out

    def _run_path(self, path: _Path, work: List[_Path]) -> None:
        self._work = work
        while True:
            if self.out.steps >= self.budget.max_steps:
                raise SymbolicExecError(
                    f"step budget {self.budget.max_steps} exhausted")
            self.out.steps += 1
            path.steps += 1
            pc = path.pc
            inst = self._decode(pc)
            mnemonic = inst.mnemonic
            if inst.kind is Kind.COND_JUMP:
                self._branch(path, inst, pc, work)
                continue
            handler = getattr(self, "_h_" + mnemonic, None)
            if handler is not None:
                handler(path, inst, pc)
                continue
            if mnemonic.startswith("cmov"):
                self._cmov(path, inst, pc)
                continue
            if mnemonic.startswith("set"):
                self._setcc(path, inst, pc)
                continue
            if mnemonic in ("jmp", "jmp8"):
                path.pc = (pc + inst.length + inst.operands[0]) & MASK64
                continue
            if mnemonic == "call":
                target = (pc + inst.length + inst.operands[0]) & MASK64
                self._push(path, pc + inst.length, pc, work)
                path.pc = target
                continue
            if mnemonic in ("callr", "jmpr"):
                target = path.regs[inst.operands[0]]
                if not isinstance(target, int):
                    target = self._concretize(path, target, pc, work)
                    path.access_traces.setdefault(pc, []).append(target)
                if mnemonic == "callr":
                    self._push(path, pc + inst.length, pc, work)
                path.pc = target
                continue
            if mnemonic == "ret":
                target = self._pop(path, pc, work)
                if not isinstance(target, int):
                    raise SymbolicExecError(
                        f"symbolic return address at {pc:#x}")
                path.pc = target
                continue
            if mnemonic == "syscall":
                path.regs[0] = 0          # yields are no-ops (rax = 0)
                path.pc = pc + inst.length
                continue
            if mnemonic == "hlt":
                self._complete(path)
                return
            raise SymbolicExecError(f"no symbolic semantics for "
                                    f"{mnemonic} at {pc:#x}")

    def _complete(self, path: _Path) -> None:
        result = self._solve(path.pred)
        if result.status == "unknown":
            raise SymbolicExecError("solver budget exhausted at halt")
        if result.status == "unsat":   # pragma: no cover - pruned earlier
            raise SymbolicExecError("completed path has unsat predicate")
        model = {name: result.model.get(name, False)
                 for name in self.ctx.var_names()}
        self.out.paths.append(CompletedPath(
            index=len(self.out.paths),
            predicate=path.pred,
            model=model,
            branch_traces={pc: tuple(t)
                           for pc, t in path.branch_traces.items()},
            access_traces={pc: tuple(t)
                           for pc, t in path.access_traces.items()},
            steps=path.steps))

    # -- control flow --------------------------------------------------
    def _branch(self, path: _Path, inst, pc: int,
                work: List[_Path]) -> None:
        ctx = self.ctx
        cond = _sym_cond(ctx, inst.spec.cond, path.flags)
        trace = path.branch_traces.setdefault(pc, [])
        target = (pc + inst.length + inst.operands[0]) & MASK64
        fall = pc + inst.length
        if isinstance(cond, int):
            trace.append(cond)
            path.pc = target if cond else fall
            return
        taken = self._solve(ctx.and_(path.pred, cond))
        not_taken = self._solve(ctx.and_(path.pred, ctx.not_(cond)))
        if taken.status == "unknown" or not_taken.status == "unknown":
            raise SymbolicExecError(
                f"solver budget exhausted at branch {pc:#x}")
        if taken.is_sat and not_taken.is_sat:
            twin = path.clone()
            twin.pred = ctx.and_(twin.pred, ctx.not_(cond))
            twin.branch_traces[pc].append(0)
            twin.pc = fall
            self.out.forks += 1
            work.append(twin)
            path.pred = ctx.and_(path.pred, cond)
            trace.append(1)
            path.pc = target
            return
        if taken.is_sat:
            trace.append(1)                 # implied: no need to conjoin
            path.pc = target
            return
        if not_taken.is_sat:
            trace.append(0)
            path.pc = fall
            return
        raise SymbolicExecError(f"infeasible path at branch {pc:#x}")

    def _push(self, path: _Path, value: Word, pc: int,
              work: List[_Path]) -> None:
        rsp = path.regs[4]
        if not isinstance(rsp, int):
            raise SymbolicExecError(f"symbolic rsp at {pc:#x}")
        rsp = (rsp - 8) & MASK64
        path.regs[4] = rsp
        self._write_mem(path, rsp, value)

    def _pop(self, path: _Path, pc: int, work: List[_Path]) -> Word:
        rsp = path.regs[4]
        if not isinstance(rsp, int):
            raise SymbolicExecError(f"symbolic rsp at {pc:#x}")
        value = self._read_mem(path, rsp)
        path.regs[4] = (rsp + 8) & MASK64
        return value

    # -- sequential handlers: the bit-level copy of the thunk compilers
    # in cpu.semantics; tests/test_semantics_agreement.py checks each
    # mnemonic against them on concrete inputs -----------------------
    def _h_nop(self, path, inst, pc):
        path.pc = pc + inst.length

    _h_lfence = _h_nop

    def _h_cmc(self, path, inst, pc):
        path.flags["cf"] = self.ctx.not_(path.flags["cf"])
        path.pc = pc + inst.length

    def _h_mov(self, path, inst, pc):
        dst, src = inst.operands
        path.regs[dst] = path.regs[src]
        path.pc = pc + inst.length

    def _h_xchg(self, path, inst, pc):
        dst, src = inst.operands
        path.regs[dst], path.regs[src] = path.regs[src], path.regs[dst]
        path.pc = pc + inst.length

    def _h_movi(self, path, inst, pc):
        dst, imm = inst.operands
        path.regs[dst] = imm & MASK64
        path.pc = pc + inst.length

    _h_movabs = _h_movi

    def _h_load(self, path, inst, pc):
        dst, base, disp = inst.operands
        # address enumeration may fork; the work list rides on the
        # engine so the handler signature stays uniform
        address = self._address(path, base, disp, pc, self._work)
        path.regs[dst] = self._read_mem(path, address)
        path.pc = pc + inst.length

    _h_loadw = _h_load

    def _h_store(self, path, inst, pc):
        base, src, disp = inst.operands
        address = self._address(path, base, disp, pc, self._work)
        self._write_mem(path, address, path.regs[src])
        path.pc = pc + inst.length

    _h_storew = _h_store

    def _h_lea(self, path, inst, pc):
        dst, base, disp = inst.operands
        value = path.regs[base]
        if isinstance(value, int):
            path.regs[dst] = (value + disp) & MASK64
        else:
            result, _, _ = self.ctx.add(value, disp & MASK64)
            path.regs[dst] = result
        path.pc = pc + inst.length

    def _h_push(self, path, inst, pc):
        self._push(path, path.regs[inst.operands[0]], pc, self._work)
        path.pc = pc + inst.length

    def _h_pop(self, path, inst, pc):
        path.regs[inst.operands[0]] = self._pop(path, pc, self._work)
        path.pc = pc + inst.length

    # ALU
    def _alu_add(self, path, dst: int, b: Word, carry_in: Bit = 0):
        flags = path.flags
        result, cf, of = self.ctx.add(path.regs[dst], b, carry_in)
        flags["cf"], flags["of"] = cf, of
        self._set_zs(flags, result)
        path.regs[dst] = result

    def _alu_sub(self, path, dst: int, b: Word, borrow_in: Bit = 0,
                 write: bool = True):
        flags = path.flags
        result, cf, of = self.ctx.sub(path.regs[dst], b, borrow_in)
        flags["cf"], flags["of"] = cf, of
        self._set_zs(flags, result)
        if write:
            path.regs[dst] = result

    def _alu_logic(self, path, dst: int, result: Word,
                   write: bool = True):
        flags = path.flags
        flags["cf"], flags["of"] = 0, 0
        self._set_zs(flags, result)
        if write:
            path.regs[dst] = result

    def _h_add(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_add(path, dst, path.regs[src])
        path.pc = pc + inst.length

    def _h_sub(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_sub(path, dst, path.regs[src])
        path.pc = pc + inst.length

    def _h_adc(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_add(path, dst, path.regs[src], path.flags["cf"])
        path.pc = pc + inst.length

    def _h_sbb(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_sub(path, dst, path.regs[src], path.flags["cf"])
        path.pc = pc + inst.length

    def _h_and(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.band(path.regs[dst], path.regs[src]))
        path.pc = pc + inst.length

    def _h_or(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.bor(path.regs[dst], path.regs[src]))
        path.pc = pc + inst.length

    def _h_xor(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.bxor(path.regs[dst], path.regs[src]))
        path.pc = pc + inst.length

    def _h_cmp(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_sub(path, dst, path.regs[src], write=False)
        path.pc = pc + inst.length

    def _h_test(self, path, inst, pc):
        dst, src = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.band(path.regs[dst], path.regs[src]),
                        write=False)
        path.pc = pc + inst.length

    def _h_addi(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_add(path, dst, imm & MASK64)
        path.pc = pc + inst.length

    _h_addi8 = _h_addi

    def _h_subi(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_sub(path, dst, imm & MASK64)
        path.pc = pc + inst.length

    _h_subi8 = _h_subi

    def _h_cmpi(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_sub(path, dst, imm & MASK64, write=False)
        path.pc = pc + inst.length

    _h_cmpi8 = _h_cmpi

    def _h_andi(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.band(path.regs[dst], imm & MASK64))
        path.pc = pc + inst.length

    _h_andi8 = _h_andi

    def _h_ori(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.bor(path.regs[dst], imm & MASK64))
        path.pc = pc + inst.length

    _h_ori8 = _h_ori

    def _h_xori(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.bxor(path.regs[dst], imm & MASK64))
        path.pc = pc + inst.length

    _h_xori8 = _h_xori

    def _h_testi(self, path, inst, pc):
        dst, imm = inst.operands
        self._alu_logic(path, dst,
                        self.ctx.band(path.regs[dst], imm & MASK64),
                        write=False)
        path.pc = pc + inst.length

    def _h_imul(self, path, inst, pc):
        dst, src = inst.operands
        flags = path.flags
        result, overflow = self.ctx.imul(path.regs[dst], path.regs[src])
        flags["cf"] = overflow
        flags["of"] = overflow
        self._set_zs(flags, result)
        path.regs[dst] = result
        path.pc = pc + inst.length

    def _h_mul(self, path, inst, pc):
        src = inst.operands[0]
        flags = path.flags
        low, high = self.ctx.mul(path.regs[0], path.regs[src])
        path.regs[0] = low
        path.regs[2] = high
        nonzero = self.ctx.not_(self.ctx.is_zero(high))
        flags["cf"] = nonzero
        flags["of"] = nonzero
        self._set_zs(flags, low)
        path.pc = pc + inst.length

    def _h_div(self, path, inst, pc):
        src = inst.operands[0]
        divisor = path.regs[src]
        high, low = path.regs[2], path.regs[0]
        if not (isinstance(divisor, int) and isinstance(high, int)
                and isinstance(low, int)):
            raise SymbolicExecError(f"symbolic division at {pc:#x}")
        if divisor == 0:
            raise SymbolicExecError(f"divide by zero at {pc:#x}")
        numerator = (high << 64) | low
        quotient = numerator // divisor
        if quotient > MASK64:
            raise SymbolicExecError(f"divide overflow at {pc:#x}")
        path.regs[0] = quotient
        path.regs[2] = numerator % divisor
        path.pc = pc + inst.length

    def _shift(self, path, inst, pc, op):
        dst, imm = inst.operands
        count = imm & 63
        if count:                    # count == 0 leaves flags untouched
            flags = path.flags
            result, cf = op(path.regs[dst], count)
            flags["cf"] = cf
            flags["of"] = 0
            self._set_zs(flags, result)
            path.regs[dst] = result
        path.pc = pc + inst.length

    def _h_shl(self, path, inst, pc):
        self._shift(path, inst, pc, self.ctx.shl)

    def _h_shr(self, path, inst, pc):
        self._shift(path, inst, pc, self.ctx.shr)

    def _h_sar(self, path, inst, pc):
        self._shift(path, inst, pc, self.ctx.sar)

    def _h_inc(self, path, inst, pc):
        carry = path.flags["cf"]          # inc preserves CF
        self._alu_add(path, inst.operands[0], 1)
        path.flags["cf"] = carry
        path.pc = pc + inst.length

    def _h_dec(self, path, inst, pc):
        carry = path.flags["cf"]          # dec preserves CF
        self._alu_sub(path, inst.operands[0], 1)
        path.flags["cf"] = carry
        path.pc = pc + inst.length

    def _h_neg(self, path, inst, pc):
        dst = inst.operands[0]
        flags = path.flags
        value = path.regs[dst]
        result, _, of = self.ctx.sub(0, value)
        flags["of"] = of
        flags["cf"] = self.ctx.not_(self.ctx.is_zero(value))
        self._set_zs(flags, result)
        path.regs[dst] = result
        path.pc = pc + inst.length

    def _h_not(self, path, inst, pc):
        dst = inst.operands[0]
        path.regs[dst] = self.ctx.bnot(path.regs[dst])
        path.pc = pc + inst.length

    def _cmov(self, path, inst, pc):
        dst, src = inst.operands
        cond = _sym_cond(self.ctx, inst.spec.cond, path.flags)
        path.regs[dst] = self.ctx.mux_word(cond, path.regs[src],
                                           path.regs[dst])
        path.pc = pc + inst.length

    def _setcc(self, path, inst, pc):
        dst = inst.operands[0]
        cond = _sym_cond(self.ctx, inst.spec.cond, path.flags)
        if isinstance(cond, int):
            path.regs[dst] = cond
        else:
            path.regs[dst] = self.ctx.collapse((cond,) + (0,) * 63)
        path.pc = pc + inst.length


def explore_victim(victim, domains: Sequence,
                   template_inputs: Optional[Dict[str, int]] = None,
                   *, budget: Optional[ExploreBudget] = None,
                   ctx: Optional[BitCtx] = None) -> Exploration:
    """Exhaustively explore ``victim`` over the declared symbolic
    input ``domains`` (see ``repro.victims.library.SymbolicDomain``)."""
    engine = _Engine(victim, domains, dict(template_inputs or {}),
                     budget if budget is not None else ExploreBudget(),
                     ctx)
    return engine.run()
