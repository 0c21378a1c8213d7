"""Architectural instruction semantics.

This module is the one definition of what each instruction *does*.
Timing, prediction and BTB effects are deliberately absent here.

Straight-line (``Kind.SEQUENTIAL``) instructions have exactly one
concrete semantics: the thunk compilers below.
:func:`compile_straightline` specialises an instruction into a bare
``state -> None`` callable and keeps it on the instruction
(``Instruction.thunk``), so each instruction object is compiled once.
The decoded-window fast path and superblocks (:mod:`repro.cpu.decoded`)
run those thunks, and so does :func:`execute` (the reference loop and
the speculative look-ahead of :mod:`repro.cpu.core`, and the
:mod:`repro.cpu.interp` oracle).  Control transfers, ``syscall`` and
``hlt`` have handlers instead, because they produce an
:class:`Outcome` the caller acts on.

The symbolic executor (:mod:`repro.analysis.symbolic.executor`) is the
only other copy, at bit level; ``tests/test_semantics_agreement.py``
runs every sequential mnemonic through :func:`execute`, the compiled
thunk and one symbolic step on the same concrete inputs and compares
registers, flags, memory and traps.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

from ..errors import CpuError, DivideError
from ..isa.instructions import Instruction, evaluate_cond
from ..isa.registers import MASK64, SIGN64, to_signed
from .state import MachineState


class Outcome(NamedTuple):
    """Result of architecturally executing one instruction (the
    instruction's ``kind`` says which of its fields are meaningful).

    A tuple, not a dataclass: one is built per executed instruction."""

    #: the architectural successor (the resolved target when taken)
    next_pc: int
    #: for control transfers: did it take? (None for sequential insts)
    taken: Optional[bool] = None
    syscall: bool = False
    halt: bool = False


Handler = Callable[[MachineState, Instruction, int], Outcome]

_HANDLERS: Dict[str, Handler] = {}


def _register(*mnemonics: str):
    def wrap(function: Handler) -> Handler:
        for mnemonic in mnemonics:
            _HANDLERS[mnemonic] = function
        return function
    return wrap


# ----------------------------------------------------------------------
# flag helpers
# ----------------------------------------------------------------------
def _set_zs(flags, result: int) -> None:
    flags.zf = result == 0
    flags.sf = bool(result & SIGN64)


def _add(flags, a: int, b: int, carry_in: int = 0) -> int:
    total = a + b + carry_in
    result = total & MASK64
    flags.cf = total > MASK64
    flags.of = bool(~(a ^ b) & (a ^ result) & SIGN64)
    _set_zs(flags, result)
    return result


def _sub(flags, a: int, b: int, borrow_in: int = 0) -> int:
    total = a - b - borrow_in
    result = total & MASK64
    flags.cf = total < 0
    flags.of = bool((a ^ b) & (a ^ result) & SIGN64)
    _set_zs(flags, result)
    return result


def _logic(flags, result: int) -> int:
    result &= MASK64
    flags.cf = False
    flags.of = False
    _set_zs(flags, result)
    return result


# ----------------------------------------------------------------------
# control transfers
# ----------------------------------------------------------------------
@_register("jmp", "jmp8")
def _h_jmp(state, inst, pc):
    target = (pc + inst.length + inst.operands[0]) & MASK64
    return Outcome(target, True)


def _h_jcc(state, inst, pc):
    taken = evaluate_cond(inst.spec.cond, state.regs.flags)
    if taken:
        target = (pc + inst.length + inst.operands[0]) & MASK64
        return Outcome(target, True)
    return Outcome(pc + inst.length, False)


@_register("call")
def _h_call(state, inst, pc):
    target = (pc + inst.length + inst.operands[0]) & MASK64
    state.push(pc + inst.length)
    return Outcome(target, True)


@_register("callr")
def _h_callr(state, inst, pc):
    target = state.regs.read(inst.operands[0])
    state.push(pc + inst.length)
    return Outcome(target, True)


@_register("jmpr")
def _h_jmpr(state, inst, pc):
    target = state.regs.read(inst.operands[0])
    return Outcome(target, True)


@_register("ret")
def _h_ret(state, inst, pc):
    target = state.pop()
    return Outcome(target, True)


@_register("syscall")
def _h_syscall(state, inst, pc):
    return Outcome(next_pc=pc + inst.length, syscall=True)


@_register("hlt")
def _h_hlt(state, inst, pc):
    return Outcome(next_pc=pc + inst.length, halt=True)


def _register_conditionals() -> None:
    from ..isa.instructions import COND_NAMES, Cond
    for cond in Cond:
        name = COND_NAMES[cond]
        _HANDLERS[f"j{name}"] = _h_jcc
        _HANDLERS[f"j{name}8"] = _h_jcc


_register_conditionals()


# ======================================================================
# straight-line thunk compilers
# ======================================================================
# Each compiler binds one sequential instruction's operands, condition
# code and immediates at compile time, so a cached thunk runs without
# the mnemonic lookup, operand unpacking and :class:`Outcome`
# allocation of a dispatch.  Only ``_c_div`` reads ``pc`` (for its
# error text), so a ``div`` thunk is never kept on its instruction: one
# instruction object may sit at many addresses (the assembler interns
# equal instructions).

ThunkCompiler = Callable[[Instruction, int], Callable[[MachineState], None]]

_COMPILERS: Dict[str, ThunkCompiler] = {}


def _compiler(*mnemonics: str):
    def wrap(function: ThunkCompiler) -> ThunkCompiler:
        for mnemonic in mnemonics:
            _COMPILERS[mnemonic] = function
        return function
    return wrap


@_compiler("nop", "lfence")
def _c_nop(inst, pc):
    def thunk(state):
        return None
    return thunk


@_compiler("cmc")
def _c_cmc(inst, pc):
    def thunk(state):
        flags = state.regs.flags
        flags.cf = not flags.cf
    return thunk


@_compiler("mov")
def _c_mov(inst, pc):
    dst, src = inst.operands

    def thunk(state):
        values = state.regs._values
        values[dst] = values[src]
    return thunk


@_compiler("xchg")
def _c_xchg(inst, pc):
    dst, src = inst.operands

    def thunk(state):
        values = state.regs._values
        values[dst], values[src] = values[src], values[dst]
    return thunk


@_compiler("movi", "movabs")
def _c_movi(inst, pc):
    dst, imm = inst.operands
    imm &= MASK64

    def thunk(state):
        state.regs._values[dst] = imm
    return thunk


@_compiler("load", "loadw")
def _c_load(inst, pc):
    dst, base, disp = inst.operands

    def thunk(state):
        values = state.regs._values
        values[dst] = state.memory.read_u64((values[base] + disp) & MASK64)
    return thunk


@_compiler("store", "storew")
def _c_store(inst, pc):
    base, src, disp = inst.operands

    def thunk(state):
        values = state.regs._values
        state.memory.write_u64((values[base] + disp) & MASK64, values[src])
    return thunk


@_compiler("lea")
def _c_lea(inst, pc):
    dst, base, disp = inst.operands

    def thunk(state):
        values = state.regs._values
        values[dst] = (values[base] + disp) & MASK64
    return thunk


@_compiler("push")
def _c_push(inst, pc):
    src = inst.operands[0]

    def thunk(state):
        state.push(state.regs._values[src])
    return thunk


@_compiler("pop")
def _c_pop(inst, pc):
    dst = inst.operands[0]

    def thunk(state):
        state.regs._values[dst] = state.pop()
    return thunk


def _c_alu_rr(op):
    """Compiler for reg,reg ALU ops writing their result."""
    def compiler(inst, pc):
        dst, src = inst.operands

        def thunk(state):
            regs = state.regs
            values = regs._values
            values[dst] = op(regs.flags, values[dst], values[src])
        return thunk
    return compiler


def _c_alu_ri(op):
    """Compiler for reg,imm ALU ops writing their result."""
    def compiler(inst, pc):
        dst, imm = inst.operands
        imm &= MASK64

        def thunk(state):
            regs = state.regs
            values = regs._values
            values[dst] = op(regs.flags, values[dst], imm)
        return thunk
    return compiler


_COMPILERS["add"] = _c_alu_rr(_add)
_COMPILERS["sub"] = _c_alu_rr(_sub)
_COMPILERS["adc"] = _c_alu_rr(lambda f, a, b: _add(f, a, b, int(f.cf)))
_COMPILERS["sbb"] = _c_alu_rr(lambda f, a, b: _sub(f, a, b, int(f.cf)))
_COMPILERS["and"] = _c_alu_rr(lambda f, a, b: _logic(f, a & b))
_COMPILERS["or"] = _c_alu_rr(lambda f, a, b: _logic(f, a | b))
_COMPILERS["xor"] = _c_alu_rr(lambda f, a, b: _logic(f, a ^ b))

for _name in ("addi", "addi8"):
    _COMPILERS[_name] = _c_alu_ri(_add)
for _name in ("subi", "subi8"):
    _COMPILERS[_name] = _c_alu_ri(_sub)
for _name in ("andi", "andi8"):
    _COMPILERS[_name] = _c_alu_ri(lambda f, a, b: _logic(f, a & b))
for _name in ("ori", "ori8"):
    _COMPILERS[_name] = _c_alu_ri(lambda f, a, b: _logic(f, a | b))
for _name in ("xori", "xori8"):
    _COMPILERS[_name] = _c_alu_ri(lambda f, a, b: _logic(f, a ^ b))
del _name


@_compiler("cmp")
def _c_cmp(inst, pc):
    dst, src = inst.operands

    def thunk(state):
        regs = state.regs
        values = regs._values
        _sub(regs.flags, values[dst], values[src])
    return thunk


@_compiler("test")
def _c_test(inst, pc):
    dst, src = inst.operands

    def thunk(state):
        regs = state.regs
        values = regs._values
        _logic(regs.flags, values[dst] & values[src])
    return thunk


@_compiler("cmpi", "cmpi8")
def _c_cmpi(inst, pc):
    dst, imm = inst.operands
    imm &= MASK64

    def thunk(state):
        regs = state.regs
        _sub(regs.flags, regs._values[dst], imm)
    return thunk


@_compiler("testi")
def _c_testi(inst, pc):
    dst, imm = inst.operands
    imm &= MASK64

    def thunk(state):
        regs = state.regs
        _logic(regs.flags, regs._values[dst] & imm)
    return thunk


@_compiler("inc")
def _c_inc(inst, pc):
    dst = inst.operands[0]

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        carry = flags.cf                  # inc preserves CF
        result = _add(flags, values[dst], 1)
        flags.cf = carry
        values[dst] = result
    return thunk


@_compiler("dec")
def _c_dec(inst, pc):
    dst = inst.operands[0]

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        carry = flags.cf                  # dec preserves CF
        result = _sub(flags, values[dst], 1)
        flags.cf = carry
        values[dst] = result
    return thunk


@_compiler("neg")
def _c_neg(inst, pc):
    dst = inst.operands[0]

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        value = values[dst]
        result = _sub(flags, 0, value)
        flags.cf = value != 0
        values[dst] = result
    return thunk


@_compiler("not")
def _c_not(inst, pc):
    dst = inst.operands[0]

    def thunk(state):
        values = state.regs._values
        values[dst] = ~values[dst] & MASK64
    return thunk


@_compiler("shl")
def _c_shl(inst, pc):
    dst, imm = inst.operands
    count = imm & 63
    if count == 0:
        def thunk(state):
            return None
        return thunk

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        value = values[dst]
        flags.cf = bool((value >> (64 - count)) & 1)
        value = (value << count) & MASK64
        flags.of = False
        _set_zs(flags, value)
        values[dst] = value
    return thunk


@_compiler("shr")
def _c_shr(inst, pc):
    dst, imm = inst.operands
    count = imm & 63
    if count == 0:
        def thunk(state):
            return None
        return thunk

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        value = values[dst]
        flags.cf = bool((value >> (count - 1)) & 1)
        value >>= count
        flags.of = False
        _set_zs(flags, value)
        values[dst] = value
    return thunk


@_compiler("sar")
def _c_sar(inst, pc):
    dst, imm = inst.operands
    count = imm & 63
    if count == 0:
        def thunk(state):
            return None
        return thunk

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        value = values[dst]
        signed = to_signed(value)
        flags.cf = bool((value >> (count - 1)) & 1)
        value = (signed >> count) & MASK64
        flags.of = False
        _set_zs(flags, value)
        values[dst] = value
    return thunk


@_compiler("imul")
def _c_imul(inst, pc):
    dst, src = inst.operands

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        product = to_signed(values[dst]) * to_signed(values[src])
        result = product & MASK64
        overflow = to_signed(result) != product
        flags.cf = overflow
        flags.of = overflow
        _set_zs(flags, result)
        values[dst] = result
    return thunk


@_compiler("mul")
def _c_mul(inst, pc):
    src = inst.operands[0]

    def thunk(state):
        flags = state.regs.flags
        values = state.regs._values
        product = values[0] * values[src]     # rax * src
        low = product & MASK64
        high = (product >> 64) & MASK64
        values[0] = low                       # rax
        values[2] = high                      # rdx
        flags.cf = high != 0
        flags.of = high != 0
        _set_zs(flags, low)
    return thunk


@_compiler("div")
def _c_div(inst, pc):
    src = inst.operands[0]

    def thunk(state):
        values = state.regs._values
        divisor = values[src]
        if divisor == 0:
            raise DivideError(f"divide by zero at {pc:#x}")
        numerator = (values[2] << 64) | values[0]
        quotient = numerator // divisor
        if quotient > MASK64:
            raise DivideError(f"divide overflow at {pc:#x}")
        values[0] = quotient
        values[2] = numerator % divisor
    return thunk


def _c_cmov(inst, pc):
    dst, src = inst.operands
    cond = inst.spec.cond

    def thunk(state):
        regs = state.regs
        if evaluate_cond(cond, regs.flags):
            values = regs._values
            values[dst] = values[src]
    return thunk


def _c_set(inst, pc):
    dst = inst.operands[0]
    cond = inst.spec.cond

    def thunk(state):
        regs = state.regs
        regs._values[dst] = 1 if evaluate_cond(cond, regs.flags) else 0
    return thunk


def _register_conditional_compilers() -> None:
    from ..isa.instructions import COND_NAMES, Cond
    for cond in Cond:
        name = COND_NAMES[cond]
        _COMPILERS[f"cmov{name}"] = _c_cmov
        _COMPILERS[f"set{name}"] = _c_set


_register_conditional_compilers()


def compile_straightline(instruction: Instruction,
                         pc: int) -> Callable[[MachineState], None]:
    """Compile one *sequential* instruction into a specialised thunk.

    The thunk is kept on ``instruction`` and returned as is on later
    calls, except for ``div``, whose thunk names its ``pc``.  Control
    transfers, ``syscall`` and ``hlt`` have no compiler: they
    terminate windows and always go through :func:`execute`.
    """
    thunk = instruction.thunk
    if thunk is not None:
        return thunk
    mnemonic = instruction.mnemonic
    compiler = _COMPILERS.get(mnemonic)
    if compiler is None:
        raise CpuError(f"no semantics for {mnemonic}")
    thunk = compiler(instruction, pc)
    if mnemonic != "div":
        instruction.thunk = thunk
    return thunk


def execute(state: MachineState, instruction: Instruction,
            pc: int) -> Outcome:
    """Architecturally execute ``instruction`` fetched from ``pc``.

    Mutates ``state`` (registers, flags, memory) and returns an
    :class:`Outcome` describing control flow and traps.  ``state.rip``
    is *not* updated — the caller owns the program counter.
    """
    thunk = instruction.thunk
    if thunk is None:
        # exactly the Kind.SEQUENTIAL specs have compilers and every
        # other spec a handler (pinned by tests/test_isa_encoding.py),
        # so this lookup is the kind test
        handler = _HANDLERS.get(instruction.mnemonic)
        if handler is not None:
            return handler(state, instruction, pc)
        thunk = compile_straightline(instruction, pc)
    thunk(state)
    return Outcome(pc + instruction.length)


def covered_mnemonics() -> frozenset:
    """The set of mnemonics with semantics (for exhaustiveness tests)."""
    return frozenset(_HANDLERS) | frozenset(_COMPILERS)
