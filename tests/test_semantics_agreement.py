"""Per-mnemonic agreement of the concrete and symbolic semantics.

Every straight-line (``Kind.SEQUENTIAL``) mnemonic runs three ways on
the same concrete inputs:

* :func:`repro.cpu.semantics.execute` (the reference loop and the
  ``interp`` oracle);
* the thunk from :func:`repro.cpu.semantics.compile_straightline`
  (decoded windows, superblocks and the speculative look-ahead);
* one step of the symbolic executor (``repro certify``) on a path
  whose registers, flags and memory overlay are plain ints.

All three must leave the same registers, all four flags and the same
memory, and must trap together: a divide error or memory fault in the
concrete semantics is a ``SymbolicExecError`` (an explicit refusal,
never a silently different path) in the symbolic one.  Operands are
seeded random values plus the edge values 0, 1, ``MASK64`` and
``SIGN64``, shift immediates 0, 1, 63 and >= 64, and division by zero
and overflow.  Symbolic memory accesses must be 8-byte aligned (the
executor refuses others), so every valid address here is aligned.
"""

import itertools
import random
import zlib

import pytest

from repro.analysis.symbolic.bitvec import BitCtx
from repro.analysis.symbolic.executor import (ExploreBudget, Exploration,
                                              SymbolicExecError, _Engine,
                                              _Path, _sym_cond)
from repro.cpu import MachineState
from repro.cpu.semantics import compile_straightline, execute
from repro.errors import ReproError
from repro.isa import MASK64, SPECS_BY_NAME, decode, encode, make
from repro.isa.instructions import Cond, Format, Kind, evaluate_cond
from repro.isa.registers import NUM_REGISTERS, RSP, SIGN64, Flags
from repro.memory import VirtualMemory

PC = 0x400000
DATA = 0x10000            # read-write data page
RODATA = 0x20000          # read-only page
UNMAPPED = 0x50000
STACK_TOP = 0x7FFF0000    # setup_stack maps 64 KiB below it
WINDOW = 32               # initialised words per region

EDGES = (0, 1, 2, MASK64, MASK64 - 1, SIGN64, SIGN64 - 1, SIGN64 + 1,
         0xFFFFFFFF, 1 << 32)
SHIFT_COUNTS = (0, 1, 2, 63, 64, 65, 127, -1, -64, -128)
CASES_PER_MNEMONIC = 96

SEQUENTIAL = sorted(name for name, spec in SPECS_BY_NAME.items()
                    if spec.kind is Kind.SEQUENTIAL)


def _valid_words(base):
    return [base + 8 * k for k in range(WINDOW)]


def _region_words():
    words = _valid_words(DATA) + _valid_words(RODATA)
    words += _valid_words(STACK_TOP - 8 * WINDOW)
    return words


def _build_memory(contents):
    memory = VirtualMemory()
    memory.map_range(DATA, 0x1000, "rw")
    memory.map_range(RODATA, 0x1000, "r")
    for address, value in contents.items():
        memory.write_u64(address, value, check=False)
    return memory


def _fresh_state(case):
    regs, flags, contents = case[1], case[2], case[3]
    state = MachineState(_build_memory(contents))
    state.setup_stack(STACK_TOP)
    state.regs._values = list(regs)
    state.regs.flags = Flags(*map(bool, flags))
    return state


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------
def _value(rng):
    return rng.choice(EDGES) if rng.random() < 0.5 else rng.getrandbits(64)


def _address(rng):
    """One data address: mostly read-write, else read-only or unmapped."""
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(_valid_words(DATA))
    if roll < 0.85:
        return rng.choice(_valid_words(RODATA))
    return UNMAPPED + 8 * rng.randrange(WINDOW)


def _operands(spec, rng, regs):
    fmt, name = spec.fmt, spec.mnemonic
    reg = rng.randrange(NUM_REGISTERS)
    if fmt in (Format.NONE, Format.PAD1, Format.PAD2):
        return ()
    if fmt in (Format.REG, Format.REG_PAD):
        return (reg,)
    if fmt in (Format.REG_REG, Format.REG_REG_PAD2):
        other = reg if rng.random() < 0.2 else rng.randrange(NUM_REGISTERS)
        return (reg, other)
    if fmt is Format.REG_IMM8:
        if name in ("shl", "shr", "sar"):
            return (reg, rng.choice(SHIFT_COUNTS))
        return (reg, rng.choice((0, 1, -1, 127, -128,
                                 rng.randint(-128, 127))))
    if fmt is Format.REG_IMM32:
        return (reg, rng.choice((0, 1, -1, (1 << 31) - 1, -(1 << 31),
                                 rng.randint(-(1 << 31), (1 << 31) - 1))))
    if fmt is Format.REG_IMM64:
        return (reg, _value(rng))
    if fmt in (Format.REG_REG_DISP8, Format.REG_REG_DISP32):
        # load/lea: (dst, base, disp); store: (base, src, disp)
        operands = (reg, rng.randrange(NUM_REGISTERS))
        base = operands[0] if name.startswith("store") else operands[1]
        limit = 16 if fmt is Format.REG_REG_DISP8 else 1 << 20
        disp = 8 * rng.randrange(-limit, limit)
        if name != "lea":
            regs[base] = (_address(rng) - disp) & MASK64
        return operands + (disp,)
    raise AssertionError(f"unhandled format {fmt}")  # pragma: no cover


def _cases(mnemonic):
    """Seeded cases: (instruction, regs, flags, memory contents)."""
    spec = SPECS_BY_NAME[mnemonic]
    rng = random.Random(zlib.crc32(mnemonic.encode()))
    contents = {address: rng.getrandbits(64) for address in _region_words()}
    flag_sets = list(itertools.product((0, 1), repeat=4))
    cases = []
    for index in range(CASES_PER_MNEMONIC):
        regs = [_value(rng) for _ in range(NUM_REGISTERS)]
        regs[RSP] = rng.choice(_valid_words(STACK_TOP - 8 * WINDOW))
        flags = flag_sets[index % len(flag_sets)]
        operands = _operands(spec, rng, regs)
        if mnemonic in ("push", "pop") and rng.random() < 0.3:
            regs[RSP] = _address(rng) + (8 if mnemonic == "push" else 0)
        if mnemonic == "div":
            divisor = regs[operands[0]]
            kind = index % 3
            if kind == 0:                          # divide by zero
                regs[operands[0]] = 0
            elif kind == 1 and divisor:            # in range: rdx < divisor
                regs[2] = rng.randrange(divisor)
            # kind 2: rdx as drawn, so usually a divide overflow
        instruction, _ = decode(encode(make(mnemonic, *operands)))
        cases.append((instruction, tuple(regs), flags, contents))
    return cases


# ----------------------------------------------------------------------
# the three semantics
# ----------------------------------------------------------------------
def _nonzero_pages(memory):
    return {vpn: bytes(page) for vpn, page in memory.pages.items()
            if any(page)}


def _concrete_result(state):
    return ("ok", tuple(state.regs._values),
            tuple(int(flag) for flag in state.regs.flags.as_tuple()),
            _nonzero_pages(state.memory))


def _run_execute(case):
    state = _fresh_state(case)
    instruction = case[0]
    try:
        outcome = execute(state, instruction, PC)
    except ReproError as exc:
        return ("trap", type(exc), str(exc))
    assert outcome.next_pc == PC + instruction.length
    assert outcome.taken is None
    assert not outcome.syscall and not outcome.halt
    return _concrete_result(state)


def _run_thunk(case):
    state = _fresh_state(case)
    thunk = compile_straightline(case[0], PC)
    try:
        thunk(state)
    except ReproError as exc:
        return ("trap", type(exc), str(exc))
    return _concrete_result(state)


def _symbolic_engine(memory):
    """An engine stepping hand-placed instructions over ``memory``."""
    engine = _Engine.__new__(_Engine)
    engine.budget = ExploreBudget()
    engine.ctx = BitCtx()
    engine.out = Exploration(ctx=engine.ctx)
    engine.backing = memory
    engine._decoded = {}
    return engine


def _run_symbolic(case):
    instruction, regs, flags, contents = case
    backing = _fresh_state(case).memory
    engine = _symbolic_engine(backing)
    engine._decoded[PC] = instruction
    engine._decoded[PC + instruction.length] = make("hlt")
    path = _Path(PC, list(regs), dict(zip(("zf", "sf", "cf", "of"), flags)),
                 {}, 1)
    try:
        engine._run_path(path, [])
    except SymbolicExecError as exc:
        return ("trap", SymbolicExecError, str(exc))
    assert path.pc == PC + instruction.length and len(engine.out.paths) == 1
    for word in path.regs + list(path.mem.values()):
        assert isinstance(word, int), "concrete inputs stayed concrete"
    for address, value in path.mem.items():
        backing.write_u64(address, value, check=False)
    return ("ok", tuple(int(value) for value in path.regs),
            tuple(int(path.flags[name]) for name in ("zf", "sf", "cf", "of")),
            _nonzero_pages(backing))


def _assert_agree(case, concrete, symbolic, what):
    assert concrete[0] == symbolic[0], (case, concrete, symbolic, what)
    if concrete[0] == "trap":
        return
    assert concrete[1] == symbolic[1], ("registers", case, what)
    assert concrete[2] == symbolic[2], ("flags", case, what)
    assert concrete[3] == symbolic[3], ("memory", case, what)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mnemonic", SEQUENTIAL)
def test_concrete_and_symbolic_semantics_agree(mnemonic):
    traps = 0
    for case in _cases(mnemonic):
        by_execute = _run_execute(case)
        by_thunk = _run_thunk(case)
        assert by_execute == by_thunk, (case, by_execute, by_thunk)
        _assert_agree(case, by_execute, _run_symbolic(case), mnemonic)
        traps += by_execute[0] == "trap"
    if mnemonic in ("div", "load", "loadw", "store", "storew", "push", "pop"):
        assert traps, f"{mnemonic}: no trapping case was generated"
    else:
        assert not traps


@pytest.mark.parametrize("cond", list(Cond))
def test_symbolic_conditions_match_evaluate_cond(cond):
    ctx = BitCtx()
    for zf, sf, cf, of in itertools.product((0, 1), repeat=4):
        expected = evaluate_cond(cond, Flags(*map(bool, (zf, sf, cf, of))))
        got = _sym_cond(ctx, cond, {"zf": zf, "sf": sf, "cf": cf, "of": of})
        assert got in (0, 1) and bool(got) == bool(expected)


@pytest.mark.parametrize("mnemonic,operands", [("store", (0, 1, 0)),
                                               ("push", (1,))])
@pytest.mark.parametrize("address", [RODATA, UNMAPPED])
def test_symbolic_store_to_unwritable_memory_is_refused(mnemonic, operands,
                                                        address):
    """Regression: the symbolic executor once stored into its overlay
    without the write check, so a path continued where the concrete
    store raised a page fault."""
    regs = [0] * NUM_REGISTERS
    regs[RSP] = STACK_TOP - 8 * WINDOW
    regs[0] = address if mnemonic == "store" else 0
    if mnemonic == "push":
        regs[RSP] = address + 8
    case = (make(mnemonic, *operands), tuple(regs), (0, 0, 0, 0), {})
    assert _run_execute(case)[0] == "trap"
    outcome = _run_symbolic(case)
    assert outcome[0] == "trap" and "unwritable address" in outcome[2]
