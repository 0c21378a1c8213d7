"""Instruction semantics vs a Python reference model."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import MachineState
from repro.cpu.semantics import Outcome, compile_straightline, execute
from repro.errors import DivideError, PageFault
from repro.isa import MASK64, SPECS_BY_NAME, make, to_signed
from repro.isa.instructions import Format, Kind
from repro.isa.registers import RSP, SIGN64
from repro.memory import page_base

_u64 = st.integers(min_value=0, max_value=MASK64)


def fresh_state() -> MachineState:
    state = MachineState()
    state.memory.map_range(0x10000, 0x2000, "rw")
    state.setup_stack(0x7FFF0000)
    return state


def run_one(state, mnemonic, *operands, pc=0x400000):
    return execute(state, make(mnemonic, *operands), pc)


class TestAlu:
    @given(_u64, _u64)
    def test_add_wraps(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        run_one(state, "add", 0, 1)
        assert state.regs[0] == (a + b) & MASK64
        assert state.regs.flags.cf == (a + b > MASK64)
        assert state.regs.flags.zf == ((a + b) & MASK64 == 0)

    @given(_u64, _u64)
    def test_sub_borrow(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        run_one(state, "sub", 0, 1)
        assert state.regs[0] == (a - b) & MASK64
        assert state.regs.flags.cf == (a < b)

    @given(_u64, _u64)
    def test_cmp_does_not_write(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        run_one(state, "cmp", 0, 1)
        assert state.regs[0] == a

    @given(_u64, _u64)
    def test_logic_ops(self, a, b):
        for mnemonic, pyop in (("and", lambda x, y: x & y),
                               ("or", lambda x, y: x | y),
                               ("xor", lambda x, y: x ^ y)):
            state = fresh_state()
            state.regs[0], state.regs[1] = a, b
            run_one(state, mnemonic, 0, 1)
            assert state.regs[0] == pyop(a, b)
            assert not state.regs.flags.cf
            assert not state.regs.flags.of

    @given(_u64, _u64)
    def test_adc_chain_matches_wide_add(self, a, b):
        """add/adc limb chains must compute 128-bit addition."""
        state = fresh_state()
        a_lo, a_hi = a & MASK64, 0x1234
        b_lo, b_hi = b & MASK64, 0x5678
        state.regs[0], state.regs[1] = a_lo, b_lo
        state.regs[2], state.regs[3] = a_hi, b_hi
        run_one(state, "add", 0, 1)
        run_one(state, "adc", 2, 3)
        wide = ((a_hi << 64) | a_lo) + ((b_hi << 64) | b_lo)
        assert state.regs[0] == wide & MASK64
        assert state.regs[2] == (wide >> 64) & MASK64

    @given(_u64, _u64)
    def test_sbb_chain_matches_wide_sub(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        state.regs[2], state.regs[3] = 0x9999, 0x1111
        run_one(state, "sub", 0, 1)
        run_one(state, "sbb", 2, 3)
        wide = ((0x9999 << 64) | a) - ((0x1111 << 64) | b)
        assert state.regs[0] == wide & MASK64
        assert state.regs[2] == (wide >> 64) & MASK64

    @given(_u64, st.integers(min_value=0, max_value=63))
    def test_shifts(self, a, count):
        for mnemonic, pyop in (
                ("shl", lambda x: (x << count) & MASK64),
                ("shr", lambda x: x >> count)):
            state = fresh_state()
            state.regs[0] = a
            run_one(state, mnemonic, 0, count)
            assert state.regs[0] == pyop(a)

    @given(_u64, st.integers(min_value=1, max_value=63))
    def test_sar_sign_extends(self, a, count):
        state = fresh_state()
        state.regs[0] = a
        run_one(state, "sar", 0, count)
        assert state.regs[0] == (to_signed(a) >> count) & MASK64

    @given(_u64, _u64)
    def test_mul_wide(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[5] = a, b     # rax, rbp
        run_one(state, "mul", 5)
        product = a * b
        assert state.regs[0] == product & MASK64
        assert state.regs[2] == product >> 64

    @given(_u64, st.integers(min_value=1, max_value=MASK64))
    def test_div(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[2] = a, 0
        state.regs[5] = b
        run_one(state, "div", 5)
        assert state.regs[0] == a // b
        assert state.regs[2] == a % b

    def test_div_by_zero(self):
        state = fresh_state()
        with pytest.raises(DivideError):
            run_one(state, "div", 5)

    def test_div_overflow(self):
        state = fresh_state()
        state.regs[2] = 2     # rdx:rax = 2 << 64
        state.regs[5] = 1
        with pytest.raises(DivideError):
            run_one(state, "div", 5)

    @given(_u64, _u64)
    def test_imul_low_64(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        run_one(state, "imul", 0, 1)
        assert state.regs[0] == (to_signed(a) * to_signed(b)) & MASK64

    @given(_u64)
    def test_inc_dec_preserve_carry(self, a):
        state = fresh_state()
        state.regs.flags.cf = True
        state.regs[0] = a
        run_one(state, "inc", 0)
        assert state.regs[0] == (a + 1) & MASK64
        assert state.regs.flags.cf is True
        run_one(state, "dec", 0)
        assert state.regs[0] == a
        assert state.regs.flags.cf is True

    @given(_u64)
    def test_neg_not(self, a):
        state = fresh_state()
        state.regs[0] = a
        run_one(state, "neg", 0)
        assert state.regs[0] == (-a) & MASK64
        assert state.regs.flags.cf == (a != 0)
        state.regs[0] = a
        run_one(state, "not", 0)
        assert state.regs[0] == ~a & MASK64


class TestDataMovement:
    @given(_u64)
    def test_mov_movi_movabs(self, value):
        state = fresh_state()
        state.regs[1] = value
        run_one(state, "mov", 0, 1)
        assert state.regs[0] == value
        run_one(state, "movabs", 3, value)
        assert state.regs[3] == value
        run_one(state, "movi", 4, -1)
        assert state.regs[4] == MASK64    # sign-extended

    def test_xchg(self):
        state = fresh_state()
        state.regs[0], state.regs[1] = 1, 2
        run_one(state, "xchg", 0, 1)
        assert (state.regs[0], state.regs[1]) == (2, 1)

    @given(_u64, st.integers(min_value=-15, max_value=15))
    def test_load_store(self, value, disp8):
        state = fresh_state()
        state.regs[1] = 0x10100
        state.regs[2] = value
        run_one(state, "store", 1, 2, disp8 * 8)
        run_one(state, "load", 0, 1, disp8 * 8)
        assert state.regs[0] == value

    def test_lea(self):
        state = fresh_state()
        state.regs[1] = 0x5000
        run_one(state, "lea", 0, 1, 0x123)
        assert state.regs[0] == 0x5123

    def test_push_pop(self):
        state = fresh_state()
        rsp0 = state.rsp
        state.regs[1] = 0xAB
        run_one(state, "push", 1)
        assert state.rsp == rsp0 - 8
        run_one(state, "pop", 0)
        assert state.regs[0] == 0xAB
        assert state.rsp == rsp0

    def test_faulting_push_leaves_rsp_decremented(self):
        # RSP moves before the store, as on x86: the fault is taken
        # with RSP already lowered (and wrapped to 64 bits).
        state = fresh_state()
        rsp0 = state.rsp
        state.memory.protect(rsp0 - 8, 8, "r")
        with pytest.raises(PageFault) as fault:
            run_one(state, "push", 1)
        assert state.rsp == rsp0 - 8
        assert (fault.value.address, fault.value.access) == \
            (page_base(rsp0 - 8), "write")
        state.rsp = 0
        with pytest.raises(PageFault):
            run_one(state, "push", 1)
        assert state.rsp == MASK64 - 7

    def test_faulting_pop_leaves_rsp_unchanged(self):
        state = fresh_state()
        run_one(state, "push", 1)
        rsp = state.rsp
        state.memory.protect(rsp, 8, "-w-")
        with pytest.raises(PageFault) as fault:
            run_one(state, "pop", 0)
        assert state.rsp == rsp
        assert (fault.value.address, fault.value.access) == \
            (page_base(rsp), "read")


class TestControl:
    def test_jmp_relative(self):
        state = fresh_state()
        outcome = run_one(state, "jmp", 0x100, pc=0x400000)
        assert outcome.taken is True
        assert outcome.next_pc == 0x400000 + 5 + 0x100

    def test_conditional_taken_and_not(self):
        state = fresh_state()
        state.regs.flags.zf = True
        taken = run_one(state, "je", 0x10, pc=0x1000)
        assert taken.taken is True
        state.regs.flags.zf = False
        fell = run_one(state, "je", 0x10, pc=0x1000)
        assert fell.taken is False
        assert fell.next_pc == 0x1000 + 6

    def test_call_ret_pair(self):
        state = fresh_state()
        call = run_one(state, "call", 0x200, pc=0x1000)
        assert call.next_pc == 0x1000 + 5 + 0x200
        ret = run_one(state, "ret", pc=call.next_pc)
        assert ret.next_pc == 0x1005      # return address

    def test_indirect(self):
        state = fresh_state()
        state.regs[4 + 3] = 0x7777       # rdi
        outcome = run_one(state, "jmpr", 7)
        assert outcome.next_pc == 0x7777

    def test_syscall_and_halt_signals(self):
        state = fresh_state()
        assert run_one(state, "syscall").syscall is True
        assert run_one(state, "hlt").halt is True


class TestConditionals:
    @pytest.mark.parametrize("cond,flags,expected", [
        ("e", dict(zf=True), True),
        ("ne", dict(zf=True), False),
        ("b", dict(cf=True), True),
        ("ae", dict(cf=True), False),
        ("a", dict(cf=False, zf=False), True),
        ("be", dict(cf=False, zf=False), False),
        ("l", dict(sf=True, of=False), True),
        ("ge", dict(sf=True, of=True), True),
        ("g", dict(zf=False, sf=False, of=False), True),
        ("le", dict(zf=True), True),
        ("s", dict(sf=True), True),
        ("ns", dict(sf=True), False),
        ("o", dict(of=True), True),
        ("no", dict(of=True), False),
    ])
    def test_setcc(self, cond, flags, expected):
        state = fresh_state()
        for name, value in flags.items():
            setattr(state.regs.flags, name, value)
        run_one(state, f"set{cond}", 0)
        assert state.regs[0] == int(expected)

    @given(_u64, _u64)
    def test_unsigned_compare_via_setb(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        run_one(state, "cmp", 0, 1)
        run_one(state, "setb", 2)
        assert state.regs[2] == int(a < b)

    @given(_u64, _u64)
    def test_signed_compare_via_setl(self, a, b):
        state = fresh_state()
        state.regs[0], state.regs[1] = a, b
        run_one(state, "cmp", 0, 1)
        run_one(state, "setl", 2)
        assert state.regs[2] == int(to_signed(a) < to_signed(b))

    def test_cmov(self):
        state = fresh_state()
        state.regs[0], state.regs[1] = 1, 2
        state.regs.flags.zf = False
        run_one(state, "cmove", 0, 1)
        assert state.regs[0] == 1
        state.regs.flags.zf = True
        run_one(state, "cmove", 0, 1)
        assert state.regs[0] == 2


# ----------------------------------------------------------------------
# compiled thunks are kept on the instruction
# ----------------------------------------------------------------------
_SAMPLE_OPERANDS = {
    Format.NONE: (), Format.PAD1: (), Format.PAD2: (),
    Format.REG: (3,), Format.REG_PAD: (3,),
    Format.REG_REG: (3, 5), Format.REG_REG_PAD2: (3, 5),
    Format.REG_IMM8: (3, -7), Format.REG_IMM32: (3, 1000),
    Format.REG_IMM64: (3, SIGN64 + 5),
    Format.REG_REG_DISP8: (3, 5, 8), Format.REG_REG_DISP32: (3, 5, 16),
}
_SEQUENTIAL = sorted(name for name, spec in SPECS_BY_NAME.items()
                     if spec.kind is Kind.SEQUENTIAL)


def _sample(mnemonic):
    return make(mnemonic, *_SAMPLE_OPERANDS[SPECS_BY_NAME[mnemonic].fmt])


def _loaded_state():
    state = fresh_state()
    for number in range(16):
        if number != RSP:
            state.regs[number] = 0x10100 + 8 * number
    state.regs[2] = 0                  # rdx: keep div in range
    state.regs[RSP] -= 32              # room for pop
    state.regs.flags.cf = True
    return state


def _observe(state):
    return (list(state.regs._values), state.regs.flags.as_tuple(),
            state.memory.read_bytes(0x10000, 0x2000),
            state.memory.read_bytes(0x7FFF0000 - 64, 64))


def test_compile_straightline_keeps_one_thunk():
    instruction = make("add", 3, 5)
    assert instruction.thunk is None
    thunk = compile_straightline(instruction, 0x400000)
    assert instruction.thunk is thunk
    assert compile_straightline(instruction, 0x500000) is thunk


@pytest.mark.parametrize("mnemonic", _SEQUENTIAL)
def test_shared_instruction_at_two_pcs_matches_fresh_ones(mnemonic):
    shared = _sample(mnemonic)
    for pc in (0x400000, 0x7F0010):
        cached, fresh = _loaded_state(), _loaded_state()
        outcome = execute(cached, shared, pc)
        assert outcome == execute(fresh, _sample(mnemonic), pc)
        assert outcome == Outcome(pc + shared.length)
        assert _observe(cached) == _observe(fresh)


@pytest.mark.parametrize("rdx,divisor,message", [
    (0, 0, "divide by zero"), (2, 1, "divide overflow")])
def test_shared_div_names_each_pc(rdx, divisor, message):
    div = make("div", 5)
    for pc in (0x400000, 0x400010, 0x400000):
        state = fresh_state()
        state.regs[2], state.regs[5] = rdx, divisor
        with pytest.raises(DivideError, match=f"^{message} at {pc:#x}$"):
            execute(state, div, pc)
        with pytest.raises(DivideError, match=f"at {pc:#x}$"):
            compile_straightline(div, pc)(state)
    assert div.thunk is None


def test_cached_thunk_is_not_part_of_the_value():
    compiled, plain = make("xori8", 3, -7), make("xori8", 3, -7)
    execute(_loaded_state(), compiled, 0x400000)
    assert compiled.thunk is not None and plain.thunk is None
    assert compiled == plain and hash(compiled) == hash(plain)
    assert repr(compiled) == repr(plain)
