"""Interpreter vs core differential testing: architectural state must
agree regardless of micro-architectural modelling."""

from hypothesis import given, settings, strategies as st

from repro.cpu import (Core, InterpStop, MachineState, generation,
                       interpret, run_function, set_fast_path)
from repro.errors import SimulationTimeout
from repro.isa import Assembler
from repro.memory import VirtualMemory

#: small straight-line instruction menu for random programs
_MENU = [
    ("movi", "reg", "imm32"),
    ("addi8", "reg", "imm8"),
    ("subi8", "reg", "imm8"),
    ("add", "reg", "reg"),
    ("sub", "reg", "reg"),
    ("xor", "reg", "reg"),
    ("and", "reg", "reg"),
    ("imul", "reg", "reg"),
    ("shl", "reg", "shift"),
    ("shr", "reg", "shift"),
    ("inc", "reg"),
    ("neg", "reg"),
    ("cmp", "reg", "reg"),
    ("sete", "reg"),
    ("cmovb", "reg", "reg"),
    ("nop",),
]

_SAFE_REGS = [0, 1, 2, 3, 6, 7]     # avoid rsp/rbp


@st.composite
def straightline_programs(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    items = []
    for _ in range(count):
        template = draw(st.sampled_from(_MENU))
        operands = []
        for kind in template[1:]:
            if kind == "reg":
                operands.append(draw(st.sampled_from(_SAFE_REGS)))
            elif kind == "imm8":
                operands.append(draw(st.integers(-128, 127)))
            elif kind == "imm32":
                operands.append(draw(st.integers(0, (1 << 31) - 1)))
            elif kind == "shift":
                operands.append(draw(st.integers(0, 63)))
        items.append((template[0], tuple(operands)))
    return items


def _machine(program):
    memory = VirtualMemory()
    program.load_into(memory)
    state = MachineState(memory, rip=program.entry)
    state.setup_stack(0x7FFF0000)
    return state


@settings(max_examples=60, deadline=None)
@given(straightline_programs())
def test_core_and_interp_agree_on_random_programs(items):
    asm = Assembler(base=0x400000)
    for mnemonic, operands in items:
        asm.emit(mnemonic, *operands)
    asm.emit("hlt")
    program = asm.assemble()

    state_core = _machine(program)
    core = Core(generation("coffeelake"))
    core_result = core.run(state_core, collect_trace=True)

    state_interp = _machine(program)
    interp_result = interpret(state_interp)

    assert core_result.trace == interp_result.trace
    assert state_core.regs.snapshot() == state_interp.regs.snapshot()
    assert state_core.regs.flags == state_interp.regs.flags


def test_interpret_stops_on_unhandled_syscall():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rax", 24)
    asm.emit("syscall")
    asm.emit("hlt")
    state = _machine(asm.assemble())
    result = interpret(state)
    assert result.reason is InterpStop.SYSCALL


def test_interpret_syscall_handler_continues():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rax", 24)
    asm.emit("syscall")
    asm.emit("movi", "rbx", 7)
    asm.emit("hlt")
    state = _machine(asm.assemble())
    seen = []
    result = interpret(state,
                       syscall_handler=lambda s: seen.append(1) or True)
    assert result.reason is InterpStop.HALT
    assert seen == [1]
    assert state.regs["rbx"] == 7


def test_run_function_returns_via_sentinel():
    asm = Assembler(base=0x400000)
    asm.label("double_it")
    asm.emit("mov", "rax", "rdi")
    asm.emit("add", "rax", "rax")
    asm.emit("ret")
    program = asm.assemble()
    state = _machine(program)
    result = run_function(state, program.address_of("double_it"),
                          args=[21])
    assert result.reason is InterpStop.RETURNED
    assert state.regs["rax"] == 42


def test_branch_events_record_directions():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rcx", 3)
    asm.label("loop")
    asm.emit("dec", "rcx")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    state = _machine(asm.assemble())
    result = interpret(state)
    directions = [taken for _, taken in result.branch_events]
    assert directions == [True, True, False]



# ----------------------------------------------------------------------
# run_function: fast path ≡ slow path at every way a call can stop
# ----------------------------------------------------------------------
def _callee_program():
    """``work(n)``: a loop with a data-dependent branch, a syscall
    every iteration, and a call into a helper — so runs stop inside
    windows, on terminators, at the syscall and on the final return."""
    asm = Assembler(base=0x400000)
    asm.label("work")
    asm.emit("mov", "rcx", "rdi")
    asm.emit("movi", "rax", 0)
    asm.emit("movi", "rbx", 0)
    asm.label("loop")
    asm.emit("addi8", "rax", 3)
    asm.emit("xor", "rbx", "rax")
    asm.emit("testi", "rcx", 1)
    asm.emit("je", "even")
    asm.emit("call", "helper")
    asm.label("even")
    asm.emit("push", "rax")
    asm.emit("movi", "rax", 24)
    asm.emit("syscall")
    asm.emit("pop", "rax")
    asm.emit("dec", "rcx")
    asm.emit("jne", "loop")
    asm.emit("ret")
    asm.align(32)
    asm.label("helper")
    asm.emit("shl", "rbx", 1)
    asm.emit("inc", "rbx")
    asm.emit("ret")
    return asm.assemble()


def _continuing(seen):
    """Syscall handler that records each syscall's RIP and continues."""
    return lambda state: seen.append(state.rip) or True


def _run_function_both(handler_factory=None, **kwargs):
    """Call ``work`` with the fast path off, then on; return both
    observations: stop reason or timeout figures, count, trace, branch
    events, RIP, registers and the syscalls the handler saw."""
    program = _callee_program()
    observed = []
    for fast in (False, True):
        previous = set_fast_path(fast)
        try:
            state = _machine(program)
            seen = []
            if handler_factory is not None:
                kwargs["syscall_handler"] = handler_factory(seen)
            try:
                result = run_function(state, program.address_of("work"),
                                      **kwargs)
                outcome = (result.reason, result.instructions,
                           tuple(result.trace),
                           tuple(result.branch_events))
            except SimulationTimeout as error:
                outcome = ("timeout", error.budget, error.executed)
            observed.append((outcome, state.rip, state.regs.snapshot(),
                             tuple(seen)))
        finally:
            set_fast_path(previous)
    return observed


def test_run_function_budget_parity():
    """The instruction budget lands mid-window, on terminators and on
    the syscall; the timeout's budget/executed and RIP must agree."""
    for budget in range(1, 60):
        slow, fast = _run_function_both(
            _continuing, args=[5], max_instructions=budget)
        assert slow == fast, budget
        assert slow[0][0] == "timeout"
        assert slow[0][1:] == (budget, budget)


def test_run_function_unhandled_syscall_parity():
    slow, fast = _run_function_both(args=[5])
    assert slow == fast
    assert slow[0][0] is InterpStop.SYSCALL


def test_run_function_handler_false_parity():
    """A handler returning False stops the call at its second syscall."""
    def factory(seen):
        def handler(state):
            seen.append(state.rip)
            return len(seen) < 2
        return handler

    slow, fast = _run_function_both(factory, args=[5])
    assert slow == fast
    assert slow[0][0] is InterpStop.SYSCALL
    assert len(slow[3]) == 2


def test_run_function_sentinel_return_parity():
    slow, fast = _run_function_both(_continuing, args=[7])
    assert slow == fast
    assert slow[0][0] is InterpStop.RETURNED
    assert len(slow[3]) == 7
    assert slow[0][3]                        # branch events recorded
