"""Differential proof: decoded-window fast path ≡ generic slow path.

The side channel *is* the micro-architectural state, so the fast path
must be bit-identical — architectural registers and memory, PC traces,
retired counts, cycle totals, BTB contents and LBR records — or the
reproduction is wrong.  Every victim in the corpus (gcd, bn_cmp,
RSA-keyed gcd, traversal gadgets) runs twice, fast path forced off and
on, and the complete observable state is compared.
"""

import dataclasses
import functools
import random

import pytest

from repro.cpu import (Core, MachineState, StopReason, interpret,
                      run_function, set_fast_path)
from repro.cpu.config import (BTB_BACKENDS, DEFAULT_GENERATION,
                              backend_generation, generation)
from repro.cpu.interp import _run as interp_run
from repro.isa import Assembler
from repro.isa.instructions import Kind
from repro.lang import CompileOptions
from repro.memory import VirtualMemory
from repro.sgx import CodePageTracker, DataAccessMonitor, SgxStepper
from repro.system.kernel import Kernel
from repro.victims.library import (ENCLAVE_DATA_BASE, build_bn_cmp_victim,
                                   build_gcd_victim)
from repro.victims.rsa import generate_key


@pytest.fixture(autouse=True)
def _restore_fast_path():
    from repro.cpu.decoded import fast_path_enabled
    before = fast_path_enabled()
    yield
    set_fast_path(before)


# ----------------------------------------------------------------------
# observable-state capture
# ----------------------------------------------------------------------
def core_observables(core, state, result_list):
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
           for r in core.lbr.records()]
    runs = [(r.reason, r.retired, r.instructions, r.cycles,
             tuple(r.trace or ()), tuple(r.unit_starts or ()))
            for r in result_list]
    return {
        "runs": runs,
        "regs": state.regs.snapshot(),
        "flags": state.regs.flags.as_tuple(),
        "rip": state.rip,
        "cycles": core.cycles,
        "total_retired": core.total_retired,
        "btb": btb,
        "lbr": lbr,
    }


def run_victim_core(victim, inputs, *, fast, config=None,
                    max_retired=None):
    """Run a victim start-to-halt on a fresh core; capture everything."""
    previous = set_fast_path(fast)
    try:
        memory = victim.new_memory(inputs)
        state = MachineState(memory)
        state.setup_stack(0x7FFF_0000_0000)
        state.rip = victim.compiled.start
        core = Core(config if config is not None else DEFAULT_GENERATION)
        results = []
        for _ in range(2_000_000):
            result = core.run(state, collect_trace=True,
                              max_retired=max_retired)
            results.append(result)
            if result.reason is StopReason.SYSCALL:
                state.regs["rax"] = 0          # yields are no-ops
                continue
            if result.reason is StopReason.RETIRE_LIMIT:
                continue
            break
        observables = core_observables(core, state, results)
        observables["data"] = {
            name: memory.read_bytes(spec.address, spec.size, check=False)
            for name, spec in victim.layout.arrays.items()
        }
        return observables
    finally:
        set_fast_path(previous)


def run_victim_interp(victim, inputs, *, fast):
    previous = set_fast_path(fast)
    try:
        memory = victim.new_memory(inputs)
        state = MachineState(memory)
        state.setup_stack(0x7FFF_0000_0000)
        entry = victim.compiled.info(victim.main).entry
        result = run_function(state, entry,
                              syscall_handler=lambda s: True)
        return {
            "reason": result.reason,
            "instructions": result.instructions,
            "trace": tuple(result.trace),
            "branch_events": tuple(result.branch_events),
            "regs": state.regs.snapshot(),
            "flags": state.regs.flags.as_tuple(),
        }
    finally:
        set_fast_path(previous)


# ----------------------------------------------------------------------
# victim corpus
# ----------------------------------------------------------------------
def corpus():
    gcd = build_gcd_victim("3.0", nlimbs=2)
    bn = build_bn_cmp_victim(nlimbs=3, iters=2)
    rsa_gcd = build_gcd_victim("2.16", nlimbs=2)
    key = generate_key(bits_per_prime=24, seed=11)
    rsa_a, rsa_b = key.gcd_inputs()
    return [
        ("gcd", gcd, {"ta": 0x1234_5678_9ABC, "tb": 0x0FED_CBA9}),
        ("bn_cmp", bn, {"a": (7 << 130) | 12345, "b": (7 << 130) | 999}),
        ("rsa_gcd", rsa_gcd, {"ta": rsa_a, "tb": rsa_b}),
    ]


@pytest.mark.parametrize("name,victim,inputs",
                         corpus(), ids=lambda v: v if isinstance(v, str)
                         else "")
class TestVictimCorpus:
    def test_core_full_run_identical(self, name, victim, inputs):
        slow = run_victim_core(victim, inputs, fast=False)
        fast = run_victim_core(victim, inputs, fast=True)
        assert slow == fast

    def test_core_single_step_identical(self, name, victim, inputs):
        slow = run_victim_core(victim, inputs, fast=False,
                               max_retired=1)
        fast = run_victim_core(victim, inputs, fast=True,
                               max_retired=1)
        assert slow == fast

    def test_interp_identical(self, name, victim, inputs):
        slow = run_victim_interp(victim, inputs, fast=False)
        fast = run_victim_interp(victim, inputs, fast=True)
        assert slow == fast

    def test_fusion_disabled_identical(self, name, victim, inputs):
        config = dataclasses.replace(DEFAULT_GENERATION,
                                     fusion_enabled=False)
        slow = run_victim_core(victim, inputs, fast=False, config=config)
        fast = run_victim_core(victim, inputs, fast=True, config=config)
        assert slow == fast


# ----------------------------------------------------------------------
# traversal gadgets: call/ret chains hopping across many blocks (the
# §6 traversal shape: every transfer seeds a BTB entry the attacker
# walks)
# ----------------------------------------------------------------------
def traversal_gadget():
    asm = Assembler(base=0x0040_0000)
    asm.emit("movi", "rcx", 60)
    asm.emit("movi", "rax", 0)
    asm.label("loop")
    asm.emit("call", "leaf_a")
    asm.emit("call", "leaf_b")
    asm.emit("dec", "rcx")
    asm.emit("jne", "loop")
    asm.emit("hlt")
    asm.align(32)
    asm.label("leaf_a")
    asm.emit("addi8", "rax", 5)
    asm.emit("test", "rax", "rax")
    asm.emit("cmovne", "rdx", "rax")
    asm.emit("ret")
    asm.align(32)
    asm.label("leaf_b")
    asm.emit("subi8", "rax", 2)
    asm.emit("shl", "rax", 1)
    asm.emit("shr", "rax", 1)
    asm.emit("ret")
    return asm.assemble()


def run_program_core(program, *, fast, config=None, max_retired=None,
                     step_budget=500_000):
    previous = set_fast_path(fast)
    try:
        memory = VirtualMemory()
        program.load_into(memory)
        state = MachineState(memory, rip=program.entry)
        state.setup_stack(0x7FFF_0000)
        core = Core(config if config is not None else DEFAULT_GENERATION)
        results = []
        for _ in range(step_budget):
            result = core.run(state, collect_trace=True,
                              max_retired=max_retired)
            results.append(result)
            if result.reason is not StopReason.RETIRE_LIMIT:
                break
        return core_observables(core, state, results)
    finally:
        set_fast_path(previous)


class TestTraversalGadget:
    def test_full_run_identical(self):
        program = traversal_gadget()
        assert (run_program_core(program, fast=False)
                == run_program_core(program, fast=True))

    def test_single_step_identical(self):
        program = traversal_gadget()
        assert (run_program_core(program, fast=False, max_retired=1)
                == run_program_core(program, fast=True, max_retired=1))

    def test_skylake_generation_identical(self):
        program = traversal_gadget()
        config = generation("skylake")
        assert (run_program_core(program, fast=False, config=config)
                == run_program_core(program, fast=True, config=config))


# ----------------------------------------------------------------------
# single-stepped enclave: the NV-S setting.  The EPC access filter, the
# page tracker's NX code pages and the data monitor's A/D bits are all
# live, so the cached executor stands aside and every step runs on the
# reference loop, its speculative look-ahead included.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def enclave_gcd_victim():
    return build_gcd_victim("3.0", options=CompileOptions(opt_level=2),
                            nlimbs=1, with_yield=False,
                            data_base=ENCLAVE_DATA_BASE)


def step_enclave_gcd(*, fast, config):
    """Single-step the enclave GCD to its exit under the page tracker
    and the data monitor; capture the observables after every step."""
    previous = set_fast_path(fast)
    try:
        victim = enclave_gcd_victim()
        host, enclave = victim.new_enclave({"ta": 27, "tb": 12})
        kernel = Kernel(Core(config))
        kernel.add_process(host)
        stepper = SgxStepper(kernel, host, enclave)
        tracker = CodePageTracker(kernel, host, enclave)
        monitor = DataAccessMonitor(host, enclave)
        tracker.install()
        stepper.enter(entry=victim.compiled.start)
        core = kernel.core
        steps = []
        for _ in range(5_000):
            monitor.arm()
            step = stepper.step()
            # (Entry domains are process ids, which differ per run.)
            btb = sorted((e.tag, e.set_index, e.offset, e.target,
                          e.kind.value)
                         for e in core.btb.valid_entries())
            lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
                   for r in core.lbr.records()]
            steps.append((step.retired, step.running, btb,
                          dataclasses.astuple(core.btb.stats), lbr,
                          list(tracker.page_trace),
                          sorted(monitor.touched())))
            if not step.running:
                break
        else:
            pytest.fail("enclave did not exit")
        final = (host.state.regs.snapshot(), host.state.rip, core.cycles,
                 core.total_retired)
        return steps, final, bool(host.memory.window_cache)
    finally:
        set_fast_path(previous)


@pytest.mark.parametrize("spec_lookahead", [0, 1, 12])
@pytest.mark.parametrize("backend", sorted(BTB_BACKENDS))
def test_single_stepped_enclave_identical(backend, spec_lookahead):
    config = backend_generation(backend, spec_lookahead=spec_lookahead)
    slow_steps, slow_final, slow_windows = step_enclave_gcd(
        fast=False, config=config)
    fast_steps, fast_final, fast_windows = step_enclave_gcd(
        fast=True, config=config)
    assert len(slow_steps) > 100
    assert len(slow_steps) == len(fast_steps)
    for index, (slow, fast) in enumerate(zip(slow_steps, fast_steps)):
        assert slow == fast, index
    assert slow_final == fast_final
    # No single-step path builds windows under an access filter.
    assert not slow_windows
    assert not fast_windows


# ----------------------------------------------------------------------
# randomized straight-line + branch soup (catches thunk/handler drift
# for every compiled mnemonic)
# ----------------------------------------------------------------------
_SEQ_EMITS = [
    lambda rng: ("movi", _r(rng), rng.randrange(0, 1 << 31)),
    lambda rng: ("movabs", _r(rng), rng.randrange(0, 1 << 63)),
    lambda rng: ("add", _r(rng), _r(rng)),
    lambda rng: ("sub", _r(rng), _r(rng)),
    lambda rng: ("adc", _r(rng), _r(rng)),
    lambda rng: ("sbb", _r(rng), _r(rng)),
    lambda rng: ("and", _r(rng), _r(rng)),
    lambda rng: ("or", _r(rng), _r(rng)),
    lambda rng: ("xor", _r(rng), _r(rng)),
    lambda rng: ("cmp", _r(rng), _r(rng)),
    lambda rng: ("test", _r(rng), _r(rng)),
    lambda rng: ("addi8", _r(rng), rng.randrange(0, 128)),
    lambda rng: ("subi8", _r(rng), rng.randrange(0, 128)),
    lambda rng: ("cmpi", _r(rng), rng.randrange(0, 1 << 31)),
    lambda rng: ("andi", _r(rng), rng.randrange(0, 1 << 31)),
    lambda rng: ("ori8", _r(rng), rng.randrange(0, 128)),
    lambda rng: ("xori8", _r(rng), rng.randrange(0, 128)),
    lambda rng: ("testi", _r(rng), rng.randrange(0, 1 << 31)),
    lambda rng: ("imul", _r(rng), _r(rng)),
    lambda rng: ("shl", _r(rng), rng.randrange(0, 20)),
    lambda rng: ("shr", _r(rng), rng.randrange(0, 20)),
    lambda rng: ("sar", _r(rng), rng.randrange(0, 20)),
    lambda rng: ("inc", _r(rng)),
    lambda rng: ("dec", _r(rng)),
    lambda rng: ("neg", _r(rng)),
    lambda rng: ("not", _r(rng)),
    lambda rng: ("mov", _r(rng), _r(rng)),
    lambda rng: ("xchg", _r(rng), _r(rng)),
    lambda rng: ("lea", _r(rng), _r(rng), rng.randrange(0, 256)),
    lambda rng: ("cmove", _r(rng), _r(rng)),
    lambda rng: ("cmovb", _r(rng), _r(rng)),
    lambda rng: ("setne", _r(rng)),
    lambda rng: ("setg", _r(rng)),
    lambda rng: ("cmc",),
    lambda rng: ("nop",),
]

#: scratch registers only — never rsp (4) or the data pointer rsi (6)
_SCRATCH = ["rax", "rbx", "rcx", "rdx", "rdi", "r8", "r9", "r10",
            "r11", "r12", "r13", "r14", "r15"]


def _r(rng):
    return rng.choice(_SCRATCH)


def random_program(seed):
    rng = random.Random(seed)
    asm = Assembler(base=0x0040_0000)
    asm.emit("movi", "rsi", 0x0090_0000)
    asm.emit("movi", "rbp", 40)            # outer trip count
    asm.label("outer")
    for block in range(3):
        for _ in range(rng.randrange(6, 18)):
            asm.emit(*rng.choice(_SEQ_EMITS)(rng))
        if rng.random() < 0.7:
            asm.emit("store", "rsi", _r(rng), 8 * block)
            asm.emit("load", _r(rng), "rsi", 8 * block)
    asm.emit("dec", "rbp")
    asm.emit("jne", "outer")
    asm.emit("hlt")
    return asm.assemble()


@pytest.mark.parametrize("seed", range(6))
def test_random_soup_core_identical(seed):
    program = random_program(seed)

    def run(fast):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory)
            memory.map_range(0x0090_0000, 4096, "rw")
            state = MachineState(memory, rip=program.entry)
            state.setup_stack(0x7FFF_0000)
            core = Core()
            result = core.run(state, collect_trace=True)
            observables = core_observables(core, state, [result])
            observables["scratch"] = memory.read_bytes(
                0x0090_0000, 64, check=False)
            return observables
        finally:
            set_fast_path(previous)

    assert run(False) == run(True)


@pytest.mark.parametrize("seed", range(6))
def test_random_soup_interp_identical(seed):
    program = random_program(seed)

    def run(fast):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory)
            memory.map_range(0x0090_0000, 4096, "rw")
            state = MachineState(memory, rip=program.entry)
            state.setup_stack(0x7FFF_0000)
            result = interpret(state)
            return (result.reason, result.instructions,
                    tuple(result.trace), tuple(result.branch_events),
                    state.regs.snapshot(), state.regs.flags.as_tuple())
        finally:
            set_fast_path(previous)

    assert run(False) == run(True)


def test_interp_budget_clip_mid_window():
    """The instruction budget can land mid-window; counts and RIP must
    match the slow path exactly."""
    program = random_program(3)

    def run(fast, budget):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory)
            memory.map_range(0x0090_0000, 4096, "rw")
            state = MachineState(memory, rip=program.entry)
            state.setup_stack(0x7FFF_0000)
            # the run loop itself: ``interpret`` raises at the budget
            result = interp_run(state, budget, True, None)
            return (result.reason, result.instructions,
                    tuple(result.trace), state.rip,
                    state.regs.snapshot())
        finally:
            set_fast_path(previous)

    for budget in (1, 2, 7, 23, 100, 301):
        assert run(False, budget) == run(True, budget)


def test_core_guard_clip_mid_window():
    """max_instructions (the runaway guard) clips fast-path windows."""
    program = traversal_gadget()

    def run(fast, budget):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory)
            state = MachineState(memory, rip=program.entry)
            state.setup_stack(0x7FFF_0000)
            core = Core()
            try:
                core.run(state, collect_trace=True,
                         max_instructions=budget)
            except Exception as error:
                return (type(error).__name__, state.rip, core.cycles,
                        state.regs.snapshot())
            return ("completed", state.rip, core.cycles,
                    state.regs.snapshot())
        finally:
            set_fast_path(previous)

    for budget in (1, 3, 10, 57):
        assert run(False, budget) == run(True, budget)


def test_preallocated_entry_at_every_offset_single_step_sweep():
    """One 32-byte block — a straight-line prefix ending in a fusible
    ``dec``, then the conditional exit ``jne8`` — with a BTB entry
    pre-allocated at each byte offset of the block: inside the prefix
    (a false hit mid-bundle), on the Jcc's anchor byte (a predicted
    edge) and past it.  Every retire budget up to the program's length
    clips the prefix somewhere else, so fast must equal slow on every
    observable at each (offset, budget) pair."""
    asm = Assembler(base=0x0040_0000)
    asm.label("block")
    asm.emit("addi8", "rax", 5)
    asm.emit("xor", "rbx", "rax")
    asm.emit("shl", "rbx", 1)
    asm.emit("inc", "rdx")
    asm.emit("dec", "rcx")
    asm.emit("jne8", "block")
    asm.emit("hlt")
    program = asm.assemble()
    block = program.address_of("block")

    def run(fast, offset, max_retired):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory)
            state = MachineState(memory, rip=block)
            state.setup_stack(0x7FFF_0000)
            state.regs["rcx"] = 3
            core = Core()
            core.btb.allocate(block + offset, block, Kind.COND_JUMP)
            results = []
            for _ in range(1_000):
                result = core.run(state, collect_trace=True,
                                  max_retired=max_retired)
                results.append(result)
                if result.reason is not StopReason.RETIRE_LIMIT:
                    break
            return core_observables(core, state, results)
        finally:
            set_fast_path(previous)

    length = run(False, 0x1F, None)["runs"][0][1]
    for offset in range(32):
        for max_retired in range(1, length + 1):
            slow = run(False, offset, max_retired)
            assert slow == run(True, offset, max_retired), (offset,
                                                            max_retired)
            assert slow["runs"][-1][0] is StopReason.HALT


def test_lookahead_prediction_at_every_offset_sweep():
    """Single-step a taken ``jmp`` into a block whose straight-line
    prefix leads to another ``jmp``, with a BTB entry pre-allocated at
    each byte offset of that block.  A taken step leaves nothing for
    the fetch-ahead drain, so the speculative look-ahead is first to
    meet the prediction: inside its prefix (a false hit the reference
    loop must burn down), on the jump's anchor byte, or past it.  The
    windowed look-ahead must leave every observable as the reference
    loop does, at every depth."""
    asm = Assembler(base=0x0040_0000)
    asm.emit("jmp8", "body")            # the stepped unit
    asm.align(32)
    asm.label("body")
    asm.emit("addi8", "rbx", 5)
    asm.emit("xor", "rcx", "rbx")
    asm.emit("shl", "rcx", 1)
    asm.emit("inc", "rdx")
    asm.emit("jmp8", "far")
    asm.org(0x0040_0060)
    asm.label("far")
    asm.emit("movi", "rsi", 2)
    asm.emit("hlt")
    program = asm.assemble()
    body = program.address_of("body")

    def run(fast, offset, depth):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory)
            state = MachineState(memory, rip=program.entry)
            state.setup_stack(0x7FFF_0000)
            core = Core(DEFAULT_GENERATION.with_(spec_lookahead=depth))
            core.btb.allocate(body + offset, program.address_of("far"),
                              Kind.DIRECT_JUMP)
            result = core.run(state, collect_trace=True, max_retired=1)
            observables = core_observables(core, state, [result])
            observables["stats"] = dataclasses.astuple(core.btb.stats)
            return observables
        finally:
            set_fast_path(previous)

    for depth in (1, 3, 12):
        for offset in range(32):
            assert run(False, offset, depth) == run(True, offset, depth), (
                depth, offset)
