"""Front-end core: prediction windows, false hits, fusion, drains."""

import pytest

from repro.cpu import Core, MachineState, StopReason, generation
from repro.errors import ExecutionLimitExceeded
from repro.isa import Assembler
from repro.memory import VirtualMemory


def build(asm_fn, base=0x400000):
    asm = Assembler(base=base)
    asm_fn(asm)
    return asm.assemble()


def machine(program, entry=None):
    memory = VirtualMemory()
    program.load_into(memory)
    state = MachineState(memory, rip=entry if entry is not None
                         else program.entry)
    state.setup_stack(0x7FFF0000)
    return state


def run_to_halt(core, state, **kwargs):
    return core.run(state, collect_trace=True, **kwargs)


class TestBasicExecution:
    def test_straight_line(self):
        program = build(lambda asm: (asm.emit("movi", "rax", 7),
                                     asm.emit("addi8", "rax", 3),
                                     asm.emit("hlt")))
        core = Core(generation("skylake"))
        state = machine(program)
        result = run_to_halt(core, state)
        assert result.reason is StopReason.HALT
        assert state.regs["rax"] == 10

    def test_loop_allocates_one_entry(self):
        def body(asm):
            asm.emit("movi", "rcx", 5)
            asm.label("loop")
            asm.emit("dec", "rcx")           # not fusible with jne8?
            asm.emit("test", "rcx", "rcx")
            asm.emit("jne8", "loop")
            asm.emit("hlt")
        core = Core(generation("skylake"))
        state = machine(build(body))
        run_to_halt(core, state)
        # exactly the loop branch lives in the BTB
        assert core.btb.occupancy() == 1

    def test_trace_matches_interpreter(self):
        from repro.cpu import interpret

        def body(asm):
            asm.emit("movi", "rax", 0)
            asm.label("loop")
            asm.emit("addi8", "rax", 2)
            asm.emit("cmpi", "rax", 20)
            asm.emit("jne8", "loop")
            asm.emit("hlt")
        program = build(body)
        core = Core(generation("coffeelake"))
        state = machine(program)
        result = run_to_halt(core, state)
        state2 = machine(program)
        reference = interpret(state2)
        assert result.trace == reference.trace
        assert state.regs["rax"] == state2.regs["rax"]
        # movi, ten passes of the 3-instruction loop, hlt
        assert result.instructions == reference.instructions == 32

    def test_runaway_guard(self):
        program = build(lambda asm: (asm.label("spin"),
                                     asm.emit("jmp8", "spin")))
        core = Core(generation("skylake"))
        with pytest.raises(ExecutionLimitExceeded):
            core.run(machine(program), max_instructions=1000)


class TestPrediction:
    def test_second_run_is_predicted(self):
        def body(asm):
            asm.emit("jmp8", "next")
            asm.label("next")
            asm.emit("hlt")
        program = build(body)
        core = Core(generation("skylake"))
        for expected_mp in (True, False):
            state = machine(program)
            core.lbr.clear()
            run_to_halt(core, state)
            record = core.lbr.records()[0]
            assert record.mispredicted is expected_mp

    def test_wrong_target_updates_entry(self):
        """An indirect jump changing targets mispredicts and the
        entry's target is corrected in place."""
        def body(asm):
            asm.emit("jmpr", "rdi")
            asm.org(0x400100)
            asm.label("t1")
            asm.emit("hlt")
            asm.org(0x400200)
            asm.label("t2")
            asm.emit("hlt")
        program = build(body)
        core = Core(generation("skylake"))
        for target, expected_mp in ((0x400100, True),
                                    (0x400200, True),
                                    (0x400200, False)):
            state = machine(program)
            state.regs["rdi"] = target
            core.lbr.clear()
            run_to_halt(core, state)
            assert core.lbr.records()[0].mispredicted is expected_mp
        assert core.btb.occupancy() == 1

    def test_false_hit_deallocates(self):
        """Takeaway 1 at the core level: a nop aliasing a jump's
        entry kills it."""
        config = generation("skylake")

        def body(asm):
            asm.label("jump")
            asm.emit("jmp8", "land")
            asm.label("land")
            asm.emit("hlt")
            asm.org(0x400000 + config.collision_distance)
            asm.label("sled")
            asm.nops(8)
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        run_to_halt(core, machine(program))          # allocate
        assert core.btb.occupancy() == 1
        run_to_halt(core, machine(program, entry=program.address_of(
            "sled")))                                # false hit
        assert core.btb.occupancy() == 0
        assert core.btb.stats.deallocations == 1


class TestFusion:
    def _victim(self):
        def body(asm):
            asm.emit("movi", "rax", 3)
            asm.emit("cmpi8", "rax", 3)    # fusible
            asm.emit("je8", "out")         # fuses with cmpi8
            asm.emit("movi", "rbx", 1)
            asm.label("out")
            asm.emit("hlt")
        return build(body)

    def test_fused_pair_is_one_retire_unit(self):
        core = Core(generation("skylake", fusion_enabled=True))
        result = run_to_halt(core, machine(self._victim()))
        assert result.instructions == result.retired + 1

    def test_fusion_disabled(self):
        core = Core(generation("skylake", fusion_enabled=False))
        result = run_to_halt(core, machine(self._victim()))
        assert result.instructions == result.retired

    def test_single_step_cannot_split_fused_pair(self):
        core = Core(generation("skylake", fusion_enabled=True))
        state = machine(self._victim())
        result = core.run(state, max_retired=2, collect_trace=True)
        assert result.reason is StopReason.RETIRE_LIMIT
        assert result.retired == 2
        assert result.instructions == 3       # movi + fused pair


class TestSingleStepDrain:
    def test_drain_fires_decode_dealloc(self):
        """Single-stepping one nop of a sled must still deallocate an
        entry aliasing later bytes of the window (§6.3)."""
        config = generation("skylake")

        def body(asm):
            asm.label("jump")
            asm.nops(30)
            asm.emit("jmp8", "land")      # entry at block offset 31
            asm.label("land")
            asm.emit("hlt")
            asm.org(0x400000 + config.collision_distance)
            asm.label("sled")
            asm.nops(40)
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        run_to_halt(core, machine(program))
        assert core.btb.occupancy() >= 1
        state = machine(program, entry=program.address_of("sled"))
        core.run(state, max_retired=1)        # single step one nop
        assert core.btb.stats.deallocations >= 1

    def test_no_drain_when_disabled(self):
        config = generation("skylake", drain_windows=0,
                            spec_lookahead=0)

        def body(asm):
            asm.label("jump")
            asm.nops(30)
            asm.emit("jmp8", "land")
            asm.label("land")
            asm.emit("hlt")
            asm.org(0x400000 + config.collision_distance)
            asm.label("sled")
            asm.nops(40)
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        run_to_halt(core, machine(program))
        deallocs = core.btb.stats.deallocations
        state = machine(program, entry=program.address_of("sled"))
        core.run(state, max_retired=1)
        assert core.btb.stats.deallocations == deallocs


class TestContextSwitchMitigations:
    def test_ibrs_flushes_only_indirect(self):
        core = Core(generation("skylake", ibrs_ibpb=True))

        def body(asm):
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("jmpr", "rdi")
            asm.org(0x400100)
            asm.label("t")
            asm.emit("jmp8", "out")
            asm.label("out")
            asm.emit("hlt")
        run_to_halt(core, machine(build(body)))
        assert core.btb.occupancy() == 2
        core.context_switch(domain=2)
        kinds = {entry.kind.value for entry in core.btb.valid_entries()}
        assert kinds == {"direct_jump"}

    def test_flush_on_switch(self):
        core = Core(generation("skylake", flush_btb_on_switch=True))
        program = build(lambda asm: (asm.emit("jmp8", "x"),
                                     asm.label("x"), asm.emit("hlt")))
        run_to_halt(core, machine(program))
        assert core.btb.occupancy() == 1
        core.context_switch(domain=2)
        assert core.btb.occupancy() == 0


class TestTiming:
    def test_mispredict_costs_cycles(self):
        program = build(lambda asm: (asm.emit("jmp8", "x"),
                                     asm.label("x"), asm.emit("hlt")))
        config = generation("skylake")
        core = Core(config)
        cold = run_to_halt(core, machine(program)).cycles
        warm = run_to_halt(core, machine(program)).cycles
        assert cold - warm >= config.squash_penalty * 0.9

    def test_enclave_mode_gates_lbr(self):
        program = build(lambda asm: (asm.emit("jmp8", "x"),
                                     asm.label("x"), asm.emit("hlt")))
        core = Core(generation("skylake"))
        core.set_enclave_mode(True)
        run_to_halt(core, machine(program))
        assert len(core.lbr.records()) == 0
        core.set_enclave_mode(False)
        run_to_halt(core, machine(program))
        assert len(core.lbr.records()) == 1
