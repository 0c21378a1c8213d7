"""Post-interrupt fetch-ahead and speculative execution (§6.3) —
the behaviours NV-S single-stepping fundamentally relies on."""

import pytest

from repro.cpu import (Core, MachineState, StopReason, generation,
                       set_fast_path)
from repro.cpu.decoded import decode_at
from repro.errors import EnclaveAccessError, ProtectionFault
from repro.isa import Assembler, Kind
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


def _alias_sled(config, victim_block_fn):
    """Program with a jmp entry in one block plus an aliased region
    built by victim_block_fn."""
    def body(asm):
        asm.label("jump")
        asm.nops(30)
        asm.emit("jmp8", "land")       # entry at block offset 31
        asm.label("land")
        asm.emit("hlt")
        asm.org(0x400000 + config.collision_distance)
        asm.label("sled")
        victim_block_fn(asm)
    return build(body)


class TestDrain:
    def test_speculation_stops_at_nx_page(self):
        """Speculative fetch past the stepped instruction never
        crosses an NX page boundary — and never faults
        architecturally (controlled-channel NX marking must not be
        tripped by fetch-ahead)."""
        config = generation("skylake")

        def body(asm):
            # stepped instruction is the last one on page 0
            asm.org(0x400FF8)
            asm.label("start")
            asm.emit("movi", "rbx", 1)      # 7 bytes: 0x400FF8..FFE
            asm.emit("nop")                 # 0x400FFF
            asm.label("next_page")          # 0x401000 (page 1)
            asm.emit("jmp8", "later")
            asm.label("later")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program, entry=program.address_of("start"))
        state.memory.protect(0x401000, 4096, "r--")   # page 1 NX
        result = core.run(state, max_retired=2)
        # both page-0 instructions retired; the page-1 jump was never
        # speculatively fetched (no allocation, no fault)
        assert result.retired == 2
        assert core.btb.occupancy() == 0

    def test_drain_follows_direct_jump_and_allocates(self):
        """Decode-time allocation: an unretired direct jump leaves a
        BTB entry behind (what makes Fig. 5 cases 1/2 visible when
        single-stepping)."""
        config = generation("skylake")

        def body(asm):
            asm.label("start")
            asm.emit("movi", "rax", 1)       # the stepped instruction
            asm.emit("jmp", "target")        # never retires
            asm.org(0x400100)
            asm.label("target")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        core.run(state, max_retired=1)
        # only the movi retired...
        assert state.rip == program.address_of("start") + 7
        # ...but the jump's entry exists (allocated at decode)
        jmp_pc = program.address_of("start") + 7
        assert core.btb.entry_for(jmp_pc + 5 - 1) is not None

    def test_drain_assumes_conditionals_not_taken(self):
        """Fetch-ahead walks the fall-through of an unpredicted
        conditional, reaching (and deallocating) later aliases."""
        config = generation("skylake")

        def victim(asm):
            asm.nops(8)
            asm.emit("cmpi8", "rax", 99)
            asm.emit("je", "far")             # never fuses: je is 6B
            asm.nops(10)
            asm.label("far")
            asm.emit("hlt")
        program = _alias_sled(config, victim)
        core = Core(config)
        core.run(machine(program))            # allocate jmp entry
        occupancy = core.btb.occupancy()
        state = machine(program, entry=program.address_of("sled"))
        core.run(state, max_retired=1)        # step one nop
        assert core.btb.stats.deallocations >= 1


class TestSpeculativeExecution:
    def test_spec_verifies_ret_target(self):
        """A predicted ret whose target changed gets corrected
        speculatively (observable target update)."""
        config = generation("skylake", spec_lookahead=4)

        def body(asm):
            asm.label("fn")
            asm.emit("ret")
            asm.org(0x400100)
            asm.label("caller")
            asm.emit("call", "fn")
            asm.emit("hlt")
            asm.org(0x400200)
            asm.label("caller2")
            asm.emit("call", "fn")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        core.run(machine(program, entry=program.address_of("caller")))
        entry = core.btb.entry_for(program.address_of("fn"))
        assert entry is not None
        first_target = entry.target
        # single-step just the call from the second site; the ret
        # executes only speculatively, yet its entry is re-targeted
        state = machine(program, entry=program.address_of("caller2"))
        core.run(state, max_retired=1)
        assert entry.target != first_target

    def test_spec_disabled_is_precise(self):
        config = generation("skylake", spec_lookahead=0,
                            drain_windows=0)

        def body(asm):
            asm.emit("movi", "rax", 1)
            asm.emit("jmp8", "next")
            asm.label("next")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        core.run(state, max_retired=1)
        assert core.btb.occupancy() == 0      # nothing ran ahead

    def test_spec_does_not_commit_architectural_state(self):
        config = generation("skylake", spec_lookahead=8)

        def body(asm):
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("movi", "rbx", 99)      # speculative only
            asm.emit("storew", "rsp", "rbx", -64)
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        rsp = state.rsp
        core.run(state, max_retired=1)
        assert state.regs["rbx"] == 0
        assert state.memory.read_u64(rsp - 64, check=False) == 0

    def test_spec_stops_at_lfence(self):
        """lfence serializes *execution*: an indirect jump behind it
        is never speculatively executed, so its entry never appears.
        (Fetch/decode may still walk past — direct branches would be
        decode-allocated — hence the indirect jump here.)"""
        config = generation("skylake", spec_lookahead=8)

        def body(asm):
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("movi", "rax", 1)       # stepped (2nd unit)
            asm.emit("lfence")
            asm.emit("jmpr", "rdi")          # must NOT execute
            asm.org(0x400100)
            asm.label("target")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        core.run(state, max_retired=2)
        assert core.btb.occupancy() == 0

        # control experiment: without the fence the indirect jump DOES
        # speculatively execute and allocates its entry
        config2 = generation("skylake", spec_lookahead=8)

        def body2(asm):
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("movi", "rax", 1)
            asm.emit("jmpr", "rdi")
            asm.org(0x400100)
            asm.label("target")
            asm.emit("hlt")
        program2 = build(body2)
        core2 = Core(config2)
        core2.run(machine(program2), max_retired=2)
        assert core2.btb.occupancy() == 1


class TestRefusedSpeculativeFetch:
    """An access filter that refuses a fetch past the stepped unit
    stalls the front end there, like an NX page: the refusal never
    escapes ``Core.run`` (the unit already retired)."""

    @pytest.fixture(params=[False, True], ids=["reference", "fast"])
    def fast(self, request):
        previous = set_fast_path(request.param)
        yield request.param
        set_fast_path(previous)

    @staticmethod
    def _host_code_before_a_refused_page(config):
        def body(asm):
            asm.org(0x400FF0)
            asm.label("start")
            asm.emit("movi", "rbx", 1)      # 0x400FF0..FF6 (stepped)
            asm.emit("movi", "rcx", 2)      # 0x400FF7..FFD
            asm.emit("nop")
            asm.emit("nop")                 # 0x400FFF
            asm.emit("hlt")                 # 0x401000 (refused page)
        program = build(body)
        state = machine(program, entry=program.address_of("start"))

        def deny(address, size, access, context):
            first, last = address >> 12, (address + size - 1) >> 12
            if context is None and first <= 0x401 <= last:
                raise EnclaveAccessError(f"{access} of {address:#x}")

        state.memory.access_filter = deny
        return Core(config), state

    def test_lookahead_stalls_at_refused_page(self, fast):
        core, state = self._host_code_before_a_refused_page(
            generation("skylake"))
        result = core.run(state, max_retired=1)
        assert result.reason is StopReason.RETIRE_LIMIT
        assert result.retired == 1
        assert state.rip == 0x400FF7
        assert state.regs["rbx"] == 1 and state.regs["rcx"] == 0
        assert core.btb.occupancy() == 0

    def test_drain_stalls_at_refused_page(self, fast):
        core, state = self._host_code_before_a_refused_page(
            generation("skylake", drain_windows=2, spec_lookahead=0))
        result = core.run(state, max_retired=1)
        assert result.reason is StopReason.RETIRE_LIMIT
        assert state.rip == 0x400FF7
        # the drain opened the refused block's window, then stalled
        assert core.btb.stats.lookups == 2

    @pytest.mark.parametrize("refusal", ["none", "nx", "filter"])
    def test_cached_window_keeps_fetch_checks(self, fast, refusal):
        """The look-ahead checks every fetch, whatever the caches hold:
        code whose window was cached while its page was executable and
        unfiltered runs nothing speculatively once the page turns NX or
        the filter refuses a pc inside it.  The speculative load's
        accessed bit shows whether the look-ahead reached it."""
        def body(asm):
            asm.org(0x400FF8)
            asm.label("start")
            asm.emit("movi", "rsi", 0x900000)   # 0x400FF8..FFE
            asm.emit("nop")                     # 0x400FFF
            asm.emit("nop")                     # 0x401000 (window)
            asm.emit("load", "rax", "rsi", 0)   # 0x401001
            asm.emit("hlt")
        program = build(body)
        start = program.address_of("start")
        state = machine(program, entry=start)
        memory = state.memory
        memory.map_range(0x900000, 4096, "rw")
        Core(generation("skylake")).run(state)  # warm the caches
        assert (0x401000 in memory.window_cache) is fast
        memory.page_table.clear_accessed_dirty()
        if refusal == "nx":
            memory.protect(0x401000, 4096, "r--")
        elif refusal == "filter":
            def deny(address, size, access, context):
                if access == "execute" and address == 0x401001:
                    raise ProtectionFault(f"filtered {address:#x}")
            memory.access_filter = deny
        state.rip = start
        core = Core(generation("skylake"))
        result = core.run(state, max_retired=2)
        assert result.reason is StopReason.RETIRE_LIMIT
        assert state.rip == 0x401000
        assert memory.page_entry(0x900000).accessed is (refusal == "none")


@pytest.fixture(params=[False, True], ids=["reference", "fast"])
def fast(request):
    previous = set_fast_path(request.param)
    yield request.param
    set_fast_path(previous)


class TestLookaheadExits:
    """Every way the look-ahead past a single step ends, or goes on.

    The stepped unit is a ``movi``; the shadow under test follows it,
    then a ``movabs``/``jmpr`` pair whose computed target is ``probe``.
    The look-ahead reached the ``jmpr`` exactly when the BTB holds an
    entry for it (a speculatively executed indirect jump that missed in
    the BTB allocates).  The drain is off, so only the look-ahead
    runs."""

    CONFIG = generation("skylake", drain_windows=0, spec_lookahead=12)

    @staticmethod
    def _program(shadow_fn):
        def body(asm):
            asm.label("start")
            asm.emit("movi", "rax", 1)          # stepped
            shadow_fn(asm)
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("jmpr", "rdi")
            asm.label("jmpr_end")
            asm.emit("hlt")
            asm.org(0x400100)
            asm.label("probe")
            asm.emit("hlt")
        return build(body)

    def _step(self, program, setup=None):
        core = Core(self.CONFIG)
        state = machine(program)
        if setup is not None:
            setup(core, state)
        result = core.run(state, max_retired=1)
        assert result.reason is StopReason.RETIRE_LIMIT
        assert result.retired == 1
        assert state.rip == program.address_of("start") + 7
        assert state.regs["rdi"] == 0           # nothing committed
        return core, state

    @staticmethod
    def _probe_entry(core, program):
        return core.btb.entry_for(program.address_of("jmpr_end") - 1)

    @staticmethod
    def _install(core, program, branch, branch_end, target, kind):
        length = program.address_of(branch_end) - program.address_of(branch)
        core.btb.allocate(
            core.btb.anchor_pc(program.address_of(branch_end) - 1, length),
            program.address_of(target), kind)

    @pytest.mark.parametrize("shadow, reaches", [
        ("nop", True),
        ("hlt", False),
        ("syscall", False),
        ("junk", False),
        ("load mapped", True),
        ("load unmapped", False),
    ])
    def test_shadow(self, fast, shadow, reaches):
        def shadow_fn(asm):
            if shadow == "junk":
                asm.bytes(b"\x00")              # undecodable
            elif shadow.startswith("load"):
                asm.emit("movi", "rsi", 0x900000)
                asm.emit("load", "rbx", "rsi", 0)
            else:
                asm.emit(shadow)

        def setup(core, state):
            if shadow == "load mapped":
                state.memory.map_range(0x900000, 4096, "rw")

        program = self._program(shadow_fn)
        core, _ = self._step(program, setup)
        entry = self._probe_entry(core, program)
        assert (entry is not None) is reaches
        if reaches:
            assert entry.target == program.address_of("probe")

    @pytest.mark.parametrize("predicted", [False, True])
    def test_correctly_predicted_taken_branch_keeps_speculating(
            self, fast, predicted):
        """A taken ``jmp`` whose BTB entry names its real target lets
        the look-ahead run on past the target; a ``jmp`` the BTB missed
        is a mispredict that allocates and ends it."""
        def shadow_fn(asm):
            asm.label("jmp")
            asm.emit("jmp8", "target")
            asm.label("target")

        def setup(core, state):
            if predicted:
                self._install(core, program, "jmp", "target", "target",
                              Kind.DIRECT_JUMP)

        program = self._program(shadow_fn)
        core, _ = self._step(program, setup)
        jmp_end = program.address_of("target") - 1
        assert core.btb.entry_for(jmp_end) is not None
        assert (self._probe_entry(core, program) is not None) is predicted

    @pytest.mark.parametrize("predicted", [False, True])
    def test_predicted_taken_fall_through_stops(self, fast, predicted):
        """A ``jne`` the BTB predicts taken but that falls through is
        squashed, and the look-ahead ends there; unpredicted, the same
        fall-through is the static prediction and speculation goes on."""
        def shadow_fn(asm):
            asm.emit("cmpi8", "rax", 1)         # equal: jne falls through
            asm.label("jne")
            asm.emit("jne", "skip")
            asm.label("jne_end")
            asm.emit("nop")
            asm.label("skip")

        def setup(core, state):
            if predicted:
                self._install(core, program, "jne", "jne_end", "skip",
                              Kind.COND_JUMP)

        program = self._program(shadow_fn)
        core, _ = self._step(program, setup)
        assert (self._probe_entry(core, program) is None) is predicted

    def test_overlay_store_forwards_to_load(self, fast):
        """A speculative ``storew`` and a ``load`` of the same address:
        the load sees the stored value (the overlay), which the ``jmpr``
        then jumps through, while real memory keeps the old value."""
        def body(asm):
            asm.label("start")
            asm.emit("movi", "rax", 1)          # stepped
            asm.emit("movabs", "rbx", 0x400100)
            asm.emit("storew", "rsp", "rbx", -64)
            asm.emit("load", "rdi", "rsp", -64)
            asm.emit("jmpr", "rdi")
            asm.label("jmpr_end")
            asm.emit("hlt")
            asm.org(0x400100)
            asm.label("probe")
            asm.emit("hlt")
        program = build(body)
        core, state = self._step(program)
        entry = self._probe_entry(core, program)
        assert entry is not None
        assert entry.target == program.address_of("probe")
        assert state.memory.read_u64(state.rsp - 64, check=False) == 0

    def test_programming_error_escapes(self, fast, monkeypatch):
        """Only the simulator's traps end speculation quietly; a bug in
        a speculatively executed instruction's semantics escapes
        ``Core.run``."""
        program = self._program(lambda asm: asm.emit("movi", "rbx", 99))
        state = machine(program)
        shadow_pc = program.address_of("start") + 7
        instruction, _ = decode_at(state.memory, shadow_pc)

        def broken(spec_state):
            raise TypeError("bug in a thunk")

        monkeypatch.setattr(instruction, "thunk", broken)
        with pytest.raises(TypeError, match="bug in a thunk"):
            Core(self.CONFIG).run(state, max_retired=1)
