"""Shared code images: decode once per loaded program.

Covers DESIGN.md §9's image level: every segment a program loads is a
``SegmentImage`` its address spaces share.  An icache miss inside an
attached segment takes the loader's decode (after the same fetch
checks), a second address space turns window sharing on, a changing
write detaches the image from the writer only, and the fast/slow and
private-build references stay bit-identical.  Also pins the cached
"no instruction here" verdict: a hit raises exactly what the miss
raised, in every consumer, and that address spaces sharing an image
and run interleaved each match a run alone.
"""

import pytest

from repro import telemetry
from repro.core import NvCore, PwRange
from repro.core.pw import PwBuilder
from repro.cpu import (Core, MachineState, StopReason, interpret,
                       set_fast_path)
from repro.cpu import core as core_mod
from repro.cpu import decoded as decoded_mod
from repro.cpu.config import DEFAULT_GENERATION
from repro.cpu.decoded import (BAD_OPCODE, build_window, fast_path_enabled,
                               get_window)
from repro.cpu.interp import _fetch
from repro.errors import InvalidInstruction, PageFault, ProtectionFault
from repro.experiments.common import RunRequest, run_experiment
from repro.fingerprint.corpus import generate_corpus
from repro.isa import AssembledProgram, Assembler, abs_, decode, relocate
from repro.isa.instructions import SPECS_BY_OPCODE, Kind
from repro.lang import CompileOptions
from repro.memory import VirtualMemory
from repro.memory.address import PAGE_SIZE
from repro.sgx.enclave import Enclave
from repro.system import Kernel, Process
from repro.victims import (ENCLAVE_DATA_BASE, build_bignum_victim,
                           build_bn_cmp_victim, build_gcd_victim)


@pytest.fixture(autouse=True)
def _restore_fast_path():
    before = fast_path_enabled()
    yield
    set_fast_path(before)


BASE = 0x0040_0000
JUNK = next(byte for byte in range(256) if byte not in SPECS_BY_OPCODE)


def constant_program(value):
    asm = Assembler(base=BASE)
    asm.emit("movi", "rax", value)
    asm.emit("hlt")
    return asm.assemble()


def loop_program():
    """A small counted loop with a store: windows, a taken back edge
    and a terminator per window."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rcx", 40)
    asm.emit("movi", "rax", 0)
    asm.emit("movi", "rbx", 0x0060_0000)
    asm.label("top")
    asm.emit("add", "rax", "rcx")
    asm.emit("store", "rbx", "rax", 0)
    asm.emit("subi", "rcx", 1)
    asm.emit("jne", "top")
    asm.emit("hlt")
    return asm.assemble()


def load(program, perms="rx"):
    memory = VirtualMemory()
    program.load_into(memory, perms=perms)
    memory.map_range(0x0060_0000, PAGE_SIZE, "rw")
    return memory


def fresh_state(memory, rip=BASE):
    state = MachineState(memory, rip=rip)
    state.setup_stack(0x7FFF_0000)
    return state


def core_observables(memory, rip=BASE, **run_kwargs):
    state = fresh_state(memory, rip)
    core = Core()
    result = core.run(state, collect_trace=True, **run_kwargs)
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value)
                 for e in core.btb.valid_entries())
    lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
           for r in core.lbr.records()]
    fault = (None if result.fault is None
             else (type(result.fault), str(result.fault)))
    return (result.reason, result.retired, result.instructions,
            result.cycles, result.trace, result.unit_starts, fault,
            state.regs.snapshot(), state.rip, btb, lbr)


# ----------------------------------------------------------------------
# the loader's decodes are the byte decodes
# ----------------------------------------------------------------------
def _option_sets():
    return [CompileOptions(opt_level=0), CompileOptions(opt_level=2),
            CompileOptions(opt_level=3),
            CompileOptions(opt_level=2, align_jumps=16),
            CompileOptions(opt_level=2, cfr=True)]


def _repo_programs():
    programs = []
    for options in _option_sets():
        programs.append(build_gcd_victim(options=options).compiled.program)
        programs.append(
            build_bn_cmp_victim(options=options).compiled.program)
    programs.append(build_bignum_victim().compiled.program)
    programs.append(
        build_gcd_victim(data_base=ENCLAVE_DATA_BASE).compiled.program)
    builder = PwBuilder(tag_keep_bits=32)
    programs.append(builder.build([PwRange(0x400504, 0x400510),
                                   PwRange(0x400530, 0x400538)]).program)
    programs.append(builder.build([PwRange(0x40051F, 0x400521)]).program)
    programs.append(relocate(programs[0], 0x1_0000_0000))
    return programs


def _assert_loader_decodes_match_bytes(program):
    images = program.segment_images()
    assert [(image.base, image.blob) for image in images] == \
        list(program.segments)
    checked = 0
    for image in images:
        for pc, instruction in program.instructions.items():
            if not image.base <= pc < image.end:
                continue
            assert decode(image.blob, pc - image.base) == \
                (instruction, instruction.length), hex(pc)
            assert image.decode(pc) == (instruction, instruction.length)
            checked += 1
    assert checked == len(program.instructions)


def test_victim_and_snippet_programs_match_byte_decodes():
    """Victims at every optimisation level, aligned and CFR builds,
    an enclave build, probe snippets and a relocated program."""
    for program in _repo_programs():
        _assert_loader_decodes_match_bytes(program)


def test_corpus_and_experiment_programs_match_byte_decodes(monkeypatch):
    """Every program a corpus build and a figure experiment assemble."""
    seen = []
    real = Assembler.assemble

    def recording(self):
        program = real(self)
        seen.append(program)
        return program

    monkeypatch.setattr(Assembler, "assemble", recording)
    generate_corpus(6, batch=3)
    run_experiment("fig2", RunRequest(fast=True, seed=0))
    run_experiment("fig4", RunRequest(fast=True, seed=0))
    assert len(seen) > 4
    for program in seen:
        _assert_loader_decodes_match_bytes(program)


def test_negative_movabs_keeps_its_decoded_form():
    asm = Assembler(base=BASE)
    asm.emit("movabs", "rax", -2)
    asm.emit("hlt")
    program = asm.assemble()
    _assert_loader_decodes_match_bytes(program)
    assert program.instructions[BASE].operands == (0, 2**64 - 2)


# ----------------------------------------------------------------------
# attach, serve, detach
# ----------------------------------------------------------------------
def test_miss_takes_the_loader_decode():
    program = constant_program(7)
    memory = load(program)
    set_fast_path(True)
    with telemetry.session() as sink:
        assert interpret(fresh_state(memory)).reason.value == "halt"
    counters = sink.snapshot()
    assert counters["cpu.decode.image_hits"] == \
        counters["cpu.decode.misses"] == 2
    instruction = program.instructions[BASE]
    assert memory.icache[BASE][0] is instruction


def test_fast_path_off_decodes_bytes():
    memory = load(constant_program(7))
    set_fast_path(False)
    with telemetry.session() as sink:
        interpret(fresh_state(memory))
    assert "cpu.decode.image_hits" not in sink.snapshot()


def test_a_b_a_snippet_swaps_in_one_memory():
    a, b = constant_program(1), constant_program(2)
    memory = VirtualMemory()
    set_fast_path(True)
    for program, value in ((a, 1), (b, 2), (a, 1), (b, 2)):
        program.load_into(memory)
        image = program.segment_images()[0]
        assert memory.image_at(BASE) is image
        assert memory.images[BASE >> 12] == [image]
        for run in (core_observables, None):
            if run is None:
                state = fresh_state(memory)
                interpret(state)
                assert state.regs["rax"] == value
            else:
                assert run(memory)[7]["rax"] == value
    # One address space: snippet images keep no windows.
    assert a.segment_images()[0].windows is None
    assert b.segment_images()[0].windows is None


def test_snippet_images_keep_no_windows():
    kernel = Kernel(Core())
    nv = NvCore(kernel)
    sessions = [nv.monitor([PwRange(0x400504, 0x400510)]),
                nv.monitor([PwRange(0x400604, 0x400610)])]
    for session in sessions * 2:
        session.code.program.load_into(nv.attacker.memory)
        session.prime()
        session.probe()
    for session in sessions:
        for image in session.code.program.segment_images():
            assert image.windows is None


def test_self_modifying_write_detaches_only_the_writer():
    program = constant_program(1)
    writer, sibling = load(program, "rwx"), load(program, "rwx")
    image = program.segment_images()[0]
    assert image.windows == {}          # two address spaces: sharing on
    set_fast_path(True)
    assert core_observables(writer)[7]["rax"] == 1
    for base, blob in constant_program(2).segments:
        writer.write_bytes(base, blob, check=False)
    assert writer.image_at(BASE) is None
    assert sibling.image_at(BASE) is image
    assert core_observables(writer)[7]["rax"] == 2
    assert core_observables(sibling)[7]["rax"] == 1
    state = fresh_state(sibling)
    interpret(state)
    assert state.regs["rax"] == 1
    # Loading the program again re-attaches it.
    program.load_into(writer, perms="rwx")
    assert writer.image_at(BASE) is image
    assert core_observables(writer)[7]["rax"] == 1


def test_identical_rewrite_keeps_the_image():
    program = constant_program(1)
    memory = load(program, "rwx")
    image = program.segment_images()[0]
    generation = memory.code_generation
    for base, blob in program.segments:
        memory.write_bytes(base, blob, check=False)
    assert memory.image_at(BASE) is image
    assert memory.code_generation == generation


def test_decode_past_the_segment_end_reads_bytes():
    """An instruction the loader claims but whose bytes run past its
    segment is decoded from memory, never served by the image."""
    full = constant_program(5)
    (base, blob), = full.segments
    cut = len(blob) - 1                       # hlt lies outside
    program = AssembledProgram(segments=[(base, blob[:cut])],
                               instructions=dict(full.instructions))
    memory = VirtualMemory()
    program.load_into(memory)
    memory.write_bytes(base + cut, blob[cut:], check=False)
    image = program.segment_images()[0]
    assert image.decode(base + cut) is None
    set_fast_path(True)
    with telemetry.session() as sink:
        state = fresh_state(memory)
        assert interpret(state).reason.value == "halt"
    assert state.regs["rax"] == 5
    counters = sink.snapshot()
    assert counters["cpu.decode.misses"] == 2
    assert counters["cpu.decode.image_hits"] == 1


def test_windows_reaching_past_the_segment_are_not_shared():
    """A window whose terminator lies past the segment's end stays
    private, and so does one entered at a misaligned pc."""
    full = constant_program(5)
    (base, blob), = full.segments
    program = AssembledProgram(segments=[(base, blob[:-1])],
                               instructions=dict(full.instructions))
    memories = [VirtualMemory(), VirtualMemory()]
    for memory in memories:
        program.load_into(memory)
        memory.write_bytes(base + len(blob) - 1, blob[-1:], check=False)
    image = program.segment_images()[0]
    set_fast_path(True)
    window = get_window(memories[0], BASE)
    assert window.count == 1 and window.terminator is not None
    assert image.windows == {}
    get_window(memories[0], BASE + 1)        # misaligned entry
    assert image.windows == {}


def test_enclave_reloads_share_the_image():
    victim = build_gcd_victim(data_base=ENCLAVE_DATA_BASE)
    program = victim.compiled.program
    enclave = Enclave.from_program(program)
    hosts = []
    for _ in range(2):
        host = Process(name="host")
        enclave.load(host, data_base=ENCLAVE_DATA_BASE)
        hosts.append(host)
        enclave.unload()
    images = program.segment_images()
    for host in hosts:
        assert [host.memory.image_at(image.base) for image in images] \
            == images
    assert all(image.windows is not None for image in images)
    # A second enclave sealed from other bytes attaches nothing.
    other = Enclave.from_program(constant_program(3))
    other.program = program
    host = Process(name="host")
    other.load(host, data_base=ENCLAVE_DATA_BASE)
    assert host.memory.images == {}


# ----------------------------------------------------------------------
# faults stay where they were
# ----------------------------------------------------------------------
def _faulting_memories(revoke):
    """The program and a memory it is attached to whose code page is
    not executable; when execute was revoked, the image already holds
    windows another memory published."""
    program = loop_program()
    perms = "rwx" if revoke else "rw"
    load(program, perms)                      # sharing on
    set_fast_path(True)
    if revoke:
        core_observables(load(program, perms))    # publishes windows
        assert program.segment_images()[0].windows
    memory = load(program, perms)
    if revoke:
        memory.protect(BASE, PAGE_SIZE, "rw")
    return program, memory


@pytest.mark.parametrize("revoke", [True, False],
                         ids=["revoked", "never-granted"])
def test_non_executable_page_faults_identically(revoke):
    program, memory = _faulting_memories(revoke)
    assert memory.image_at(BASE) is not None
    set_fast_path(True)
    fast = core_observables(memory)
    with pytest.raises(PageFault) as fast_oracle:
        interpret(fresh_state(memory))
    set_fast_path(False)
    reference = load(program, "rw")
    assert core_observables(reference) == fast
    assert fast[0] is StopReason.PAGE_FAULT
    with pytest.raises(PageFault) as slow_oracle:
        interpret(fresh_state(reference))
    assert str(fast_oracle.value) == str(slow_oracle.value)
    assert memory.window_cache == {} and memory.icache == {}


def test_access_filter_runs_before_the_image():
    program = loop_program()
    load(program)                               # sharing on
    memory = load(program)

    def deny(address, size, access, context):
        if access == "execute" and address == BASE + 7:
            raise ProtectionFault(f"filtered {access} at {address:#x}")

    memory.access_filter = deny
    set_fast_path(True)
    with pytest.raises(ProtectionFault):
        core_observables(memory)
    assert BASE in memory.icache and BASE + 7 not in memory.icache


def test_adoption_falls_back_to_a_build_when_a_check_fails():
    program = loop_program()
    set_fast_path(True)
    load(program)                               # sharing on
    core_observables(load(program))             # builds and publishes
    assert program.segment_images()[0].windows
    memory = load(program)
    memory.protect(BASE, PAGE_SIZE, "rw")
    with telemetry.session() as sink:
        window = get_window(memory, BASE)
    counters = sink.snapshot()
    assert window.decode_error and window.count == 0
    assert counters.get("cpu.decode.window_adoptions", 0) == 0
    assert counters["cpu.decode.window_builds"] == 1


# ----------------------------------------------------------------------
# adopted windows are fresh builds
# ----------------------------------------------------------------------
_WINDOW_FIELDS = ("entry_pc", "limit", "pcs", "instructions", "extras",
                  "count", "resume_pc", "has_store", "fuse_holdback",
                  "terminator", "decode_error")


def test_adopted_window_equals_a_fresh_build():
    program = loop_program()
    set_fast_path(True)
    builder, adopter = load(program), load(program)
    built = get_window(builder, BASE)
    assert program.segment_images()[0].windows[BASE] is built
    with telemetry.session() as sink:
        adopted = get_window(adopter, BASE)
    assert sink.snapshot()["cpu.decode.window_adoptions"] == 1
    assert "cpu.decode.window_builds" not in sink.snapshot()
    fresh = build_window(load(relocate(program, 0)), BASE)
    for name in _WINDOW_FIELDS:
        assert getattr(adopted, name) == getattr(fresh, name), name
    assert adopted.generation == adopter.code_generation
    assert adopter.window_cache[BASE] is adopted
    assert set(adopter.icache) == set(builder.icache)


@pytest.mark.parametrize("single_step", [False, True])
def test_adopted_windows_run_like_fresh_builds(single_step):
    program = loop_program()
    set_fast_path(True)
    kwargs = {"max_retired": 1} if single_step else {}
    load(program)                               # sharing on
    core_observables(load(program), **kwargs)   # builds and publishes
    with telemetry.session() as sink:
        adopted = core_observables(load(program), **kwargs)
    if not single_step:
        assert sink.snapshot()["cpu.decode.window_adoptions"] > 0
    private = core_observables(load(relocate(program, 0)), **kwargs)
    set_fast_path(False)
    slow = core_observables(load(program), **kwargs)
    assert adopted == private == slow


def test_gcd_victim_runs_like_a_private_build():
    victim = build_gcd_victim(nlimbs=2)
    inputs = {"ta": 0x3B9AC9FF, "tb": 0x2540BE3F}
    set_fast_path(True)
    first = victim.ground_truth(inputs)       # one address space
    victim.ground_truth(inputs)               # two: builds publish
    with telemetry.session() as sink:
        second = victim.ground_truth(inputs)
    assert sink.snapshot()["cpu.decode.window_adoptions"] > 0
    assert "cpu.decode.window_builds" not in sink.snapshot()
    assert first.trace == second.trace
    assert first.branch_events == second.branch_events


# ----------------------------------------------------------------------
# cached "no instruction here" verdicts
# ----------------------------------------------------------------------
def junk_memory(perms="rx"):
    memory = VirtualMemory()
    memory.map_range(BASE, PAGE_SIZE, perms)
    memory.write_bytes(BASE, bytes([JUNK]) * 16, check=False)
    return memory


def core_decode(memory, pc):
    return Core()._decode(MachineState(memory), pc)


def interp_fetch(memory, pc):
    return _fetch(MachineState(memory), pc)


def _raised(fetch, memory, pc):
    with pytest.raises(Exception) as caught:
        fetch(memory, pc)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("fetch", [core_decode, interp_fetch],
                         ids=["core", "oracle"])
def test_bad_opcode_hit_raises_like_the_miss(fetch):
    memory = junk_memory()
    miss = _raised(fetch, memory, BASE)
    assert miss[0] is InvalidInstruction
    assert memory.icache[BASE] == BAD_OPCODE
    with telemetry.session() as sink:
        assert _raised(fetch, memory, BASE) == miss
    assert "cpu.decode.misses" not in sink.snapshot()
    # Execute revoked after the verdict was cached: the first-byte
    # check still comes first.
    memory.protect(BASE, PAGE_SIZE, "r")
    assert _raised(fetch, memory, BASE) == \
        _raised(fetch, junk_memory("r"), BASE)

    def deny(address, size, access, context):
        raise ProtectionFault(f"filtered {access} at {address:#x}")

    memory.protect(BASE, PAGE_SIZE, "rx")
    memory.access_filter = deny
    fresh = junk_memory()
    fresh.access_filter = deny
    assert _raised(fetch, memory, BASE) == _raised(fetch, fresh, BASE)
    assert _raised(fetch, memory, BASE)[0] is ProtectionFault


def test_build_window_stops_on_a_cached_verdict():
    memory = junk_memory()
    memory.write_bytes(BASE, b"\x90", check=False)       # nop, then junk
    first = build_window(memory, BASE)
    assert memory.icache[BASE + 1] == BAD_OPCODE
    again = build_window(memory, BASE)
    for name in _WINDOW_FIELDS:
        assert getattr(again, name) == getattr(first, name), name
    assert again.decode_error and again.resume_pc == BASE + 1


def test_drain_and_lookahead_hit_verdicts_like_misses():
    """Single steps whose fetch-ahead drain and speculative look-ahead
    run into junk: a warm memory (verdicts cached) leaves the same
    BTB, cycles and results as a cold one, with no decode misses."""
    asm = Assembler(base=BASE)
    asm.emit("nop")
    asm.emit("jmp8", "next")
    asm.label("next")
    asm.emit("nop")
    asm.bytes(bytes([JUNK]) * 6)
    program = asm.assemble()

    def steps(memory):
        core = Core()
        state = fresh_state(memory)
        out = []
        for _ in range(3):
            result = core.run(state, max_retired=1)
            out.append((result.reason, result.retired, result.cycles,
                        state.rip))
            if result.reason is not StopReason.RETIRE_LIMIT:
                break
        btb = sorted((e.tag, e.set_index, e.offset, e.target)
                     for e in core.btb.valid_entries())
        return out, btb

    for fast in (True, False):
        set_fast_path(fast)
        warm = load(program)
        cold = steps(warm)
        assert any(value == BAD_OPCODE for value in warm.icache.values())
        with telemetry.session() as sink:
            again = steps(warm)
        assert again == cold == steps(load(program))
        assert "cpu.decode.misses" not in sink.snapshot()


def _junk_drain_run(memory, entries, access_filter=None, **run_kwargs):
    """Plant BTB entries at ``entries`` (pc -> target), run once and
    return what the drain leaves behind: per-run cycles, the BTB dump,
    the deallocation count and the ``cpu.core.false_hit`` events."""
    memory.access_filter = access_filter
    with telemetry.session(trace=True) as sink:
        core = Core()
        for anchor, target in entries.items():
            core.btb.allocate(anchor, target, Kind.DIRECT_JUMP)
        state = fresh_state(memory)
        result = core.run(state, **run_kwargs)
    memory.access_filter = None
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    events = [event for event in sink.events
              if event["ev"] == "cpu.core.false_hit"]
    return (result.reason, result.cycles, state.rip, btb,
            core.btb.stats.deallocations, events)


def _warm_and_cold(program, run, junk_pc):
    """``run`` on a memory whose junk verdicts are cached (warmed by an
    unfiltered run of a fresh core) and on a fresh memory."""
    warm = load(program)
    _junk_drain_run(warm, {}, max_retired=1)
    assert warm.icache.get(junk_pc) == BAD_OPCODE
    cold = load(program)
    assert junk_pc not in cold.icache
    return run(warm), run(cold)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
def test_drain_over_cached_junk_matches_a_cold_drain(fast):
    """The drain's cached-junk step (a first-byte fetch check, the
    false-hit rule, one byte on) leaves what the miss path leaves: a
    prediction ending on a junk byte dies there, and a filter refusing
    a junk byte after the ``hlt`` stops the drain before later
    predictions."""
    set_fast_path(fast)
    asm = Assembler(base=BASE)
    asm.emit("nop")
    asm.emit("nop")
    asm.bytes(bytes([JUNK]) * 10)
    stepped = asm.assemble()

    # A single step: the drain walks from BASE + 1 into the junk and
    # meets the prediction ending at BASE + 4.
    def step(memory):
        return _junk_drain_run(memory, {BASE + 4: BASE + 0x100},
                               max_retired=1)

    warm, cold = _warm_and_cold(stepped, step, BASE + 4)
    assert warm == cold
    reason, _, _, btb, deallocations, events = warm
    assert reason is StopReason.RETIRE_LIMIT and not btb
    assert deallocations == 1
    assert [(e["pc"], e["charged"]) for e in events] == [(BASE + 4, False)]

    asm = Assembler(base=BASE)
    asm.emit("nop")
    asm.emit("hlt")
    asm.bytes(bytes([JUNK]) * 10)
    halting = asm.assemble()

    def refuse(address, size, access, context):
        if access == "execute" and address <= BASE + 4 < address + size:
            raise ProtectionFault(f"filtered {access} at {address:#x}")

    # After the hlt the drain false-hits the entry ending at BASE + 3,
    # then the refused fetch at BASE + 4 stops it short of BASE + 5.
    def halt(memory):
        return _junk_drain_run(memory, {BASE + 3: BASE + 0x100,
                                        BASE + 5: BASE + 0x200},
                               access_filter=refuse)

    warm, cold = _warm_and_cold(halting, halt, BASE + 4)
    assert warm == cold
    reason, _, _, btb, deallocations, events = warm
    assert reason is StopReason.HALT
    assert [entry[2] for entry in btb] == [5]
    assert deallocations == 1
    assert [(e["pc"], e["charged"]) for e in events] == [(BASE + 3, False)]


# ----------------------------------------------------------------------
# interleaved address spaces run as they would alone
# ----------------------------------------------------------------------
class Lane:
    """One address space's run: a private core and machine state."""

    def __init__(self, state):
        self.core = Core(DEFAULT_GENERATION)
        self.state = state
        self.reason = None
        self.instructions = 0

    @property
    def memory(self):
        return self.state.memory


def run_interleaved(lanes, slice_retired=1_000):
    """Round-robin ``lanes`` in ``slice_retired``-retire ``Core.run``
    slices until each stops; a ``SYSCALL`` is a no-op yield."""
    active = list(lanes)
    while active:
        waiting = []
        for lane in active:
            result = lane.core.run(lane.state, max_retired=slice_retired,
                                   max_instructions=5_000_000)
            lane.instructions += result.instructions
            lane.reason = result.reason
            if result.reason is StopReason.SYSCALL:
                lane.state.regs["rax"] = 0
            if result.reason in (StopReason.RETIRE_LIMIT,
                                 StopReason.SYSCALL):
                waiting.append(lane)
        active = waiting
    return lanes


def lane_observables(lane, regions):
    """Everything a run exposes: registers, flags, rip, cycles,
    retires, BTB, LBR and the bytes of ``regions``."""
    core, state = lane.core, lane.state
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
           for r in core.lbr.records()]
    data = [state.memory.read_bytes(address, size, check=False)
            for address, size in regions]
    return (lane.reason, lane.instructions, state.regs.snapshot(),
            state.regs.flags.as_tuple(), state.rip, core.cycles,
            core.total_retired, btb, lbr, data)


GCD_INPUTS = [
    {"ta": 0x3B9AC9FF, "tb": 0x2540BE3F},
    {"ta": 0x1000003, "tb": 0x5F5E107},
]


def gcd_lane(victim, inputs):
    state = MachineState(victim.new_memory(inputs))
    state.setup_stack(0x7FFF_0000_0000)
    state.rip = victim.compiled.start
    return Lane(state)


def gcd_regions(victim):
    return [(spec.address, spec.size)
            for spec in victim.layout.arrays.values()]


def test_only_the_first_address_space_builds_windows(monkeypatch):
    """Interleaved address spaces on one program and one input share
    its code images: the lead builds every window, its siblings adopt
    them, each keeps private caches, and each runs as it would alone."""
    victim = build_gcd_victim(nlimbs=2)     # fresh images, no windows
    builders = []
    real_build = decoded_mod.build_window

    def recording_build(memory, pc):
        builders.append(memory)
        return real_build(memory, pc)

    monkeypatch.setattr(core_mod, "build_window", recording_build)
    monkeypatch.setattr(decoded_mod, "build_window", recording_build)
    set_fast_path(True)
    with telemetry.session() as sink:
        lanes = run_interleaved([gcd_lane(victim, GCD_INPUTS[0])
                                 for _ in range(4)])
    counters = sink.snapshot()
    lead = lanes[0].memory
    assert builders and all(memory is lead for memory in builders)
    assert counters["cpu.decode.window_adoptions"] > 0
    assert counters["cpu.decode.image_hits"] > 0
    for lane in lanes[1:]:
        assert lane.memory.icache is not lead.icache
        assert lane.memory.window_cache is not lead.window_cache
        assert lane.memory.superblock_cache is not lead.superblock_cache
        assert lane.memory.window_cache
    regions = gcd_regions(victim)
    solo, = run_interleaved([gcd_lane(victim, GCD_INPUTS[0])])
    for lane in lanes:
        assert lane.reason is StopReason.HALT
        assert lane_observables(lane, regions) == \
            lane_observables(solo, regions)


def test_spaces_with_different_generations_match_running_alone():
    """An address space whose paging epoch moved (so its code
    generation differs from its sibling's) still shares the image and
    runs as it would alone."""
    victim = build_gcd_victim(nlimbs=2)

    def make_lane(index):
        lane = gcd_lane(victim, GCD_INPUTS[index])
        if index == 1:
            lane.memory.map_range(0x6000_0000, 0x1000, perms="rw")
        return lane

    set_fast_path(True)
    lanes = [make_lane(0), make_lane(1)]
    assert lanes[0].memory.code_generation != \
        lanes[1].memory.code_generation
    run_interleaved(lanes)
    regions = gcd_regions(victim)
    for index, lane in enumerate(lanes):
        assert lane.reason is StopReason.HALT
        solo, = run_interleaved([make_lane(index)])
        assert lane_observables(lane, regions) == \
            lane_observables(solo, regions)


DATA = 0x0060_0000


def _self_modifying_program():
    """Patch the immediate of a later ``movabs`` with a value read
    from the data page, then execute it: each address space rewrites
    its own copy of the shared code differently."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rbx", abs_("patch", 2))   # the imm64 field
    asm.emit("movi", "rdx", DATA)
    asm.emit("load", "rsi", "rdx", 0)
    asm.emit("store", "rbx", "rsi", 0)
    asm.label("patch")
    asm.emit("movabs", "rax", 0)
    asm.emit("hlt")
    return asm.assemble()


SELF_MODIFYING = _self_modifying_program()


def self_modifying_lane(seed):
    memory = load(SELF_MODIFYING, "rwx")
    memory.write_u64(DATA, 0x5A00 + seed + 1)
    return Lane(fresh_state(memory))


@pytest.mark.parametrize("fast", [True, False])
def test_self_modifying_spaces_match_running_alone(fast):
    """Each address space's code write detaches the image from that
    space only: every one executes its own patched bytes, exactly as
    it would alone."""
    set_fast_path(fast)
    lanes = [self_modifying_lane(seed) for seed in (0, 1, 2)]
    patch = SELF_MODIFYING.address_of("patch")
    assert all(lane.memory.image_at(patch) is not None for lane in lanes)
    run_interleaved(lanes)
    regions = [(BASE, 64), (DATA, 8)]
    for seed, lane in enumerate(lanes):
        assert lane.reason is StopReason.HALT
        assert lane.state.regs["rax"] == 0x5A00 + seed + 1
        assert lane.memory.image_at(patch) is None
        solo, = run_interleaved([self_modifying_lane(seed)])
        assert lane_observables(lane, regions) == \
            lane_observables(solo, regions)
