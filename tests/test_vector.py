"""Vectorized many-seeds execution: lockstep ≡ sequential, to the bit.

The performance claim of :mod:`repro.cpu.vector` rests on a
correctness claim: sharing decode artifacts across lanes must not be
observable.  These tests run the same seeds vectorized and N×1
sequential and compare everything a lane exposes — architectural
registers, data memory, cycles, retires, BTB contents, LBR records,
stop reasons — plus the sharing guarantee: lanes loaded from one
program share decodes and windows through its code images, so only
the first lane builds windows, and lanes whose code generations differ
or that write their own code still run exactly as they would alone.
"""

import pytest

from repro import telemetry
from repro.cpu import Core, MachineState, StopReason, set_fast_path
from repro.cpu.config import DEFAULT_GENERATION
from repro.cpu.decoded import fast_path_enabled
from repro.cpu.vector import (DEFAULT_STRIDE, VectorGroup, VectorLane,
                              run_many_seeds)
from repro.errors import VectorizationError
from repro.cpu import core as core_mod
from repro.cpu import decoded as decoded_mod
from repro.isa import Assembler, abs_
from repro.memory import VirtualMemory
from repro.victims.library import build_gcd_victim


@pytest.fixture(autouse=True)
def _restore_fast_path():
    before = fast_path_enabled()
    yield
    set_fast_path(before)


# ----------------------------------------------------------------------
# gcd-victim lanes (the workload the perf suite benchmarks)
# ----------------------------------------------------------------------
VICTIM = build_gcd_victim(nlimbs=2)

SEED_INPUTS = {
    0: {"ta": 0x3B9AC9FF, "tb": 0x2540BE3F},
    1: {"ta": 0x1000003, "tb": 0x5F5E107},
    2: {"ta": 0x7FFFFFFF, "tb": 0x2},
    3: {"ta": 0x51615, "tb": 0x51615},
}


def make_gcd_lane(index, seed):
    memory = VICTIM.new_memory(SEED_INPUTS[seed])
    state = MachineState(memory)
    state.setup_stack(0x7FFF_0000_0000)
    state.rip = VICTIM.compiled.start
    return VectorLane(index=index, seed=seed,
                      core=Core(DEFAULT_GENERATION), state=state,
                      max_instructions=5_000_000)


def yield_handler(lane, result):
    lane.state.regs["rax"] = 0
    return True


def lane_observables(lane):
    core, state = lane.core, lane.state
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
           for r in core.lbr.records()]
    data = {
        name: state.memory.read_bytes(spec.address, spec.size,
                                      check=False)
        for name, spec in VICTIM.layout.arrays.items()
    }
    return {
        "seed": lane.seed,
        "reason": lane.reason,
        "instructions": lane.instructions,
        "regs": state.regs.snapshot(),
        "flags": state.regs.flags.as_tuple(),
        "rip": state.rip,
        "cycles": core.cycles,
        "total_retired": core.total_retired,
        "btb": btb,
        "lbr": lbr,
        "data": data,
    }


@pytest.mark.parametrize("stride", [64, 1_000, DEFAULT_STRIDE])
def test_lockstep_bit_identical_to_sequential(stride):
    seeds = list(SEED_INPUTS)
    set_fast_path(True)
    vec = run_many_seeds(make_gcd_lane, seeds, stride=stride,
                         on_syscall=yield_handler, vectorize=True)
    seq = run_many_seeds(make_gcd_lane, seeds, stride=stride,
                         on_syscall=yield_handler, vectorize=False)
    for a, b in zip(vec, seq):
        assert a.reason is StopReason.HALT
        assert lane_observables(a) == lane_observables(b)


def test_lockstep_matches_slow_path_reference():
    """Vectorized + fast path on ≡ sequential + fast path off: the
    exact pairing the many_seeds benchmark times."""
    seeds = list(SEED_INPUTS)
    set_fast_path(True)
    vec = run_many_seeds(make_gcd_lane, seeds, stride=1_000,
                         on_syscall=yield_handler, vectorize=True)
    set_fast_path(False)
    ref = run_many_seeds(make_gcd_lane, seeds, stride=1_000,
                         on_syscall=yield_handler, vectorize=False)
    for a, b in zip(vec, ref):
        assert lane_observables(a) == lane_observables(b)


def test_only_the_first_lane_builds_windows(monkeypatch):
    """Lanes on one program share its code images: the lead lane
    builds every window, its siblings adopt them, and each lane keeps
    private caches."""
    victim = build_gcd_victim(nlimbs=2)     # fresh images, no windows
    builders = []
    real_build = decoded_mod.build_window

    def recording_build(memory, pc):
        builders.append(memory)
        return real_build(memory, pc)

    monkeypatch.setattr(core_mod, "build_window", recording_build)
    monkeypatch.setattr(decoded_mod, "build_window", recording_build)

    def make_lane(index, seed):
        memory = victim.new_memory(SEED_INPUTS[0])
        state = MachineState(memory)
        state.setup_stack(0x7FFF_0000_0000)
        state.rip = victim.compiled.start
        return VectorLane(index=index, seed=seed,
                          core=Core(DEFAULT_GENERATION), state=state,
                          max_instructions=5_000_000)

    set_fast_path(True)
    with telemetry.session() as sink:
        lanes = run_many_seeds(make_lane, [0, 1, 2, 3], stride=1_000,
                               on_syscall=yield_handler, vectorize=True)
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
    for lane in lanes:
        assert lane_observables(lane) == lane_observables(
            alone(make_lane, lane.index, lane.seed, 1_000))


def test_vector_telemetry_counters():
    with telemetry.session() as sink:
        run_many_seeds(make_gcd_lane, [0, 1], stride=1_000,
                       on_syscall=yield_handler, vectorize=True)
    counters = sink.snapshot()
    assert counters.get("cpu.vector.lanes") == 2
    assert counters.get("cpu.vector.turns", 0) >= 1


# ----------------------------------------------------------------------
# structural guards
# ----------------------------------------------------------------------
def test_empty_group_rejected():
    with pytest.raises(VectorizationError):
        VectorGroup([])


def test_bad_stride_rejected():
    with pytest.raises(VectorizationError):
        VectorGroup([make_gcd_lane(0, 0)]).run(stride=0)


def alone(make_lane, index, seed, stride):
    lane = make_lane(index, seed)
    VectorGroup([lane]).run(stride=stride, on_syscall=yield_handler)
    return lane


def test_lanes_with_different_generations_match_running_alone():
    """A lane whose paging epoch moved (so its code generation differs
    from its siblings') still shares the image and runs as it would
    alone."""
    def make_lane(index, seed):
        lane = make_gcd_lane(index, seed)
        if index == 1:
            lane.memory.map_range(0x6000_0000, 0x1000, perms="rw")
        return lane

    set_fast_path(True)
    lanes = [make_lane(0, 0), make_lane(1, 1)]
    assert lanes[0].memory.code_generation != \
        lanes[1].memory.code_generation
    VectorGroup(lanes).run(stride=1_000, on_syscall=yield_handler)
    for lane in lanes:
        assert lane.reason is StopReason.HALT
        assert lane_observables(lane) == lane_observables(
            alone(make_lane, lane.index, lane.seed, 1_000))


BASE = 0x0040_0000
DATA = 0x0060_0000


def _self_modifying_program():
    """Patch the immediate of a later ``movabs`` with a value read
    from the data page, then execute it: each lane rewrites its own
    copy of the shared code differently."""
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


def self_modifying_lane(index, seed):
    memory = VirtualMemory()
    SELF_MODIFYING.load_into(memory, perms="rwx")
    memory.map_range(DATA, 0x1000, perms="rw")
    memory.write_u64(DATA, 0x5A00 + seed + 1)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    return VectorLane(index=index, seed=seed,
                      core=Core(DEFAULT_GENERATION), state=state)


@pytest.mark.parametrize("fast", [True, False])
def test_self_modifying_lanes_match_running_alone(fast):
    """Each lane's code write detaches the image from that lane only:
    every lane executes its own patched bytes, bit-identically to
    running alone."""
    set_fast_path(fast)
    lanes = [self_modifying_lane(index, seed)
             for index, seed in enumerate((0, 1, 2))]
    patch = SELF_MODIFYING.address_of("patch")
    assert all(lane.memory.image_at(patch) is not None for lane in lanes)
    VectorGroup(lanes).run(stride=1_000)
    for lane in lanes:
        assert lane.reason is StopReason.HALT
        assert lane.state.regs["rax"] == 0x5A00 + lane.seed + 1
        assert lane.memory.image_at(patch) is None
        solo = self_modifying_lane(lane.index, lane.seed)
        VectorGroup([solo]).run(stride=1_000)
        assert lane_observables_basic(lane) == lane_observables_basic(solo)


def lane_observables_basic(lane):
    core, state = lane.core, lane.state
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    return (lane.reason, lane.instructions, state.regs.snapshot(),
            state.rip, core.cycles, core.total_retired, btb,
            state.memory.read_bytes(BASE, 64, check=False))
