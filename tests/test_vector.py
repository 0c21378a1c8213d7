"""Vectorized many-seeds execution: lockstep ≡ sequential, to the bit.

The performance claim of :mod:`repro.cpu.vector` rests on a
correctness claim: sharing decode artifacts across lanes must not be
observable.  These tests run the same seeds vectorized and N×1
sequential and compare everything a lane exposes — architectural
registers, data memory, cycles, retires, BTB contents, LBR records,
stop reasons — plus the structural guards (generation agreement at
share time, divergence detection mid-run).
"""

import pytest

from repro import telemetry
from repro.cpu import Core, MachineState, StopReason, set_fast_path
from repro.cpu.config import DEFAULT_GENERATION
from repro.cpu.decoded import fast_path_enabled
from repro.cpu.vector import (DEFAULT_STRIDE, VectorGroup, VectorLane,
                              run_many_seeds)
from repro.errors import VectorizationError
from repro.isa import Assembler
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


def test_lanes_share_decode_state():
    seeds = list(SEED_INPUTS)
    lanes = [make_gcd_lane(i, s) for i, s in enumerate(seeds)]
    VectorGroup(lanes)
    lead = lanes[0].memory
    for lane in lanes[1:]:
        assert lane.memory.icache is lead.icache
        assert lane.memory.window_cache is lead.window_cache
        # superblock caches stay per-lane (chains pin the owning BTB)
        assert lane.memory.superblock_cache is not lead.superblock_cache


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


def test_generation_mismatch_at_share_time_rejected():
    a = make_gcd_lane(0, 0)
    b = make_gcd_lane(1, 1)
    # remap a page in one lane: its paging epoch (hence generation)
    # moves and the group must refuse to share decode state
    b.memory.map_range(0x6000_0000, 0x1000, perms="rw")
    with pytest.raises(VectorizationError):
        VectorGroup([a, b])


BASE = 0x0040_0000


def self_modifying_lane(index, seed):
    """A lane whose program stores over its own code page: the bytes
    really change (the page holds zeros there), so the write epoch
    moves mid-run and the group must detect the divergence."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rbx", BASE + 64)
    asm.emit("movi", "rsi", 0x5A00 + seed + 1)
    asm.emit("store", "rbx", "rsi", 0)   # write a code-holding page
    asm.emit("movi", "rax", seed)
    asm.emit("hlt")
    program = asm.assemble()
    memory = VirtualMemory()
    program.load_into(memory, perms="rwx")
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    return VectorLane(index=index, seed=seed,
                      core=Core(DEFAULT_GENERATION), state=state)


def test_mid_run_divergence_raises():
    lanes = [self_modifying_lane(0, 0), self_modifying_lane(1, 1)]
    group = VectorGroup(lanes)
    with pytest.raises(VectorizationError):
        group.run(stride=1_000)
