"""Multi-uarch BTB backend family.

Covers the strategy interface's four axes (geometry, indexing, hit
semantics, replacement), the accounting / invalidation bugfixes that
landed with the refactor, and a full-observable fast/slow equivalence
run per backend.
"""

import pytest
from hypothesis import given, strategies as st

from repro import telemetry
from repro.cpu import (BTB, Core, MachineState, StopReason, generation,
                       set_fast_path)
from repro.cpu.btb import reconstruct_end_byte
from repro.cpu.btb_backends import (BACKEND_CLASSES, btb_set_bits,
                                    make_backend)
from repro.cpu.config import BTB_BACKENDS, backend_generation
from repro.cpu.decoded import (Superblock, build_superblock,
                               fast_path_enabled)
from repro.errors import CpuError
from repro.isa import Assembler, Kind
from repro.memory import VirtualMemory
from repro.victims.library import build_gcd_victim

BACKENDS = tuple(BTB_BACKENDS)

_addr = st.integers(min_value=0, max_value=(1 << 47) - 1)


@pytest.fixture(autouse=True)
def _restore_fast_path():
    before = fast_path_enabled()
    yield
    set_fast_path(before)


def _config(backend, **overrides):
    """Skylake base on the named design (overrides must not collide
    with the design's pinned geometry)."""
    return backend_generation(backend, base=generation("skylake"),
                              **overrides)


# ----------------------------------------------------------------------
# field-split properties
# ----------------------------------------------------------------------
class TestFieldProperties:
    def test_registry_is_complete(self):
        assert set(BACKEND_CLASSES) == set(BACKENDS)
        for backend in BACKENDS:
            assert make_backend(_config(backend)).kind == backend

    def test_power_of_two_validation(self):
        with pytest.raises(CpuError):
            btb_set_bits(300)
        with pytest.raises(CpuError):
            btb_set_bits(0)
        with pytest.raises(CpuError):
            BTB(generation("skylake", btb_backend="arm", btb_sets=96))

    def test_unknown_backend_rejected(self):
        with pytest.raises(CpuError):
            make_backend(generation("skylake", btb_backend="pentium4"))
        with pytest.raises(ValueError):
            backend_generation("pentium4")

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(address=_addr)
    def test_aliasing_at_keep_boundary(self, backend, address):
        """Coordinates repeat exactly every 2**tag_keep_bits bytes and
        never at half that distance (on every design the triple covers
        all kept address bits)."""
        config = _config(backend)
        strategy = make_backend(config)
        distance = config.collision_distance
        assert strategy.split(address) == strategy.split(
            address + distance)
        assert strategy.split(address) != strategy.split(
            address + distance // 2)

    @given(address=_addr)
    def test_8_and_16_gib_boundaries(self, address):
        """The paper's generation split: SkyLake-family keeps 33 bits
        (8 GiB aliases), IceLake 34 (16 GiB)."""
        sky = make_backend(generation("skylake")).split
        icl = make_backend(generation("icelake")).split
        assert sky(address) == sky(address + (1 << 33))
        assert icl(address) != icl(address + (1 << 33))
        assert icl(address) == icl(address + (1 << 34))

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(address=_addr)
    def test_reconstruct_round_trip(self, backend, address):
        """The offset field is the byte within the 32-byte fetch block
        on every design (a front-end property), so reconstructing the
        anchor from the fetch PC's own block is the identity."""
        _, _, offset = make_backend(_config(backend)).split(address)
        assert reconstruct_end_byte(address, offset) == address

    def test_anchor_byte_per_design(self):
        last_byte = 0x40_0013
        for backend in BACKENDS:
            strategy = make_backend(_config(backend))
            anchor = strategy.anchor_pc(last_byte, 4)
            if strategy.last_byte_index:
                assert backend == "intel"
                assert anchor == last_byte
            else:
                assert anchor == last_byte - 3


# ----------------------------------------------------------------------
# hit semantics
# ----------------------------------------------------------------------
class TestHitSemantics:
    @pytest.mark.parametrize("backend", ("arm", "sodor", "orcs"))
    def test_exact_designs_hit_only_at_the_anchor(self, backend):
        btb = BTB(_config(backend))
        btb.allocate(0x40_0010, target=0x999, kind=Kind.DIRECT_JUMP)
        assert btb.lookup(0x40_0010) is not None
        assert btb.lookup(0x40_0008) is None      # below: no range hit
        assert btb.lookup(0x40_0011) is None      # above

    def test_intel_still_range_hits(self):
        btb = BTB(_config("intel"))
        btb.allocate(0x40_0010, target=0x999, kind=Kind.DIRECT_JUMP)
        assert btb.lookup(0x40_0008) is not None  # Takeaway 2


# ----------------------------------------------------------------------
# replacement policies
# ----------------------------------------------------------------------
class TestSodorDirectMapped:
    def test_same_set_unconditionally_overwrites(self):
        config = _config("sodor")
        assert config.btb_ways == 1
        btb = BTB(config)
        first = 0x40_0010
        second = first + (1 << 12)    # same set (bits [2,12)), new tag
        btb.allocate(first, 0x1, Kind.DIRECT_JUMP)
        assert btb.stats.evictions == 0
        btb.allocate(second, 0x2, Kind.DIRECT_JUMP)
        assert btb.stats.evictions == 1
        assert btb.lookup(first) is None
        assert btb.lookup(second) is not None


#: orcs: bits [2,9) index 128 sets, so +512 stays in-set with a new tag
_ORCS_STRIDE = 1 << 9


def _filled_orcs():
    """An orcs BTB with one set's four ways filled, in stamp order."""
    btb = BTB(_config("orcs"))
    anchors = [0x40_0010 + i * _ORCS_STRIDE for i in range(4)]
    entries = [btb.allocate(a, 0x1, Kind.DIRECT_JUMP) for a in anchors]
    assert btb.stats.evictions == 0
    return btb, anchors, entries


class TestOrcsClock:
    def test_touch_does_not_refresh_the_stamp(self):
        """Clock eviction is allocation-ordered: a correct prediction
        leaves the stamp alone, so the oldest *allocation* is evicted
        even if it predicted correctly just now."""
        btb, anchors, _ = _filled_orcs()
        btb.touch(btb.lookup(anchors[0]))
        btb.allocate(anchors[0] + 4 * _ORCS_STRIDE, 0x2,
                     Kind.DIRECT_JUMP)
        assert btb.lookup(anchors[0]) is None     # evicted despite touch
        assert btb.lookup(anchors[1]) is not None

    def test_lru_backends_do_refresh(self):
        btb = BTB(_config("arm"))
        stride = 1 << 13              # arm: bits [4,13) index 512 sets
        anchors = [0x40_0010 + i * stride for i in range(4)]
        for anchor in anchors:
            btb.allocate(anchor, 0x1, Kind.DIRECT_JUMP)
        btb.touch(btb.lookup(anchors[0]))
        btb.allocate(anchors[0] + 4 * stride, 0x2, Kind.DIRECT_JUMP)
        assert btb.lookup(anchors[0]) is not None  # refresh saved it
        assert btb.lookup(anchors[1]) is None      # next-oldest evicted


class _PickLast:
    """Deterministic rng stub for evict_spurious."""

    @staticmethod
    def choice(candidates):
        return candidates[-1]


class TestInvalidationBookkeeping:
    """Bugfix: invalidations must route through the backend's
    replacement bookkeeping, not flip ``entry.valid`` directly —
    otherwise a clock backend's victim choice reads a stale stamp and
    evicts a *live* entry while the freed slot sits unused."""

    def test_spurious_eviction_frees_the_slot_for_reuse(self):
        btb, _, entries = _filled_orcs()
        victim = btb.evict_spurious(_PickLast())
        assert victim is entries[-1]
        assert victim.lru == 0                    # stamp cleared
        assert btb.stats.spurious_evictions == 1
        replacement = btb.allocate(0x41_0010, 0x3, Kind.DIRECT_JUMP)
        assert replacement is victim              # freed slot reused
        assert btb.stats.evictions == 0           # nothing live evicted
        for entry in entries[:-1]:
            assert entry.valid                    # survivors untouched

    def test_deallocate_clears_the_stamp_too(self):
        btb, _, entries = _filled_orcs()
        btb.deallocate(entries[2])
        assert entries[2].lru == 0
        replacement = btb.allocate(0x41_0010, 0x3, Kind.DIRECT_JUMP)
        assert replacement is entries[2]
        assert btb.stats.evictions == 0


# ----------------------------------------------------------------------
# allocate accounting (bugfix)
# ----------------------------------------------------------------------
class TestAllocateAccounting:
    """Bugfix: the allocation/target-update split keys off the
    domain-aware same-branch match, not a bare (tag, offset) compare —
    under partitioning an evicted cross-domain twin is an eviction +
    allocation, not an in-place target update."""

    def test_cross_domain_twin_counts_as_eviction(self):
        btb = BTB(_config("intel", btb_ways=1, btb_partitioning=True))
        anchor = 0x40_0010
        btb.allocate(anchor, 0x1, Kind.DIRECT_JUMP)
        assert (btb.stats.allocations, btb.stats.target_updates,
                btb.stats.evictions) == (1, 0, 0)
        btb.current_domain = 1
        btb.allocate(anchor, 0x2, Kind.DIRECT_JUMP)
        assert (btb.stats.allocations, btb.stats.target_updates,
                btb.stats.evictions) == (2, 0, 1)

    def test_same_branch_still_updates_in_place(self):
        btb = BTB(_config("intel", btb_ways=1, btb_partitioning=True))
        anchor = 0x40_0010
        btb.allocate(anchor, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(anchor, 0x2, Kind.DIRECT_JUMP)
        assert (btb.stats.allocations, btb.stats.target_updates,
                btb.stats.evictions) == (1, 1, 0)


# ----------------------------------------------------------------------
# flush scoping (bugfix)
# ----------------------------------------------------------------------
class TestFlushScoping:
    """Bugfix: a flush bumps the generation only when it actually drops
    an entry, and cached chains die only when one of their own lookups
    changes — flushing an empty BTB (or one with no indirect entries)
    must not invalidate every cached superblock chain."""

    DIRECT_BLOCK = 0x40_0000
    RET_BLOCK = 0x40_0200

    @classmethod
    def _chains(cls, btb):
        """Straight-line code over both blocks, plus the cached verdict
        ``build_superblock`` records at each block: its one lookup is
        whatever entry that block's set predicts there."""
        asm = Assembler(base=cls.DIRECT_BLOCK)
        for _ in range(cls.RET_BLOCK - cls.DIRECT_BLOCK + 32):
            asm.emit("nop")
        asm.emit("hlt")
        memory = VirtualMemory()
        asm.assemble().load_into(memory, perms="rwx")
        return [build_superblock(memory, btb, block, True)
                for block in (cls.DIRECT_BLOCK, cls.RET_BLOCK)]

    def test_flush_of_empty_btb_changes_no_generation(self):
        btb = BTB(_config("intel"))
        chains = self._chains(btb)
        generation_before = btb.generation
        btb.flush()
        assert btb.generation == generation_before
        assert all(chain.btb_valid(btb) for chain in chains)
        assert btb.stats.full_flushes == 1        # still counted

    def test_indirect_flush_bumps_only_the_emptied_set(self):
        btb = BTB(_config("intel"))
        direct = btb.allocate(self.DIRECT_BLOCK + 0x10, 0x1,
                              Kind.DIRECT_JUMP)
        ret = btb.allocate(self.RET_BLOCK + 0x10, 0x2, Kind.RET)
        assert direct.set_index != ret.set_index
        direct_chain, ret_chain = self._chains(btb)
        assert direct_chain.lookups[0][1] is direct
        assert ret_chain.lookups[0][1] is ret
        generation_before = btb.generation
        btb.flush_indirect()
        assert direct.valid and not ret.valid
        assert btb.generation == generation_before + 1
        assert direct_chain.btb_valid(btb)        # its lookup held
        assert not ret_chain.btb_valid(btb)       # its entry died
        assert btb.stats.indirect_flushes == 1

    def test_indirect_flush_with_no_indirect_entries_is_invisible(self):
        btb = BTB(_config("intel"))
        btb.allocate(self.DIRECT_BLOCK + 0x10, 0x1, Kind.DIRECT_JUMP)
        chains = self._chains(btb)
        generation_before = btb.generation
        btb.flush_indirect()
        assert btb.generation == generation_before
        assert all(chain.btb_valid(btb) for chain in chains)
        assert btb.stats.indirect_flushes == 1

    def test_superblock_survives_targetless_indirect_flush(self):
        """End-to-end regression: an IBPB against a BTB holding only
        direct-branch entries used to invalidate every cached chain."""
        base = 0x0040_0000
        asm = Assembler(base=base)
        asm.emit("movi", "rcx", 50)
        asm.emit("movi", "rax", 0)
        asm.align(32)
        asm.label("loop")
        asm.emit("addi8", "rax", 3)
        asm.emit("dec", "rcx")
        asm.emit("test", "rcx", "rcx")
        asm.emit("jne8", "loop")
        asm.emit("hlt")
        program = asm.assemble()
        memory = VirtualMemory()
        program.load_into(memory, perms="rwx")
        state = MachineState(memory, rip=base)
        state.setup_stack(0x7FFF_0000)
        set_fast_path(False)
        core = Core(generation("skylake"))
        assert core.run(state).reason is StopReason.HALT
        loop_pc = base + 32
        superblock = build_superblock(memory, core.btb, loop_pc, True)
        assert isinstance(superblock, Superblock)
        assert superblock.btb_valid(core.btb)
        core.btb.flush_indirect()                 # no indirect entries
        assert superblock.btb_valid(core.btb)     # chain survives
        core.btb.flush()                          # full flush kills it
        assert not superblock.btb_valid(core.btb)


# ----------------------------------------------------------------------
# full-observable fast/slow equivalence per backend
# ----------------------------------------------------------------------
def _observables(core, state, results):
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
           for r in core.lbr.records()]
    runs = [(r.reason, r.retired, r.instructions, r.cycles,
             tuple(r.trace or ()), tuple(r.unit_starts or ()))
            for r in results]
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


def _traversal_program():
    """Call/ret chains hopping across blocks: exercises every backend's
    allocation, replacement, and (on intel) range-hit path."""
    asm = Assembler(base=0x0040_0000)
    asm.emit("movi", "rcx", 40)
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
    asm.emit("ret")
    asm.align(32)
    asm.label("leaf_b")
    asm.emit("subi8", "rax", 2)
    asm.emit("ret")
    return asm.assemble()


def _run_program(program, config, *, fast, max_retired=None):
    previous = set_fast_path(fast)
    try:
        memory = VirtualMemory()
        program.load_into(memory)
        state = MachineState(memory, rip=program.entry)
        state.setup_stack(0x7FFF_0000)
        with telemetry.session():
            core = Core(config)
            results = []
            for _ in range(500_000):
                result = core.run(state, collect_trace=True,
                                  max_retired=max_retired)
                results.append(result)
                if result.reason is not StopReason.RETIRE_LIMIT:
                    break
            else:
                raise AssertionError("program never stopped")
        return _observables(core, state, results)
    finally:
        set_fast_path(previous)


def _run_victim(victim, inputs, config, *, fast):
    previous = set_fast_path(fast)
    try:
        memory = victim.new_memory(inputs)
        state = MachineState(memory)
        state.setup_stack(0x7FFF_0000_0000)
        state.rip = victim.compiled.start
        core = Core(config)
        results = []
        for _ in range(2_000_000):
            result = core.run(state, collect_trace=True)
            results.append(result)
            if result.reason is StopReason.SYSCALL:
                state.regs["rax"] = 0
                continue
            break
        return _observables(core, state, results)
    finally:
        set_fast_path(previous)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendEquivalence:
    def test_traversal_full_run_identical(self, backend):
        program = _traversal_program()
        config = _config(backend)
        slow = _run_program(program, config, fast=False)
        fast = _run_program(program, config, fast=True)
        assert slow == fast

    def test_traversal_single_step_identical(self, backend):
        program = _traversal_program()
        config = _config(backend)
        slow = _run_program(program, config, fast=False, max_retired=1)
        fast = _run_program(program, config, fast=True, max_retired=1)
        assert slow == fast

    def test_gcd_victim_identical(self, backend):
        victim = build_gcd_victim("3.0", nlimbs=2)
        inputs = {"ta": 0x1234_5678_9ABC, "tb": 0x0FED_CBA9}
        config = _config(backend)
        slow = _run_victim(victim, inputs, config, fast=False)
        fast = _run_victim(victim, inputs, config, fast=True)
        assert slow == fast
