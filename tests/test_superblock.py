"""Superblock engine: chained windows across predicted edges.

Covers the invalidation edges DESIGN.md §14 promises:

* a store inside a chained window that rewrites a *later* window's
  bytes bails mid-chain with partial accounting identical to the
  window path;
* ``set_perms`` does **not** invalidate chains (permission asymmetry),
  but the per-link execute check faults live, mid-chain, at the right
  PC;
* BTB churn that changes one of a chain's recorded lookups —
  retargets, deallocations, partitioned domain switches — forces a
  rebuild on the next dispatch; churn that leaves them answering the
  same way (other sets, an identical re-allocation, unpartitioned
  context switches) does not;
* retire-budget clips that would land mid-chain fall back to the
  window path and stay bit-identical to the slow path at every stride;
* a lookup that changes and changes back finds its old chain among
  the entry pc's cached variants (at most four), and a code write
  drops them all.

Everything here runs the full fast-vs-slow observable comparison: the
superblock executor commits cycles, traces, BTB and LBR effects, so
equality must hold to the bit, not just architecturally.
"""

from dataclasses import replace

import pytest

import repro.cpu.core as core_module
from repro import telemetry
from repro.cpu import Core, MachineState, StopReason, set_fast_path
from repro.cpu.config import DEFAULT_GENERATION
from repro.cpu.decoded import (Superblock, build_superblock,
                               fast_path_enabled)
from repro.isa import Assembler
from repro.isa.instructions import Kind
from repro.memory import VirtualMemory
from repro.memory.address import PAGE_SIZE


@pytest.fixture(autouse=True)
def _restore_fast_path():
    before = fast_path_enabled()
    yield
    set_fast_path(before)


BASE = 0x0040_0000


# ----------------------------------------------------------------------
# harness: run a program fast and slow, capture every observable
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


def run_program(program, *, fast, max_retired=None, setup=None,
                stop_on=(StopReason.HALT, StopReason.PAGE_FAULT)):
    """Run ``program`` start-to-stop on a fresh core; capture all."""
    previous = set_fast_path(fast)
    try:
        memory = VirtualMemory()
        program.load_into(memory, perms="rwx")
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        if setup is not None:
            setup(memory, state)
        results = []
        with telemetry.session() as sink:
            core = Core(DEFAULT_GENERATION)
            for _ in range(100_000):
                result = core.run(state, collect_trace=True,
                                  max_retired=max_retired)
                results.append(result)
                if result.reason in stop_on:
                    break
            else:
                raise AssertionError("program never stopped")
        observables = _observables(core, state, results)
        return observables, sink.snapshot()
    finally:
        set_fast_path(previous)


def assert_fast_matches_slow(program, **kwargs):
    slow, _ = run_program(program, fast=False, **kwargs)
    fast, counters = run_program(program, fast=True, **kwargs)
    assert fast == slow
    return counters


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
def counted_loop(iterations):
    """A hot taken-edge loop: builds a loop superblock once warm."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rcx", iterations)
    asm.emit("movi", "rax", 0)
    asm.align(32)
    asm.label("loop")
    asm.emit("addi8", "rax", 3)
    asm.emit("dec", "rcx")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    return asm.assemble()


def nested_loops(outer, inner):
    """Inner loop exits (mispredict) once per outer pass: every
    re-entry dispatches a chain whose pinned entry was just
    retargeted, so the dispatcher must invalidate and rebuild."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rdx", outer)
    asm.emit("movi", "rax", 0)
    asm.align(32)
    asm.label("outer")
    asm.emit("movi", "rcx", inner)
    asm.align(32)
    asm.label("inner")
    asm.emit("addi8", "rax", 1)
    asm.emit("dec", "rcx")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "inner")
    asm.emit("dec", "rdx")
    asm.emit("test", "rdx", "rdx")
    asm.emit("jne8", "outer")
    asm.emit("hlt")
    return asm.assemble()


# ----------------------------------------------------------------------
# the happy path: chains build, hit, and stay bit-identical
# ----------------------------------------------------------------------
def test_loop_chain_builds_and_hits():
    counters = assert_fast_matches_slow(counted_loop(500))
    assert counters.get("cpu.superblock.builds", 0) >= 1
    assert counters.get("cpu.superblock.hits", 0) >= 1


def test_superblock_object_shape():
    memory = VirtualMemory()
    counted_loop(10).load_into(memory, perms="rwx")
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    core = Core(DEFAULT_GENERATION)
    # warm the BTB so the backward edge is predicted
    set_fast_path(False)
    assert core.run(state).reason is StopReason.HALT
    loop_pc = BASE + 32
    sb = build_superblock(memory, core.btb, loop_pc, True)
    assert isinstance(sb, Superblock)
    assert sb.loop and sb.loop_taken
    assert sb.links[-1].target == loop_pc
    assert sb.btb_valid(core.btb)
    # a foreign BTB never validates (chains pin their owner)
    assert not sb.btb_valid(Core(DEFAULT_GENERATION).btb)


# ----------------------------------------------------------------------
# edge 1: self-modifying store inside a chained window
# ----------------------------------------------------------------------
def store_loop(*, rewrite):
    """A hot loop whose body stores ``rsi`` over 8 bytes at ``[rbx]``;
    with ``rewrite`` it first bumps ``rsi``, so pointing ``rbx`` at the
    ``addi8`` immediate rewrites that byte on every iteration."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rcx", 40)
    asm.emit("movi", "rax", 0)
    asm.align(32)
    asm.label("loop")
    asm.emit("addi8", "rax", 1)         # immediate at loop + 2
    if rewrite:
        asm.emit("inc", "rsi")
    asm.emit("dec", "rcx")
    asm.emit("store", "rbx", "rsi", 0)   # [rbx] <- rsi (8-byte store)
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    return asm.assemble()


def store_over(target):
    """``setup`` hook: store the 8 bytes already at ``target``."""
    def setup(memory, state):
        state.regs["rbx"] = target
        state.regs["rsi"] = int.from_bytes(
            memory.read_bytes(target, 8, check=False), "little")
    return setup


def test_self_modifying_store_in_chain_bails():
    """A chained window's store rewrites a later window's bytes: the
    executor must bail at the generation flip and commit the partial
    pass exactly like the window path."""
    # every iteration stores the current bytes with the addi8
    # immediate bumped by one: a real code change each time (the other
    # seven bytes are rewritten unchanged)
    counters = assert_fast_matches_slow(
        store_loop(rewrite=True), setup=store_over(BASE + 32 + 2))
    assert counters.get("cpu.superblock.builds", 0) >= 1
    assert counters.get("cpu.superblock.bailouts", 0) >= 1
    assert counters.get("cpu.superblock.invalidations", 0) >= 1


def test_same_byte_store_in_chain_does_not_invalidate():
    """Storing the bytes a code page already holds changes no code: the
    chain neither bails nor invalidates for it, so its superblock
    counters match the same loop storing to a data page."""
    def superblock_counters(target):
        counters = assert_fast_matches_slow(
            store_loop(rewrite=False), setup=store_over(target))
        return {name: value for name, value in counters.items()
                if name.startswith("cpu.superblock.")}

    code_store = superblock_counters(BASE + 32)     # the loop's own bytes
    data_store = superblock_counters(0x7FFF_0000 - 64)  # the stack page
    assert code_store == data_store
    assert code_store.get("cpu.superblock.hits", 0) >= 1
    assert "cpu.superblock.invalidations" not in code_store


# ----------------------------------------------------------------------
# edge 2: set_perms asymmetry — no invalidation, live fault mid-chain
# ----------------------------------------------------------------------
def two_page_straightline():
    """Straight-line code whose chain crosses a page boundary: the
    last 32-byte block of page one chains (boundary edge) into the
    first block of page two."""
    asm = Assembler(base=BASE)
    asm.emit("jmp", "entry")            # jump to the page-A tail block
    asm.org(BASE + PAGE_SIZE - 32)
    asm.label("entry")
    for _ in range(8):                  # fills the 32-byte block
        asm.emit("addi8", "rax", 1)
    # page B begins here: one more straight-line block, then halt
    for _ in range(8):
        asm.emit("addi8", "rax", 2)
    asm.emit("hlt")
    return asm.assemble()


def test_set_perms_faults_mid_chain_without_invalidation():
    program = two_page_straightline()
    entry = BASE + PAGE_SIZE - 32
    page_b = BASE + PAGE_SIZE

    def revoke(memory, state):
        memory.protect(page_b, PAGE_SIZE, "r")

    # fast and slow fault identically: at page B's first PC, with the
    # page-A block's work committed
    slow, _ = run_program(program, fast=False, setup=revoke)
    fast, _ = run_program(program, fast=True, setup=revoke)
    assert fast == slow
    assert fast["rip"] == page_b
    assert fast["runs"][-1][0] is StopReason.PAGE_FAULT
    assert fast["regs"]["rax"] == 8     # page-A block retired

    # and the revocation did not invalidate anything: same memory,
    # restore execute, and the chain runs to completion without a
    # second build
    set_fast_path(True)
    memory = VirtualMemory()
    program.load_into(memory, perms="rwx")
    memory.protect(page_b, PAGE_SIZE, "r")
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    with telemetry.session() as sink:
        core = Core(DEFAULT_GENERATION)
        assert core.run(state).reason is StopReason.PAGE_FAULT
        generation = memory.code_generation
        memory.protect(page_b, PAGE_SIZE, "rx")
        assert memory.code_generation == generation      # asymmetry
        builds_after_fault = sink.snapshot().get(
            "cpu.superblock.builds", 0)
        state2 = MachineState(memory, rip=BASE)
        state2.setup_stack(0x7FFF_0000)
        assert core.run(state2).reason is StopReason.HALT
        assert state2.regs["rax"] == 8 + 16
        # the chain over page A survived untouched; at most page-B
        # blocks needed fresh builds
        assert entry in memory.superblock_cache
        assert isinstance(memory.superblock_cache[entry], Superblock)
    assert sink.snapshot().get("cpu.superblock.invalidations", 0) == 0
    assert builds_after_fault >= 1


# ----------------------------------------------------------------------
# edge 3: BTB churn invalidates via the recorded lookups
# ----------------------------------------------------------------------
def test_mispredict_retarget_invalidates_and_rebuilds():
    counters = assert_fast_matches_slow(nested_loops(6, 50))
    assert counters.get("cpu.superblock.builds", 0) >= 2
    assert counters.get("cpu.superblock.bailouts", 0) >= 1
    assert counters.get("cpu.superblock.invalidations", 0) >= 1


def test_btb_flush_invalidates_chain():
    set_fast_path(True)
    memory = VirtualMemory()
    counted_loop(200).load_into(memory, perms="rwx")
    core = Core(DEFAULT_GENERATION)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    assert core.run(state).reason is StopReason.HALT
    loop_pc = BASE + 32
    sb = memory.superblock_cache.get(loop_pc)
    assert isinstance(sb, Superblock)
    assert sb.btb_valid(core.btb)
    core.btb.flush()
    assert not sb.btb_valid(core.btb)

    # a rerun must still be correct.  Its first backward jump
    # re-allocates the loop's entry in the same way with the same
    # target, so the chain revalidates without a build.
    with telemetry.session() as sink:
        core.attach_telemetry(sink)
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        assert core.run(state).reason is StopReason.HALT
        assert state.regs["rax"] == 200 * 3
    assert memory.superblock_cache[loop_pc] is sb
    assert sb.btb_valid(core.btb)
    counters = sink.snapshot()
    assert counters.get("cpu.superblock.invalidations", 0) == 0
    assert counters.get("cpu.superblock.builds", 0) == 0
    assert counters.get("cpu.superblock.hits", 0) >= 1


def test_unrelated_set_churn_keeps_chain_valid():
    """Only the chain's own lookups are re-peeked: churn anywhere else
    refreshes the cheap global stamp instead of invalidating."""
    set_fast_path(True)
    memory = VirtualMemory()
    counted_loop(100).load_into(memory, perms="rwx")
    core = Core(DEFAULT_GENERATION)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    assert core.run(state).reason is StopReason.HALT
    sb = memory.superblock_cache.get(BASE + 32)
    assert isinstance(sb, Superblock)
    victim_sets = {core.btb.fields(pc)[1] for pc, *_ in sb.lookups}
    # a real allocation in a set the chain never looks up
    other = next(pc for pc in range(BASE, BASE + 64 * 32, 32)
                 if core.btb.fields(pc)[1] not in victim_sets)
    generation = core.btb.generation
    core.btb.allocate(other + 31, other + 0x1000, Kind.DIRECT_JUMP)
    assert core.btb.generation == generation + 1
    assert sb.btb_valid(core.btb)
    # ... and the global stamp was refreshed to the new generation
    assert sb.btb_generation == core.btb.generation


def test_reallocation_keeps_chain_retarget_kills_it():
    """Validity is the lookup result, not the BTB's history: the same
    entry re-allocated with the same target revalidates, a new target
    does not."""
    set_fast_path(True)
    memory = VirtualMemory()
    counted_loop(50).load_into(memory, perms="rwx")
    core = Core(DEFAULT_GENERATION)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    assert core.run(state).reason is StopReason.HALT
    sb = memory.superblock_cache[BASE + 32]
    link = sb.links[-1]
    entry = link.entry
    assert entry is not None
    btb = core.btb
    btb.deallocate(entry)
    assert not sb.btb_valid(btb)
    assert btb.allocate(link.pred_end, link.target, entry.kind) is entry
    assert sb.btb_valid(btb)
    btb.update_target(entry, link.target + 1)
    assert not sb.btb_valid(btb)

    # the dispatcher drops the stale chains and the rerun stays correct
    with telemetry.session() as sink:
        core.attach_telemetry(sink)
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        assert core.run(state).reason is StopReason.HALT
        assert state.regs["rax"] == 50 * 3
    counters = sink.snapshot()
    assert counters.get("cpu.superblock.invalidations", 0) >= 1


def run_processes(programs, *, fast, partitioned=False, stride=7):
    """Run each program as its own process — own memory, own security
    domain — on one core, round-robin in ``stride``-retire slices with
    a context switch before every slice; capture every observable."""
    previous = set_fast_path(fast)
    try:
        config = replace(DEFAULT_GENERATION,
                         btb_partitioning=partitioned)
        states = []
        for program in programs:
            memory = VirtualMemory()
            program.load_into(memory, perms="rwx")
            state = MachineState(memory, rip=BASE)
            state.setup_stack(0x7FFF_0000)
            states.append(state)
        results = [[] for _ in states]
        live = list(range(len(states)))
        with telemetry.session() as sink:
            core = Core(config)
            while live:
                for index in list(live):
                    core.context_switch(domain=index + 1)
                    result = core.run(states[index], collect_trace=True,
                                      max_retired=stride)
                    results[index].append(result)
                    if result.reason is StopReason.HALT:
                        live.remove(index)
        observables = [_observables(core, state, runs)
                       for state, runs in zip(states, results)]
        return observables, sink.snapshot()
    finally:
        set_fast_path(previous)


def test_unpartitioned_context_switches_keep_chains():
    """Lookups ignore the domain without partitioning, so switching
    processes neither bumps the BTB generation nor stales a chain."""
    programs = (counted_loop(120), counted_loop(90))
    slow, _ = run_processes(programs, fast=False)
    fast, counters = run_processes(programs, fast=True)
    assert fast == slow
    assert counters.get("cpu.superblock.hits", 0) > 0
    assert counters.get("cpu.superblock.invalidations", 0) == 0

    core = Core(DEFAULT_GENERATION)
    generation = core.btb.generation
    core.context_switch(domain=7)
    assert core.btb.generation == generation


def test_partitioned_domain_switch_revalidates_by_lookup():
    """Under partitioning a switch hides the other domain's entries: a
    chain built on one is stale while that domain is switched out and
    valid again once it is back, and fast == slow across switches."""
    programs = (counted_loop(120), counted_loop(90))
    slow, _ = run_processes(programs, fast=False, partitioned=True)
    fast, counters = run_processes(programs, fast=True, partitioned=True)
    assert fast == slow
    assert counters.get("cpu.superblock.hits", 0) > 0

    set_fast_path(True)
    memory = VirtualMemory()
    counted_loop(50).load_into(memory, perms="rwx")
    core = Core(replace(DEFAULT_GENERATION, btb_partitioning=True))
    core.context_switch(domain=1)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    assert core.run(state).reason is StopReason.HALT
    sb = memory.superblock_cache[BASE + 32]
    assert sb.links[-1].entry is not None
    generation = core.btb.generation
    core.context_switch(domain=2)
    assert core.btb.generation == generation + 1
    assert not sb.btb_valid(core.btb)     # domain 2 cannot see the entry
    core.context_switch(domain=1)
    assert sb.btb_valid(core.btb)         # the re-peek finds it again


def midfetch_loop():
    """A loop whose head block runs straight to the boundary on a
    fusible ``dec`` that macro-fuses with the ``je8`` leading the next
    block (a boundary-fused link), closed by a ``jmp8`` one block
    further on; ``rcx`` is the trip count."""
    asm = Assembler(base=BASE)
    asm.label("loop")
    for _ in range(29):
        asm.emit("nop")
    asm.emit("dec", "rcx")                # ends on the block boundary
    asm.emit("je8", "done")               # leads block BASE + 32
    asm.align(32)
    asm.emit("jmp8", "loop")
    asm.label("done")
    asm.emit("hlt")
    return asm.assemble()


def test_midfetch_negative_retried_when_successor_entry_dies():
    """A boundary-fused link's verdict depends on the *successor*
    block's lookup.  A stale prediction there makes the loop head
    unchainable; once the false hit deallocates it the head must be
    rebuilt, even though nothing changed in the head block's set."""
    program = midfetch_loop()
    jcc_block = BASE + 32

    def run(fast):
        previous = set_fast_path(fast)
        try:
            memory = VirtualMemory()
            program.load_into(memory, perms="rwx")
            state = MachineState(memory, rip=BASE)
            state.setup_stack(0x7FFF_0000)
            state.regs["rcx"] = 40
            with telemetry.session() as sink:
                core = Core(DEFAULT_GENERATION)
                # predicts a branch ending inside the nops after the Jcc
                core.btb.allocate(jcc_block + 3, BASE, Kind.DIRECT_JUMP)
                result = core.run(state, collect_trace=True)
            assert result.reason is StopReason.HALT
            return (_observables(core, state, [result]), sink.snapshot(),
                    memory)
        finally:
            set_fast_path(previous)

    slow, _, _ = run(False)
    fast, counters, memory = run(True)
    assert fast == slow
    assert counters.get("cpu.core.false_hit", 0) == 1
    head = memory.superblock_cache[BASE]
    assert isinstance(head, Superblock) and head.links     # rebuilt
    assert head.loop and head.links[0].mid_fetch
    assert counters.get("cpu.superblock.hits", 0) >= 1

    # the verdict the first dispatch cached: unchainable, recorded
    # against the successor block's lookup as well as the head's
    btb = Core(DEFAULT_GENERATION).btb
    btb.allocate(jcc_block + 3, BASE, Kind.DIRECT_JUMP)
    negative = build_superblock(memory, btb, BASE, True)
    assert not negative.links
    assert [pc for pc, *_ in negative.lookups] == [BASE, jcc_block]


# ----------------------------------------------------------------------
# edge 4: retire-budget clips never land mid-chain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride", [1, 2, 3, 5, 7, 11, 16])
def test_budget_clip_equivalence(stride):
    assert_fast_matches_slow(counted_loop(60), max_retired=stride)


@pytest.mark.parametrize("stride", [3, 7, 13])
def test_budget_clip_equivalence_nested(stride):
    assert_fast_matches_slow(nested_loops(4, 9), max_retired=stride)


# ----------------------------------------------------------------------
# edge 5: variants — a lookup that changes back finds its chain cached
# ----------------------------------------------------------------------
def _variants(memory, pc):
    """The chains cached for ``pc``, most recently used first."""
    chains = []
    chain = memory.superblock_cache.get(pc)
    while chain is not None:
        chains.append(chain)
        chain = chain.older
    return chains


def _variant_scenario(fast):
    """``counted_loop`` warmed up, then re-entered at its loop head
    after attacker-side BTB toggles of the loop's one lookup: a
    deallocation (twice), retargets to five other pcs, and finally a
    code write.  Each toggle is undone by the victim's own mispredict
    on its first pass, so the next dispatch sees the warm lookup
    again.  Returns every run's observables, the code bytes, and the
    variant list at the loop head after each run."""
    previous = set_fast_path(fast)
    try:
        memory = VirtualMemory()
        counted_loop(40).load_into(memory, perms="rwx")
        loop_pc = BASE + 32
        core = Core(DEFAULT_GENERATION)
        observed, lists = [], []

        def run(rip, rcx=None):
            state = MachineState(memory, rip=rip)
            state.setup_stack(0x7FFF_0000)
            if rcx is not None:
                state.regs["rcx"] = rcx
            result = core.run(state, collect_trace=True)
            assert result.reason is StopReason.HALT
            observed.append(_observables(core, state, [result]))
            lists.append(_variants(memory, loop_pc))

        def loop_entry():
            (entry,) = [e for e in core.btb.valid_entries()
                        if e.target == loop_pc]
            return entry

        run(BASE)                                   # warm: lookup A
        for _ in range(2):                          # A -> B -> A
            core.btb.deallocate(loop_entry())
            run(loop_pc, rcx=5)
        for target in (BASE, loop_pc + 3, loop_pc + 5, loop_pc + 8,
                       loop_pc + 10):
            core.btb.update_target(loop_entry(), target)
            run(loop_pc, rcx=5)
        memory.write_bytes(loop_pc + 31, b"\x01")   # past the hlt
        run(loop_pc, rcx=5)
        code = memory.read_bytes(BASE, 128)
        return observed, code, lists
    finally:
        set_fast_path(previous)


def test_variants_reuse_chains_across_lookup_toggles(monkeypatch):
    loop_pc = BASE + 32
    builds = []
    real_build = core_module.build_superblock

    def counting_build(memory, btb, pc, *args):
        chain = real_build(memory, btb, pc, *args)
        if pc == loop_pc:
            builds.append(chain)
        return chain

    monkeypatch.setattr(core_module, "build_superblock", counting_build)
    slow, slow_code, _ = _variant_scenario(False)
    assert not builds
    fast, fast_code, lists = _variant_scenario(True)
    assert fast == slow
    assert fast_code == slow_code

    warm, *toggled = lists
    chain_a = warm[0]
    assert chain_a.loop_taken and chain_a.links[-1].entry is not None
    # first toggle: one build (the lookup-B chain); the dispatch after
    # the victim's mispredict re-allocated the entry reuses chain A
    first, second = toggled[0], toggled[1]
    chain_b = first[1]
    assert first == [chain_a, chain_b]
    assert chain_b is not chain_a and chain_b.links[-1].entry is None
    # second toggle: both chains are cached, nothing is built
    assert second == [chain_a, chain_b]
    assert builds[:2] == [chain_a, chain_b] and len(builds) == 2 + 5 + 1
    # five retargets: one new variant each, never more than four kept,
    # and chain A back in front after every run
    for index, chains in enumerate(toggled[2:7]):
        assert chains[0] is chain_a
        assert chains[1] is builds[2 + index]
        assert len(chains) == min(3 + index, 4)
    assert all(len(chains) <= 4 for chains in lists)
    # a code write drops every variant
    rebuilt = toggled[-1]
    assert len(rebuilt) == 1 and rebuilt[0] is builds[-1]
    assert not any(chain in rebuilt for chains in lists[:-1]
                   for chain in chains)
