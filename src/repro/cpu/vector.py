"""Vectorized many-seeds execution: N lockstep runs, decode once.

A campaign multiplies *seeds*: the same victim binary executed under N
different inputs.  Decode artifacts — icache fills and decoded-window
builds (:mod:`repro.cpu.decoded`) — depend only on the code bytes,
which every seed shares, so a :class:`VectorGroup` steps N lanes in
lockstep through **shared** decode state: the first lane to touch a PC
decodes it, every other lane executes the cached result.  Superblock
caches are deliberately *not* shared: a superblock pins the owning
core's BTB (and the lookups it was built from), and each lane has its
own BTB — sharing would make every lane invalidate every other lane's
chains on each dispatch.

Determinism argument
--------------------
Lane isolation is complete for everything observable: registers, data
pages, page tables, BTB, LBR, cycle accounting all live per lane.  The
only shared objects are content-addressed decode artifacts validated
by ``code_generation`` stamps, so lockstep results are bit-identical
to running each lane alone *provided every lane's code bytes are
identical whenever their generation stamps agree*.  The group enforces
that invariant structurally:

* at construction, all lanes must report the same ``code_generation``
  (same load sequence, same image — data inputs may differ freely);
* after every turn, any lane whose generation moved (a seed-dependent
  self-modifying write, a page map/unmap) raises
  :class:`VectorizationError` instead of silently publishing its
  rebuilt windows to sibling lanes.

Victims that self-modify identically across seeds could in principle
keep sharing; the group refuses anyway — the failure mode (one lane
executing another lane's bytes) is silent corruption, and the victims
this mode exists for (traversal sweeps, §5 campaigns) never write
their code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .. import telemetry
from ..errors import VectorizationError
from .core import Core, RunResult, StopReason
from .state import MachineState

#: retire units per lane per lockstep turn.  Large enough that the
#: per-turn ``Core.run`` entry/exit cost is noise, small enough that
#: lanes stay interleaved (a cold PC decoded by one lane is warm for
#: the rest within the same phase of the victim).
DEFAULT_STRIDE = 16_384


@dataclass
class VectorLane:
    """One seed's run: private core + state, shared decode caches."""

    index: int
    seed: Optional[int]
    core: Core
    state: MachineState
    #: per-lane instruction guard handed to every ``Core.run`` turn
    max_instructions: Optional[int] = None
    finished: bool = False
    instructions: int = 0
    #: stop reason of the final turn (HALT unless a handler ended it)
    reason: Optional[StopReason] = None

    @property
    def memory(self):
        return self.state.memory


#: a syscall handler: return True to resume the lane, False to finish
#: it (the lane's ``reason`` stays SYSCALL).
SyscallHandler = Callable[[VectorLane, RunResult], bool]


class VectorGroup:
    """N lanes stepping in lockstep through shared decode state."""

    def __init__(self, lanes: List[VectorLane]):
        if not lanes:
            raise VectorizationError("a vector group needs >= 1 lane")
        generations = {lane.memory.code_generation for lane in lanes}
        if len(generations) != 1:
            raise VectorizationError(
                f"lanes disagree on code_generation at share time "
                f"({sorted(generations)}); all lanes must load the "
                f"same image the same way")
        self.lanes = lanes
        lead = lanes[0].memory
        for lane in lanes[1:]:
            memory = lane.memory
            memory.icache = lead.icache
            memory.window_cache = lead.window_cache
            # superblock_cache stays per-lane: chains pin the owning
            # core's BTB and re-validate against its lookups.
        self._generation = lead.code_generation
        telemetry.count("cpu.vector.lanes", len(lanes))

    def _check_generation(self, lane: VectorLane) -> None:
        generation = lane.memory.code_generation
        if generation != self._generation:
            raise VectorizationError(
                f"lane {lane.index} (seed={lane.seed}) moved "
                f"code_generation {self._generation} -> {generation} "
                f"mid-run; self-modifying victims cannot share decode "
                f"state across seeds")

    def run(self, *, stride: int = DEFAULT_STRIDE,
            collect_trace: bool = False,
            on_syscall: Optional[SyscallHandler] = None
            ) -> List[VectorLane]:
        """Round-robin every lane in ``stride``-retire turns until all
        lanes halt (or a handler finishes them).  Returns the lanes.

        Each turn is an ordinary ``Core.run`` slice, so per-lane
        behaviour — cycles, traces, BTB, LBR, stop reasons — is exactly
        what the same slicing would produce stand-alone; only decode
        work is amortized across lanes.
        """
        if stride < 1:
            raise VectorizationError("stride must be >= 1")
        active = [lane for lane in self.lanes if not lane.finished]
        while active:
            telemetry.count("cpu.vector.turns")
            still_active: List[VectorLane] = []
            for lane in active:
                result = lane.core.run(
                    lane.state, collect_trace=collect_trace,
                    max_retired=stride,
                    max_instructions=lane.max_instructions)
                lane.instructions += result.instructions
                lane.reason = result.reason
                self._check_generation(lane)
                if result.reason is StopReason.RETIRE_LIMIT:
                    still_active.append(lane)
                    continue
                if (result.reason is StopReason.SYSCALL
                        and on_syscall is not None
                        and on_syscall(lane, result)):
                    still_active.append(lane)
                    continue
                lane.finished = True
            active = still_active
        return self.lanes


def run_many_seeds(make_lane: Callable[[int, int], VectorLane],
                   seeds: List[int], *,
                   stride: int = DEFAULT_STRIDE,
                   collect_trace: bool = False,
                   on_syscall: Optional[SyscallHandler] = None,
                   vectorize: bool = True) -> List[VectorLane]:
    """Run one lane per seed; lockstep+shared when ``vectorize``.

    ``make_lane(index, seed)`` builds a fresh lane.  With
    ``vectorize=False`` the same lanes run sequentially with *private*
    caches and the same ``stride`` slicing — the N×1 reference the
    vectorized mode is benchmarked (and differentially tested)
    against: architectural and micro-architectural results are
    bit-identical either way.
    """
    lanes = [make_lane(index, seed) for index, seed in enumerate(seeds)]
    if vectorize:
        VectorGroup(lanes).run(stride=stride, collect_trace=collect_trace,
                               on_syscall=on_syscall)
        return lanes
    for lane in lanes:
        VectorGroup([lane]).run(stride=stride, collect_trace=collect_trace,
                                on_syscall=on_syscall)
    return lanes
