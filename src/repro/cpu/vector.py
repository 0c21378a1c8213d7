"""Vectorized many-seeds execution: N lockstep runs, decode once.

A campaign multiplies *seeds*: the same victim binary executed under N
different inputs.  Decode artifacts — icache fills and decoded-window
builds (:mod:`repro.cpu.decoded`) — depend only on the code bytes,
which every seed shares.  Lanes loaded from one program share them
through the program's code images (``isa.assembler.SegmentImage``):
the first lane to reach a PC decodes it and builds its window, every
other lane takes the loader's decode and adopts that window into its
own caches.  Superblocks stay per lane: a superblock pins the owning
core's BTB (and the lookups it was built from), and each lane has its
own BTB.

Determinism argument
--------------------
Lane isolation is complete for everything observable: registers, data
pages, page tables, icache, window and superblock caches, BTB, LBR and
cycle accounting all live per lane.  What lanes share is immutable and
content-addressed: an image serves a lane only while the lane's bytes
over the segment are the image's bytes, and every adoption re-runs the
fetch checks the lane's own build would have made.  A lane that writes
its code detaches the image from itself alone and decodes its own
bytes from then on, so lockstep results are bit-identical to running
each lane alone — self-modifying victims included.
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
    """One seed's run: private core, state and caches."""

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
    """N lanes stepping in lockstep; decode work is shared through the
    lanes' code images."""

    def __init__(self, lanes: List[VectorLane]):
        if not lanes:
            raise VectorizationError("a vector group needs >= 1 lane")
        self.lanes = lanes
        telemetry.count("cpu.vector.lanes", len(lanes))

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
    """Run one lane per seed; in lockstep when ``vectorize``.

    ``make_lane(index, seed)`` builds a fresh lane.  With
    ``vectorize=False`` the same lanes run one after another with the
    same ``stride`` slicing — the N×1 reference the vectorized mode is
    benchmarked (and differentially tested) against: architectural and
    micro-architectural results are bit-identical either way.
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
