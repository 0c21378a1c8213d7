"""Use case 1: the control-flow leakage attack (paper §5, Fig. 8).

The attacker knows the (public, possibly hardened) victim binary and
wants the direction of a secret-dependent balanced branch at every
loop iteration.  Strategy (§5.2):

* pick PW ranges that are sub-intervals of the *then* and *else* arm
  address ranges (PW options 1 and 2 of Fig. 8);
* run NV-U: one fragment per loop iteration (sched_yield-driven);
* per fragment, deduce the direction from which arm's PW matched.
  Monitoring both arms also detects fragments where neither arm ran —
  the excessive-preemption filter the paper describes.

This defeats branch balancing (both arms look identical but are at
*different addresses*), ``-falign-jumps`` and CFR (the branch decision
itself is never observed) — and survives IBRS/IBPB, which only drop
indirect-branch BTB entries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import AttackError
from ..lang.codegen import ArmRegion
from ..memory.address import block_end
from ..system.kernel import Kernel
from ..victims.library import VictimProgram
from .measurement import MeasurementPolicy
from .nv_core import NvCore
from .nv_user import NvUser
from .pw import PwRange


class Direction(enum.Enum):
    """Per-iteration verdict for the secret branch."""

    THEN = "then"
    ELSE = "else"
    NONE = "none"          # neither arm observed (no iteration ran)
    AMBIGUOUS = "both"     # both arms observed (over-long fragment)


def arm_pw(start: int, end: int, max_size: int = 16) -> PwRange:
    """A PW that is a sub-interval of the arm ``[start, end)``.

    PWs cannot cross a 32-byte fetch-block boundary, so take the
    largest prefix of the arm inside its first block (>= 2 bytes).
    """
    limit = min(end, block_end(start), start + max_size)
    if limit - start < 2:
        # Arm starts at the last byte of a block: step to the next
        # block (the arm is longer than 2 bytes in practice).
        start2 = block_end(start)
        limit = min(end, start2 + max_size, block_end(start2))
        if limit - start2 < 2:
            raise AttackError(
                f"arm [{start:#x},{end:#x}) too small for a PW")
        return PwRange(start2, limit)
    return PwRange(start, limit)


@dataclass
class CflResult:
    """Outcome of one attacked victim run."""

    directions: List[Direction]
    #: per-fragment raw matches [(then_matched, else_matched), ...]
    raw: List[Tuple[bool, bool]]
    #: per-fragment confidence (min over the monitored ranges); all
    #: 1.0 on the naive path
    confidence: List[float] = field(default_factory=list)

    def mean_confidence(self) -> float:
        if not self.confidence:
            return 1.0
        return sum(self.confidence) / len(self.confidence)

    def inferred(self) -> List[bool]:
        """Directions as booleans (True = then), skipping fragments
        where no iteration was observed."""
        return [d is Direction.THEN for d in self.directions
                if d in (Direction.THEN, Direction.ELSE)]

    def accuracy_against(self, truth: List[bool]) -> float:
        """Fraction of ground-truth iterations correctly recovered.

        Observed directions are matched positionally against the truth
        sequence; missing/ambiguous fragments count as errors.
        """
        if not truth:
            return 1.0
        usable = [d for d in self.directions
                  if d is not Direction.NONE]
        correct = 0
        for expected, direction in zip(truth, usable):
            if direction is (Direction.THEN if expected
                             else Direction.ELSE):
                correct += 1
        return correct / len(truth)


class ControlFlowLeakAttack:
    """End-to-end §5 attack against a :class:`VictimProgram`."""

    #: fragments one attacked run may take before NV-U stops
    MAX_FRAGMENTS = 10_000

    def __init__(self, kernel: Kernel, victim_program: VictimProgram, *,
                 detector: str = "hybrid",
                 policy: Optional[MeasurementPolicy] = None):
        self.kernel = kernel
        self.victim_program = victim_program
        if policy is not None and policy.constraint is None:
            # Both arms are monitored and exactly one runs per
            # fragment — the strongest unknown-resolution prior the
            # policy supports.
            policy = policy.with_(constraint="exactly_one")
        self.nv = NvCore(kernel, detector=detector, policy=policy)
        self.nv_user = NvUser(self.nv)
        self.arm = self._select_arm()
        self.then_pw = arm_pw(self.arm.then_start, self.arm.then_end)
        self.else_pw = arm_pw(self.arm.else_start, self.arm.else_end)
        self.session = self.nv.monitor([self.then_pw, self.else_pw])

    def _select_arm(self) -> ArmRegion:
        """The secret branch: the if/else with the largest arms (the
        GCD reduce step); ties break to the first."""
        compiled = self.victim_program.compiled
        arms = compiled.arms_in(self.victim_program.secret_function)
        if not arms:
            raise AttackError(
                f"no if/else in {self.victim_program.secret_function}")
        return max(arms, key=lambda arm: min(
            arm.then_end - arm.then_start,
            arm.else_end - arm.else_start))

    # ------------------------------------------------------------------
    def ground_truth(self, inputs: dict) -> List[bool]:
        """Per-iteration truth: did the *then* arm execute?

        Derived from the victim's own execution trace (arm entry PCs),
        so it is correct for every source variant — including ones
        like mbedTLS 2.16 whose swap-based rewrite permutes the
        comparison operands across iterations.  Translate to key-bit
        semantics via ``victim_program.then_arm_is_truth``.
        """
        trace = self.victim_program.ground_truth(inputs).trace
        truth: List[bool] = []
        for pc in trace:
            if pc == self.arm.then_start:
                truth.append(True)
            elif pc == self.arm.else_start:
                truth.append(False)
        return truth

    def attack(self, inputs: dict) -> CflResult:
        """Run one victim instance to completion and classify every
        fragment."""
        victim = self.victim_program.new_process(inputs)
        self.kernel.add_process(victim)
        try:
            outcome = self.nv_user.run(victim, self.session,
                                       max_fragments=self.MAX_FRAGMENTS)
        finally:
            # Release the finished victim (and its address space).
            if victim in self.kernel.processes:
                self.kernel.processes.remove(victim)
        directions: List[Direction] = []
        raw: List[Tuple[bool, bool]] = []
        confidence: List[float] = []
        for observation in outcome.observations:
            then_hit, else_hit = observation.matched
            raw.append((then_hit, else_hit))
            confidence.append(min(observation.confidence)
                              if observation.confidence else 1.0)
            if then_hit and else_hit:
                directions.append(Direction.AMBIGUOUS)
            elif then_hit:
                directions.append(Direction.THEN)
            elif else_hit:
                directions.append(Direction.ELSE)
            elif (observation.confidence is not None
                  and min(observation.confidence) < 0.5):
                # Both arms read miss, but at low confidence (dropped
                # records degraded instead of observed): an iteration
                # probably did run and its direction was lost.  Report
                # an explicit unknown rather than NONE — silently
                # deleting the fragment would shift every later
                # iteration against the truth sequence.
                directions.append(Direction.AMBIGUOUS)
            else:
                directions.append(Direction.NONE)
        return CflResult(directions=directions, raw=raw,
                         confidence=confidence)
