"""PW traversal: binary search for each dynamic instruction's base
address (paper §6.3, Fig. 10).

Two sweep strategies find each step's 32-byte block:

* ``"paper"`` — exactly Fig. 10: the 128 disjoint 32-byte PWs of the
  step's code page are tested ``N`` at a time, ascending, across
  ``128/N`` full enclave re-executions.
* ``"adaptive"`` (default) — same primitive, smarter scheduling: each
  step first probes the blocks near the *previous step's* hit (code is
  local), then globally hot blocks, then the untested remainder.  A
  hit in block ``b`` is only *confirmed* as the lowest once ``b - 32``
  has tested unmatched (a fetch spans at most two adjacent blocks).
  Most steps confirm within one or two runs.

After the sweep, each step narrows up to **two candidate lanes**: the
lowest matched block, plus the next non-adjacent matched block if one
exists.  Two lanes arise from the §6.3 speculation effect: when the
instructions past the interrupt speculatively execute a *predicted
taken* branch, the fetch continues at its target and the target's
block matches too, so the step reports both its own PC and the PC a
*later* step will retire at.  Every lane is narrowed (pass-per-split,
one enclave re-execution each) down to a 2-byte PW, then resolved to
the byte with a final point probe.

The cross-step disambiguation is the paper's: a lane value that
reappears as a *later* nearby step's resolution is the speculative
artifact and is discarded ("comparing the two PC sets and ruling out
the repeated candidates", §6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..errors import AttackError
from ..memory.address import BLOCK_SIZE, PAGE_SIZE
from .pw import PwRange

#: how far ahead (in steps) the disambiguation looks for a repeat —
#: a speculative artifact retires at most ~spec_lookahead units later
DISAMBIGUATION_WINDOW = 14


@dataclass
class _Lane:
    """One candidate being narrowed for a step."""

    candidate: PwRange
    resolved: Optional[int] = None


@dataclass
class StepSearch:
    """Search state for one dynamic instruction (one step)."""

    #: candidate page bases (from the controlled channel); usually one,
    #: two around page transitions/straddling instructions
    page_bases: List[int]
    #: block starts already tested during the sweep
    tested: Set[int] = field(default_factory=set)
    #: block starts that matched during the sweep
    matched_blocks: Set[int] = field(default_factory=set)
    #: candidate lanes (populated when the sweep finishes; <= 2)
    lanes: List[_Lane] = field(default_factory=list)
    #: sweep finished for this step (confirmed or exhausted)
    sweep_done: bool = False

    @property
    def lowest_matched(self) -> Optional[int]:
        return min(self.matched_blocks) if self.matched_blocks else None

    def all_blocks(self) -> List[int]:
        out: List[int] = []
        for base in self.page_bases:
            out.extend(range(base, base + PAGE_SIZE, BLOCK_SIZE))
        return out


class PwTraversal:
    """Drives the per-step binary search across NV-S runs.

    The orchestrator (NV-S) repeatedly asks :meth:`queries_for` what to
    monitor at each step of the *next* run, performs the run, and feeds
    measurements back via :meth:`record`; :meth:`value_sets` then
    holds each step's lane resolutions for :func:`disambiguate_values`.
    """

    #: hard cap on narrowing rounds (noise could stall a step)
    MAX_NARROW_ROUNDS = 16

    def __init__(self, num_steps: int,
                 page_bases: Sequence[Sequence[int]], *,
                 pws_per_call: int = 8,
                 strategy: str = "adaptive",
                 restrict_to: Optional[Set[int]] = None,
                 tested_preseed: Optional[
                     Sequence[Set[int]]] = None):
        if len(page_bases) != num_steps:
            raise AttackError("page_bases must have one entry per step")
        if pws_per_call < 1:
            raise AttackError("pws_per_call must be >= 1")
        if strategy not in ("adaptive", "paper"):
            raise AttackError(f"unknown sweep strategy {strategy!r}")
        self.num_steps = num_steps
        self.pws_per_call = pws_per_call
        self.strategy = strategy
        #: only these step indices are measured (None = all); used by
        #: the second-round sweep over suspicious steps
        self.restrict_to = restrict_to
        self.steps = [StepSearch(page_bases=sorted(bases))
                      for bases in page_bases]
        if tested_preseed is not None:
            for search, seen in zip(self.steps, tested_preseed):
                search.tested = set(seen)
        self._sweep_cursor = 0            # paper strategy only
        # phases: sweep -> narrow -> final0 -> final1 -> done
        self._phase = "sweep"
        self._narrow_rounds = 0
        #: blocks that matched for any step (locality prior)
        self._hot_blocks: Dict[int, int] = {}
        self._last_hit_block: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._phase == "done"

    def total_sweep_runs(self) -> int:
        """Worst-case sweep runs under the *paper* strategy (128/N)."""
        blocks = PAGE_SIZE // BLOCK_SIZE
        return (blocks + self.pws_per_call - 1) // self.pws_per_call

    # ------------------------------------------------------------------
    # what to monitor at each step of the next run
    # ------------------------------------------------------------------
    def queries_for(self, step: int) -> List[PwRange]:
        """PW ranges to prime/probe around dynamic instruction ``step``
        in the upcoming run."""
        if self.restrict_to is not None and step not in self.restrict_to:
            return []
        search = self.steps[step]
        if self._phase == "sweep":
            if search.sweep_done:
                return []
            if self.strategy == "paper":
                return self._paper_sweep_queries(search)
            return self._adaptive_sweep_queries(search)
        if self._phase == "narrow":
            queries: List[PwRange] = []
            for lane in search.lanes:
                if lane.candidate.size > 2:
                    # Sub-PWs of one candidate share a fetch block and
                    # hence a BTB set: cap the split at 4 so the batch
                    # stays well under the 8-way associativity.
                    queries.extend(lane.candidate.split(
                        min(4, self.pws_per_call)))
            return queries
        if self._phase in ("final0", "final1"):
            index = 0 if self._phase == "final0" else 1
            if index >= len(search.lanes):
                return []
            lane = search.lanes[index]
            if lane.resolved is not None:
                return []
            return [PwRange(lane.candidate.start - 1,
                            lane.candidate.start + 1)]
        return []

    def _paper_sweep_queries(self, search: StepSearch) -> List[PwRange]:
        queries: List[PwRange] = []
        for page_base in search.page_bases:
            window = page_base + self._sweep_cursor * BLOCK_SIZE
            limit = min(window + self.pws_per_call * BLOCK_SIZE,
                        page_base + PAGE_SIZE)
            queries.extend(
                PwRange(start, start + BLOCK_SIZE)
                for start in range(window, limit, BLOCK_SIZE)
                if start not in search.tested)
        return queries

    def _adaptive_sweep_queries(self,
                                search: StepSearch) -> List[PwRange]:
        ordered: List[int] = []

        def push(block: Optional[int]) -> None:
            if block is None or block in search.tested:
                return
            if block in ordered:
                return
            for base in search.page_bases:
                if base <= block < base + PAGE_SIZE:
                    ordered.append(block)
                    return

        # 1. confirmation of an existing hit comes first
        if search.lowest_matched is not None:
            push(search.lowest_matched - BLOCK_SIZE)
        # 2. locality: the previous step's block and its neighbours
        if self._last_hit_block is not None:
            for delta in (0, BLOCK_SIZE, -BLOCK_SIZE,
                          2 * BLOCK_SIZE, -2 * BLOCK_SIZE):
                push(self._last_hit_block + delta)
        # 3. globally hot blocks
        for block in sorted(self._hot_blocks,
                            key=self._hot_blocks.get, reverse=True):
            if len(ordered) >= self.pws_per_call:
                break
            push(block)
        # 4. untested remainder, ascending
        if len(ordered) < self.pws_per_call:
            for block in search.all_blocks():
                if len(ordered) >= self.pws_per_call:
                    break
                push(block)
        return [PwRange(start, start + BLOCK_SIZE)
                for start in sorted(ordered[:self.pws_per_call])]

    # ------------------------------------------------------------------
    # feed one step's probe result back
    # ------------------------------------------------------------------
    def record(self, step: int, queries: List[PwRange],
               matched: List[bool]) -> None:
        search = self.steps[step]
        hits = [pw for pw, hit in zip(queries, matched) if hit]
        if self._phase in ("final0", "final1"):
            index = 0 if self._phase == "final0" else 1
            if index < len(search.lanes):
                lane = search.lanes[index]
                if lane.resolved is None:
                    # Probed [b-1, b+1): the probe's entry sits at byte
                    # b, so it matches iff the instruction starts at b.
                    lane.resolved = (lane.candidate.start if hits
                                     else lane.candidate.start + 1)
            return
        if self._phase == "narrow":
            for lane in search.lanes:
                lane_hits = [pw for pw in hits
                             if lane.candidate.start <= pw.start
                             < lane.candidate.end]
                if lane_hits:
                    lane.candidate = min(lane_hits,
                                         key=lambda pw: pw.start)
            return
        # ----- sweep ----------------------------------------------------
        search.tested.update(pw.start for pw in queries)
        for pw in hits:
            search.matched_blocks.add(pw.start)
            self._hot_blocks[pw.start] = \
                self._hot_blocks.get(pw.start, 0) + 1
        if hits:
            self._last_hit_block = min(search.matched_blocks)
        self._update_sweep_done(search)
        if search.sweep_done:
            self._build_lanes(search)

    def _update_sweep_done(self, search: StepSearch) -> None:
        lowest = search.lowest_matched
        if lowest is not None:
            at_page_start = any(lowest == base
                                for base in search.page_bases)
            if at_page_start or lowest - BLOCK_SIZE in search.tested:
                search.sweep_done = True
                return
        if len(search.tested) >= len(search.all_blocks()):
            search.sweep_done = True     # exhausted (possibly no hit)

    def _build_lanes(self, search: StepSearch) -> None:
        if search.lanes or not search.matched_blocks:
            return
        blocks = sorted(search.matched_blocks)
        lowest = blocks[0]
        search.lanes.append(_Lane(PwRange(lowest, lowest + BLOCK_SIZE)))
        for block in blocks[1:]:
            if block > lowest + BLOCK_SIZE:
                # A second, non-adjacent matched block: possible §6.3
                # speculation artifact pair — narrow it too.
                search.lanes.append(
                    _Lane(PwRange(block, block + BLOCK_SIZE)))
                break

    # ------------------------------------------------------------------
    # pass sequencing
    # ------------------------------------------------------------------
    def _active_steps(self):
        if self.restrict_to is None:
            return self.steps
        return [self.steps[index] for index in self.restrict_to
                if index < self.num_steps]

    def advance(self) -> None:
        """Move to the next run (and possibly the next phase)."""
        if self._phase == "sweep":
            if self.strategy == "paper":
                self._sweep_cursor += self.pws_per_call
                if self._sweep_cursor * BLOCK_SIZE >= PAGE_SIZE:
                    self._finish_sweep()
            elif all(s.sweep_done for s in self._active_steps()):
                self._finish_sweep()
            return
        if self._phase == "narrow":
            self._narrow_rounds += 1
            stalled = self._narrow_rounds >= self.MAX_NARROW_ROUNDS
            if stalled or all(
                    lane.candidate.size <= 2
                    for s in self._active_steps() for lane in s.lanes):
                self._phase = "final0"
            return
        if self._phase == "final0":
            if any(len(s.lanes) > 1 for s in self.steps):
                self._phase = "final1"
            else:
                self._phase = "done"
            return
        if self._phase == "final1":
            self._phase = "done"
            return

    def _finish_sweep(self) -> None:
        for search in self.steps:
            search.sweep_done = True
            self._build_lanes(search)
        self._phase = "narrow"

    # ------------------------------------------------------------------
    def confidence_for(self, index: int) -> float:
        """How far step ``index``'s search progressed, as a confidence
        in [0, 1] — graceful-degradation metadata for partial
        extractions (budget ran out mid-traversal)."""
        search = self.steps[index]
        resolved = [lane for lane in search.lanes
                    if lane.resolved is not None]
        if resolved:
            return 0.95 if len(resolved) == 1 else 0.8
        if not search.sweep_done:
            return 0.0
        if search.lanes:
            # Block(s) found, byte-level resolution still pending: the
            # best guess is the lane start, accurate to a fetch block.
            return 0.4
        return 0.0

    def value_sets(self) -> List[List[int]]:
        """Per-step lane resolutions (pre-disambiguation candidates)."""
        return [
            sorted({lane.resolved for lane in search.lanes
                    if lane.resolved is not None})
            for search in self.steps
        ]


def disambiguate_values(value_sets: Sequence[Sequence[int]],
                        window: int = DISAMBIGUATION_WINDOW
                        ) -> List[Optional[int]]:
    """§6.3 cross-step disambiguation over per-step candidate sets.

    A candidate that reappears as a *later* nearby step's chosen value
    is a speculative artifact (the PC of an instruction that retires
    later); remaining candidates resolve to the smallest.  Processed
    back-to-front so later choices are final.
    """
    count = len(value_sets)
    chosen: List[Optional[int]] = [None] * count
    for index in range(count - 1, -1, -1):
        values = list(value_sets[index])
        if not values:
            continue
        if len(values) == 1:
            chosen[index] = values[0]
            continue
        upcoming = {
            chosen[j]
            for j in range(index + 1, min(index + 1 + window, count))
            if chosen[j] is not None
        }
        # ±1-byte tolerance: the artifact's final point probe can land
        # on either byte of its 2-byte candidate depending on how deep
        # that run's speculation happened to reach.
        surviving = [
            v for v in values
            if not any(abs(v - c) <= 1 for c in upcoming)
        ]
        chosen[index] = min(surviving) if surviving else min(values)
    return chosen


def suspicious_steps(chosen: Sequence[Optional[int]],
                     value_sets: Sequence[Sequence[int]],
                     window: int = DISAMBIGUATION_WINDOW) -> Set[int]:
    """Steps whose resolution looks like a speculation artifact (it
    reappears as a later nearby step's value) or failed outright —
    candidates for a second, exhaustive sweep round."""
    out: Set[int] = set()
    count = len(chosen)
    for index in range(count):
        if chosen[index] is None:
            out.add(index)
            continue
        if len(value_sets[index]) > 1:
            continue     # already had alternatives to choose between
        for later in range(index + 1,
                           min(index + 1 + window, count)):
            if chosen[later] is not None and \
                    abs(chosen[later] - chosen[index]) <= 1:
                out.add(index)
                break
    return out
