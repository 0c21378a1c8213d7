"""Analyzer-vs-simulator differential validation.

The static layer is only trustworthy if it *contains* the dynamic
truth: every branch the simulator retires, every BTB insertion it
performs, and every false hit it settles must have been predicted
statically.  This module runs a victim on a fresh
:class:`repro.cpu.core.Core` inside a tracing
:func:`repro.telemetry.session`, collects the ``cpu.btb.insert`` /
``cpu.btb.update`` / ``cpu.core.false_hit`` events, and checks them
against the CFG / alias-map predictions.

Two numbers summarise the comparison:

* **recall** — fraction of observed events that were predicted; the
  contract is recall == 1.0 (containment), anything less is a bug in
  the analyzer or a semantics drift between it and the simulator;
* **precision** — fraction of *reachable* predictions that were
  observed; over-approximation is expected (both arms of every branch
  are predicted, one run takes one), but it must be bounded, not
  vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..cpu.config import CpuGeneration, DEFAULT_GENERATION
from ..cpu.core import Core, StopReason
from ..cpu.state import MachineState
from .aliasing import Coord, build_alias_map
from .cfg import CFG, CodeImage, linear_sweep, recover_module_cfg

_STACK_TOP = 0x7FFF_0000_0000


@dataclass
class DynamicObservation:
    """Everything the instrumented run produced."""

    trace: List[int]                     # retired instruction pcs
    #: (tag, set_index, offset) of every BTB allocate/update
    insertions: Set[Coord]
    #: (entry coordinate, fetch block base) of every settled false hit
    false_hits: Set[Tuple[Coord, int]]
    retired: int = 0


@dataclass
class DifferentialReport:
    """Containment + precision verdict for one victim run."""

    victim: str
    observation: DynamicObservation
    #: dynamic edges (src, dst) not statically predicted — must be empty
    unpredicted_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: dynamic insertions not statically predicted — must be empty
    unpredicted_insertions: List[Coord] = field(default_factory=list)
    #: dynamic false hits not statically predicted — must be empty
    unpredicted_false_hits: List[Tuple[Coord, int]] = field(
        default_factory=list)
    edge_precision: float = 1.0
    insertion_precision: float = 1.0
    precision: float = 1.0

    @property
    def contained(self) -> bool:
        return not (self.unpredicted_edges
                    or self.unpredicted_insertions
                    or self.unpredicted_false_hits)

    @property
    def recall(self) -> float:
        observed = (max(len(self.observation.trace) - 1, 0)
                    + len(self.observation.insertions)
                    + len(self.observation.false_hits))
        if observed == 0:
            return 1.0
        missed = (len(self.unpredicted_edges)
                  + len(self.unpredicted_insertions)
                  + len(self.unpredicted_false_hits))
        return 1.0 - missed / observed


def observe_run(victim, inputs: Dict[str, int], *,
                config: Optional[CpuGeneration] = None,
                max_segments: int = 2_000_000) -> DynamicObservation:
    """Run ``victim`` start-to-halt on an instrumented core.

    The run happens inside a fresh tracing telemetry session (isolated
    from any session the caller has open — the differential wants only
    its own victim's events), and the decoded-window fast path is
    disabled so every retirement goes through the full front-end model
    (the fast path is proven observably identical elsewhere; here we
    want the event stream, not speed).
    """
    from ..cpu import set_fast_path

    memory = victim.new_memory(inputs)
    state = MachineState(memory)
    state.setup_stack(_STACK_TOP)
    state.rip = victim.compiled.start
    trace: List[int] = []
    retired = 0
    previous = set_fast_path(False)
    try:
        with telemetry.session(trace=True) as sink:
            core = Core(config if config is not None
                        else DEFAULT_GENERATION)
            for _ in range(max_segments):
                result = core.run(state, collect_trace=True)
                if result.trace:
                    trace.extend(result.trace)
                retired += result.retired
                if result.reason is StopReason.SYSCALL:
                    state.regs["rax"] = 0      # yields are no-ops
                    continue
                break
            else:
                raise RuntimeError(
                    f"victim did not halt within {max_segments} segments")
    finally:
        set_fast_path(previous)
    insertions = btb_insertions(sink.events)
    observed_false_hits = false_hit_blocks(sink.events)
    return DynamicObservation(trace=trace, insertions=insertions,
                              false_hits=observed_false_hits,
                              retired=retired)


def btb_insertions(events: List[dict]) -> Set[Coord]:
    """(tag, set, offset) of every BTB insert/update in a trace."""
    return {(event["tag"], event["set"], event["off"])
            for event in events
            if event["ev"] in ("cpu.btb.insert", "cpu.btb.update")}


def false_hit_blocks(events: List[dict]) -> Set[Tuple[Coord, int]]:
    """(entry coordinate, fetch block base) of every false hit in a
    trace — the shape :class:`repro.analysis.aliasing.AliasMap`
    predicts."""
    block_mask = ~0x1F
    return {((event["tag"], event["set"], event["off"]),
             event["pc"] & block_mask)
            for event in events if event["ev"] == "cpu.core.false_hit"}


def validate_victim(victim, inputs: Dict[str, int], *,
                    name: str = "victim",
                    config: Optional[CpuGeneration] = None,
                    cfg: Optional[CFG] = None,
                    ) -> DifferentialReport:
    """Full differential check of one victim under one input vector."""
    generation = config if config is not None else DEFAULT_GENERATION
    if cfg is None:
        cfg = recover_module_cfg(victim.compiled)
    image = CodeImage.from_program(victim.compiled.program)
    swept = linear_sweep(image)
    # sweep ∪ descent: the fetch-ahead drain can insert entries for
    # decodable-but-unreachable branches, so containment is checked
    # against the union; precision against the reachable (descent) set.
    union = dict(swept)
    union.update(cfg.instrs)
    containment_map = build_alias_map(union, generation)
    reachable_map = build_alias_map(cfg.instrs, generation)

    observation = observe_run(victim, inputs, config=generation)
    report = DifferentialReport(victim=name, observation=observation)

    # -- edges ----------------------------------------------------------
    successors = cfg.successor_map()
    observed_edges: Set[Tuple[int, int]] = set()
    for src, dst in zip(observation.trace, observation.trace[1:]):
        observed_edges.add((src, dst))
        if src not in successors:
            report.unpredicted_edges.append((src, dst))
            continue
        allowed = successors[src]
        if allowed is not None and dst not in allowed:
            report.unpredicted_edges.append((src, dst))

    predicted_edges: Set[Tuple[int, int]] = set()
    for src, allowed in successors.items():
        if allowed is None:
            continue                     # ⊤: excluded from precision
        for dst in allowed:
            predicted_edges.add((src, dst))
    if predicted_edges:
        report.edge_precision = (
            len(predicted_edges & observed_edges) / len(predicted_edges))

    # -- BTB insertions -------------------------------------------------
    containment_coords = containment_map.coords()
    for coord in sorted(observation.insertions):
        if coord not in containment_coords:
            report.unpredicted_insertions.append(coord)
    predicted_coords = reachable_map.coords()
    if predicted_coords:
        report.insertion_precision = (
            len(predicted_coords & observation.insertions)
            / len(predicted_coords))

    # -- false hits -----------------------------------------------------
    predicted_fh = containment_map.false_hit_blocks
    for pair in sorted(observation.false_hits):
        if pair not in predicted_fh:
            report.unpredicted_false_hits.append(pair)

    # -- headline precision --------------------------------------------
    numerator = (len(predicted_edges & observed_edges)
                 + len(predicted_coords & observation.insertions))
    denominator = len(predicted_edges) + len(predicted_coords)
    report.precision = (numerator / denominator) if denominator else 1.0
    return report
