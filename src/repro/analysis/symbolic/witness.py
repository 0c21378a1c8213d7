"""Witness synthesis and dynamic replay.

A solver model is a truth assignment over the declared symbolic bits
of the secret input arrays; :func:`inputs_for_model` turns it back
into a concrete ``VictimProgram`` input map.  :func:`replay_btb_stream`
then runs that input start-to-halt on an instrumented
:class:`repro.cpu.core.Core` — exactly the
:func:`repro.analysis.differential.observe_run` harness — but keeps
the BTB-visible events **ordered**: divergence of two witnesses'
streams is the dynamic proof of a leak, bit-identical streams after
the constant-time rewrite are the dynamic proof of the repair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import differential
from ...cpu.config import CpuGeneration
from ...cpu.interp import run_function
from ...cpu.state import MachineState

__all__ = ["inputs_for_model", "replay_btb_stream",
           "replay_result_arrays", "BtbEvent"]

#: (event name, tag, set index, offset, fetch-block base or 0)
BtbEvent = Tuple[str, int, int, int, int]

_BTB_EVENTS = ("cpu.btb.insert", "cpu.btb.update", "cpu.core.false_hit")
_BLOCK_MASK = ~0x1F
_STACK_TOP = 0x7FFF_0000_0000


def inputs_for_model(domains: Sequence, model: Dict[str, bool],
                     template: Optional[Dict[str, int]] = None
                     ) -> Dict[str, int]:
    """Concrete input map for a solver model (unassigned bits are 0)."""
    inputs = dict(template or {})
    for domain in domains:
        value = domain.forced_or
        for j in range(domain.bits):
            position = domain.shift + j
            if model.get(f"{domain.array}.{position}", False):
                value |= 1 << position
        inputs[domain.array] = value
    return inputs


def replay_btb_stream(victim, inputs: Dict[str, int], *,
                      config: Optional[CpuGeneration] = None,
                      max_segments: int = 2_000_000) -> List[BtbEvent]:
    """Ordered BTB-visible event stream of one concrete run.

    Same harness as :func:`repro.analysis.differential.observe_run`
    (fast path off, fresh tracing telemetry session, yields resumed
    with ``rax = 0``), but the events keep their order — the stream
    *is* what a BTB-side observer sees, so stream equality is the
    convergence criterion for the rewrite validation.
    """
    from ... import telemetry
    from ...cpu import set_fast_path
    from ...cpu.config import DEFAULT_GENERATION
    from ...cpu.core import Core, StopReason

    memory = victim.new_memory(inputs)
    state = MachineState(memory)
    state.setup_stack(_STACK_TOP)
    if victim.compiled.start is None:
        raise ValueError("victim was compiled without a start stub")
    state.rip = victim.compiled.start
    previous = set_fast_path(False)
    try:
        with telemetry.session(trace=True) as sink:
            core = Core(config if config is not None
                        else DEFAULT_GENERATION)
            for _ in range(max_segments):
                result = core.run(state, collect_trace=True)
                if result.reason is StopReason.SYSCALL:
                    state.regs["rax"] = 0      # yields are no-ops
                    continue
                break
            else:
                raise RuntimeError(
                    f"victim did not halt within {max_segments} segments")
    finally:
        set_fast_path(previous)
    stream: List[BtbEvent] = []
    for event in sink.events:
        name = event.get("ev")
        if name not in _BTB_EVENTS:
            continue
        block = (event["pc"] & _BLOCK_MASK
                 if name == "cpu.core.false_hit" else 0)
        stream.append((name, event["tag"], event["set"],
                       event["off"], block))
    return stream


def replay_result_arrays(victim, inputs: Dict[str, int], *,
                         max_instructions: int = 5_000_000
                         ) -> Dict[str, Tuple[int, ...]]:
    """Run ``victim`` under the fast interpreter and read back every
    layout array — the functional-preservation oracle for the
    constant-time rewrite (same harness as
    :meth:`repro.victims.library.VictimProgram.ground_truth`)."""
    memory = victim.new_memory(inputs)
    state = MachineState(memory)
    state.setup_stack(_STACK_TOP)
    entry = victim.compiled.info(victim.main).entry
    run_function(state, entry, max_instructions=max_instructions,
                 syscall_handler=lambda s: True)
    arrays: Dict[str, Tuple[int, ...]] = {}
    for name, spec in sorted(victim.layout.arrays.items()):
        arrays[name] = tuple(
            state.memory.read_u64(spec.address + 8 * i)
            for i in range(spec.nlimbs))
    return arrays


# re-exported for the certify report's summary counters
btb_insertions = differential.btb_insertions
