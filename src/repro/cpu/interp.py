"""Fast functional interpreter — the ground-truth oracle.

Runs programs architecturally with *no* micro-architectural modelling
(no BTB, no cycles, no fusion).  Used for:

* ground-truth dynamic PC traces to validate NightVision's extraction
  accuracy (Figures 12/13, the §7.2 accuracy numbers);
* cheap corpus-scale trace generation for the fingerprint evaluation;
* differential testing of the cycle-accounted core (both must agree on
  architectural state — see the property tests).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .. import telemetry
from ..errors import SimulationTimeout
from ..isa.instructions import Instruction
from .decoded import (adopt_window, build_window, decode_at,
                      fast_path_enabled, raise_bad_opcode)
from .semantics import execute
from .state import MachineState

#: optional syscall hook: handler(state) -> True to continue, False to stop
SyscallHandler = Callable[[MachineState], bool]

#: how many instructions pass between wall-clock deadline checks
#: (``time.monotonic`` per instruction would dominate the loop)
_DEADLINE_STRIDE = 2048

#: ambient wall-clock deadline (``time.monotonic`` timestamp) applied
#: to every run — the campaign worker sets this so a non-terminating
#: victim raises :class:`SimulationTimeout` in-band instead of hanging
#: until the watchdog SIGKILLs the process.
_AMBIENT_DEADLINE: Optional[float] = None


def set_ambient_deadline(deadline: Optional[float]) -> None:
    """Install (or clear, with ``None``) the process-wide wall-clock
    deadline consulted by :func:`interpret`, :func:`run_function` and
    ``Core.run``."""
    global _AMBIENT_DEADLINE
    _AMBIENT_DEADLINE = deadline


def _check_deadline_now(count: int) -> None:
    """Unconditional ambient-deadline check, for threshold-strided
    loops.

    The run loops track ``next_deadline_check = count + stride``
    instead of testing ``count % stride`` — the decoded-window fast
    path advances ``count`` by whole windows, which would hop over
    exact multiples of the stride.
    """
    deadline = _AMBIENT_DEADLINE
    if deadline is not None and time.monotonic() > deadline:
        raise SimulationTimeout(
            f"wall-clock deadline expired after {count} instructions",
            executed=count, deadline=True)


class InterpStop(enum.Enum):
    HALT = "halt"
    SYSCALL = "syscall"
    LIMIT = "limit"
    RETURNED = "returned"   # ret with empty call depth (run_function)


@dataclass
class InterpResult:
    reason: InterpStop
    instructions: int
    #: dynamic PC trace of every executed instruction, in order
    trace: List[int] = field(default_factory=list)
    #: (pc, taken) for every conditional branch executed
    branch_events: List[Tuple[int, bool]] = field(default_factory=list)


def _fetch(state: MachineState, pc: int) -> Tuple[Instruction, int]:
    """Oracle fetch: icache hits skip *all* permission checks.

    This asymmetry with ``Core._decode`` (which re-checks execute
    permission on every fetch) is intentional: the oracle produces
    ground-truth traces and must not observe the supervisor attacker's
    controlled-channel permission flips.  The miss path — shared with
    the core via :func:`repro.cpu.decoded.decode_at` — does check,
    exactly as it always has, and so does a hit on a cached bad-opcode
    verdict, which raises exactly what the miss raised.
    """
    cached = state.memory.icache.get(pc)
    if cached is not None:
        if cached[0] is None:
            raise_bad_opcode(state.memory, pc)
        return cached  # type: ignore[return-value]
    return decode_at(state.memory, pc)


def _fold_run_counters(prefix: str, count: int) -> None:
    """Fold one oracle run's instruction total into the active sink.

    Called from a ``finally`` so aborted runs (deadline, fault) still
    report the instructions they executed; per-instruction hot loops
    never touch telemetry directly.
    """
    sink = telemetry.current()
    if sink is not None:
        sink.count(f"{prefix}.runs")
        if count:
            sink.count(f"{prefix}.instructions", count)


def _run(state: MachineState, max_instructions: int, collect_trace: bool,
         syscall_handler: Optional[SyscallHandler],
         stop_pc: Optional[int] = None) -> InterpResult:
    """The oracle's one run loop, behind :func:`interpret` and
    :func:`run_function`.

    Runs until ``hlt``, an unhandled syscall, reaching ``stop_pc``
    (stop reason RETURNED), or ``max_instructions`` (stop reason
    LIMIT; the callers raise on it).  With the fast path
    on, each window's cached straight-line prefix runs as compiled
    thunks and chains straight into its terminator.
    """
    memory = state.memory
    window_cache = getattr(memory, "window_cache", None)
    fast = fast_path_enabled() and window_cache is not None
    # ``epoch`` is ``memory.code_generation`` (one counter)
    page_table = memory.page_table if fast else None
    trace: List[int] = []
    branch_events: List[Tuple[int, bool]] = []
    count = 0
    next_deadline_check = _DEADLINE_STRIDE
    try:
        while count < max_instructions:
            if count >= next_deadline_check:
                next_deadline_check = count + _DEADLINE_STRIDE
                _check_deadline_now(count)
            pc = state.rip
            if pc == stop_pc:
                return InterpResult(InterpStop.RETURNED, count, trace,
                                    branch_events)
            instruction = None
            if fast:
                window = window_cache.get(pc)
                if (window is None
                        or window.generation != page_table.epoch):
                    window = (adopt_window(memory, pc)
                              or build_window(memory, pc))
                k = window.count
                i = 0
                if k:
                    if count + k > max_instructions:
                        k = max_instructions - count
                    pcs = window.pcs
                    thunks = window.thunks
                    try:
                        if window.has_store:
                            generation = window.generation
                            while i < k:
                                thunks[i](state)
                                i += 1
                                if page_table.epoch != generation:
                                    break   # self-modifying: re-decode
                        else:
                            while i < k:
                                thunks[i](state)
                                i += 1
                    except BaseException:
                        # Same observable state as the slow path: the
                        # faulting instruction is not counted or traced
                        # and RIP points at it.
                        count += i
                        if collect_trace:
                            trace.extend(pcs[:i])
                        state.rip = pcs[i]
                        raise
                    count += i
                    if collect_trace:
                        trace.extend(pcs[:i])
                    if i < window.count:
                        state.rip = pcs[i]
                        continue
                    state.rip = window.resume_pc
                # Chain straight into the window's terminator: the
                # cached decode replaces the ``_fetch`` the generic
                # loop would do at ``resume_pc`` (both skip permission
                # checks — the bytes were icached at build).
                term = window.terminator
                if (term is not None and i == window.count
                        and count < max_instructions
                        and page_table.epoch == window.generation):
                    pc = window.resume_pc
                    instruction = term
                elif k:
                    continue
            if instruction is None:
                instruction, _ = _fetch(state, pc)
            outcome = execute(state, instruction, pc)
            count += 1
            if collect_trace:
                trace.append(pc)
            if (outcome.taken is not None
                    and instruction.spec.cond is not None):
                branch_events.append((pc, outcome.taken))
            state.rip = outcome.next_pc
            if outcome.halt:
                return InterpResult(InterpStop.HALT, count, trace,
                                    branch_events)
            if outcome.syscall:
                if syscall_handler is None or not syscall_handler(state):
                    return InterpResult(InterpStop.SYSCALL, count, trace,
                                        branch_events)
    finally:
        _fold_run_counters("cpu.interp", count)
    return InterpResult(InterpStop.LIMIT, count, trace, branch_events)


def interpret(state: MachineState, *,
              max_instructions: int = 5_000_000,
              collect_trace: bool = True,
              syscall_handler: Optional[SyscallHandler] = None,
              ) -> InterpResult:
    """Run until ``hlt``, an unhandled syscall, or the budget.

    Past the ambient deadline installed by :func:`set_ambient_deadline`
    the run raises :class:`SimulationTimeout` (checked every
    ``_DEADLINE_STRIDE`` instructions).
    """
    result = _run(state, max_instructions, collect_trace, syscall_handler)
    if result.reason is InterpStop.LIMIT:
        raise SimulationTimeout(
            f"interpreter exceeded {max_instructions} instructions",
            budget=max_instructions, executed=result.instructions)
    return result


def run_function(state: MachineState, entry: int, *,
                 args: Optional[List[int]] = None,
                 max_instructions: int = 5_000_000,
                 collect_trace: bool = True,
                 syscall_handler: Optional[SyscallHandler] = None,
                 ) -> InterpResult:
    """Call the function at ``entry`` with the standard convention
    (args in rdi/rsi/rdx/rcx/r8/r9) and run until it returns.

    The function's return is detected with a sentinel return address,
    which is the run's stop pc.  The ambient deadline applies as in
    :func:`interpret`.
    """
    sentinel = 0xDEAD_0000_0000_0000 & ((1 << 48) - 1)  # canonical-ish
    arg_regs = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
    for register, value in zip(arg_regs, args or []):
        state.regs[register] = value
    state.push(sentinel)
    state.rip = entry
    result = _run(state, max_instructions, collect_trace, syscall_handler,
                  stop_pc=sentinel)
    if result.reason is InterpStop.LIMIT:
        raise SimulationTimeout(
            f"run_function exceeded {max_instructions} instructions",
            budget=max_instructions, executed=result.instructions)
    return result
