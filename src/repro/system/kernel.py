"""Kernel model: scheduling, syscalls, context switches, page faults.

Two usage styles:

* **Cooperative alternation** (the user-level attacker, §4.2/§7.2):
  :meth:`run_slice` runs a process until it calls ``sched_yield`` (or
  exits).  The NV-U experiments ping-pong between victim and attacker
  exactly the way the paper's proof-of-concept does.

* **Supervisor control** (§4.3): :meth:`single_step` delivers a timer
  interrupt after exactly one retire unit — the SGX-Step model — and
  the page-fault hook gives the controlled-channel attack its
  page-granular view.  How far the front end speculates past the
  interrupt is the core's ``spec_lookahead`` alone (§6.3).

Context switches call :meth:`Core.context_switch`, which applies
whatever mitigation the :class:`CpuGeneration` enables (IBRS/IBPB
indirect-only flush, full-flush, or BTB domain partitioning).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cpu.core import Core, RunResult, StopReason
from ..errors import NoRunnableProcess, PageFault, SystemError_
from .process import Process, ProcessStatus
from .syscalls import DEFAULT_SYSCALLS, SyscallHandler

#: fault_handler(kernel, process, fault) -> True if handled (retry), or
#: False to propagate the fault as an error.
FaultHandler = Callable[["Kernel", Process, PageFault], bool]


class Kernel:
    """Owns one core and a set of processes."""

    def __init__(self, core: Optional[Core] = None):
        self.core = core if core is not None else Core()
        self.processes: List[Process] = []
        self.current: Optional[Process] = None
        self.syscalls: Dict[int, SyscallHandler] = dict(DEFAULT_SYSCALLS)
        self.fault_handler: Optional[FaultHandler] = None
        #: optional :class:`repro.faults.FaultInjector`: consulted at
        #: slice boundaries (spurious BTB evictions, involuntary
        #: preemption) and by the SGX-Step model (zero/multi-step)
        self.fault_injector = None
        self._yield_flag = False
        self.context_switches = 0

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> Process:
        self.processes.append(process)
        return process

    def switch_to(self, process: Process) -> None:
        """Make ``process`` current, applying mitigation behaviour."""
        if process is self.current:
            return
        if (self.current is not None
                and self.current.status is ProcessStatus.RUNNING):
            self.current.status = ProcessStatus.READY
        self.current = process
        process.status = ProcessStatus.RUNNING
        self.context_switches += 1
        self.core.context_switch(domain=process.domain)

    def note_yield(self, process: Process) -> None:
        """Called by the sched_yield handler."""
        self._yield_flag = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch_syscall(self, process: Process) -> None:
        number = process.state.regs["rax"]
        handler = self.syscalls.get(number)
        if handler is None:
            raise SystemError_(
                f"{process.name}: unknown syscall {number}")
        handler(self, process)

    def run_slice(self, process: Process, *,
                  max_retired: Optional[int] = None,
                  collect_trace: bool = False) -> RunResult:
        """Run ``process`` until yield/exit/interrupt.

        Returns the *last* :class:`RunResult`; syscalls other than
        ``sched_yield``/``exit`` are transparently handled and the
        slice continues.
        """
        if not process.alive:
            raise SystemError_(f"{process.name} has exited")
        self.switch_to(process)
        self._yield_flag = False
        remaining = max_retired
        if self.fault_injector is not None:
            # Slice boundary: co-resident noise may evict shared BTB
            # entries, and a cooperative slice may be cut short by an
            # involuntary preemption (the caller sees RETIRE_LIMIT and
            # simply reschedules, as a real attacker loop would).
            self.fault_injector.on_slice(self.core)
            if max_retired is None:
                remaining = self.fault_injector.preempt_limit()
        merged_trace: List[int] = []
        merged_units: List[int] = []
        while True:
            result = self.core.run(
                process.state,
                max_retired=remaining,
                collect_trace=collect_trace,
            )
            process.retired += result.retired
            if collect_trace and result.trace:
                merged_trace.extend(result.trace)
                merged_units.extend(result.unit_starts or [])
            if remaining is not None:
                remaining -= result.retired
            if result.reason is StopReason.SYSCALL:
                self._dispatch_syscall(process)
                if not process.alive or self._yield_flag:
                    break
                if remaining is not None and remaining <= 0:
                    result = RunResult(StopReason.RETIRE_LIMIT,
                                       retired=result.retired,
                                       instructions=result.instructions,
                                       cycles=result.cycles)
                    break
                continue
            if result.reason is StopReason.PAGE_FAULT:
                if (self.fault_handler is not None
                        and self.fault_handler(self, process,
                                               result.fault)):
                    continue
                raise result.fault
            break
        if collect_trace:
            result.trace = merged_trace
            result.unit_starts = merged_units
        return result

    def single_step(self, process: Process, *,
                    collect_trace: bool = False) -> RunResult:
        """Deliver a timer interrupt after exactly one retire unit —
        the SGX-Step / supervisor-attacker primitive (§4.3)."""
        return self.run_slice(process, max_retired=1,
                              collect_trace=collect_trace)

    # ------------------------------------------------------------------
    # simple round-robin (for multi-process tests)
    # ------------------------------------------------------------------
    def schedule(self, quantum: int = 1000,
                 max_slices: int = 100_000) -> None:
        """Round-robin all processes until every one exits."""
        for _ in range(max_slices):
            runnable = [p for p in self.processes if p.alive]
            if not runnable:
                return
            for process in runnable:
                if not process.alive:
                    continue
                result = self.run_slice(process, max_retired=quantum)
                if result.reason is StopReason.HALT:
                    process.exit(0)
        raise NoRunnableProcess("scheduler exceeded max_slices")
