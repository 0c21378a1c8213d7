"""SGX-Step model: precise single-stepping of enclave execution.

The real SGX-Step arms the local APIC timer so that an interrupt lands
after exactly one enclave instruction retires (§6.3).  Our kernel can
stop the core after one *retire unit* directly, which models a
perfectly calibrated timer — with the same fundamental caveats the
paper reports:

* a macro-fused ALU+Jcc pair retires as a single unit, so one "step"
  silently covers two instructions (§7.3);
* instructions beyond the interrupted one may have speculatively
  executed and touched the BTB before the pipeline drained (§6.3);
  how many is the core generation's ``spec_lookahead``, the only
  switch for it.

Every step performs the AEX / ERESUME dance: enclave mode (and with it
LBR suppression) is entered before the step and exited after, which
leaves the LBR usable by the attacker in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cpu.core import StopReason
from ..errors import SgxError
from ..system.kernel import Kernel
from ..system.process import Process
from .enclave import Enclave


@dataclass
class StepResult:
    """Outcome of one single-step."""

    #: True while the enclave is still running, False once it exited
    running: bool
    #: retire units consumed (1, or 0 if the enclave finished)
    retired: int
    #: RIP after the step — ONLY for ground-truth validation in tests;
    #: attack code must never read this (a real attacker cannot).
    debug_rip: Optional[int] = None


class SgxStepper:
    """Drives an enclave one retire unit at a time."""

    def __init__(self, kernel: Kernel, host: Process, enclave: Enclave,
                 *, expose_debug_rip: bool = False):
        if enclave.host is not host:
            raise SgxError("enclave is not loaded into this process")
        self.kernel = kernel
        self.host = host
        self.enclave = enclave
        self.expose_debug_rip = expose_debug_rip
        self._finished = False

    # ------------------------------------------------------------------
    def enter(self, entry: Optional[int] = None,
              args: Optional[list] = None) -> None:
        """EENTER: point the host thread at the enclave entry."""
        state = self.host.state
        arg_regs = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
        for register, value in zip(arg_regs, args or []):
            state.regs[register] = value
        state.rip = entry if entry is not None else self.enclave.entry
        self.host.memory.context = self.enclave
        self.enclave.entered = True
        self._finished = False

    def step(self) -> StepResult:
        """Run exactly one retire unit inside the enclave.

        With a fault injector attached to the kernel, the APIC timer
        model misbehaves the way SGX-Step's real one does: a
        *zero-step* interrupt arrives before anything retires (the
        step is a no-op the attacker cannot distinguish from a slow
        instruction), and a *multi-step* interrupt lands one unit
        late, so two retire units pass under one "step".

        Returns ``running=False`` once the enclave halts/exits.
        """
        if self._finished:
            return StepResult(running=False, retired=0)
        budget = 1
        injector = self.kernel.fault_injector
        if injector is not None:
            from ..faults.injector import StepFault
            fault = injector.step_fault()
            if fault is StepFault.ZERO_STEP:
                debug_rip = (self.host.state.rip
                             if self.expose_debug_rip else None)
                return StepResult(running=True, retired=0,
                                  debug_rip=debug_rip)
            if fault is StepFault.MULTI_STEP:
                budget = 2
        core = self.kernel.core
        core.set_enclave_mode(True)
        try:
            result = self.kernel.run_slice(self.host, max_retired=budget)
        finally:
            core.set_enclave_mode(False)   # AEX
        if result.reason in (StopReason.HALT, StopReason.SYSCALL):
            self._finished = True
        if not self.host.alive:
            self._finished = True
        debug_rip = (self.host.state.rip
                     if self.expose_debug_rip else None)
        return StepResult(running=not self._finished,
                          retired=result.retired, debug_rip=debug_rip)

    def run_to_exit(self, max_steps: int = 10_000_000) -> int:
        """Step until the enclave finishes; returns the step count."""
        steps = 0
        while steps < max_steps:
            if not self.step().running:
                return steps
            steps += 1
        raise SgxError(f"enclave did not exit within {max_steps} steps")

    @property
    def finished(self) -> bool:
        return self._finished
