"""Deterministic fault injection for the simulated environment.

The paper's attacks work *because* the attacker tolerates a noisy
substrate: SGX-Step interrupts occasionally zero-step or multi-step,
LBR readings jitter, and co-resident processes evict BTB entries
between prime and probe.  This package perturbs the simulation through
the same surfaces a real machine would —

* ``cpu.lbr`` — dropped LBR records and extra timestamp jitter;
* ``cpu.btb`` — spurious evictions of valid entries (co-resident
  noise), always through the normal entry-invalidation path;
* ``sgx.sgxstep`` — zero-step (interrupt before anything retires) and
  multi-step (two retire units per interrupt) faults;
* ``system.kernel`` — preemption-point jitter (a slice is cut short by
  an involuntary context switch).

:mod:`repro.faults.disk` extends the same seeded-schedule discipline
to the *storage* substrate (torn writes, bit rot, ENOSPC) for the
durability drills in DESIGN.md §13.

Everything is driven by a seeded :class:`FaultInjector` with one RNG
stream *per surface*, so the injected schedule for any one surface is
a pure function of ``(plan, seed)`` — reproducible no matter how the
other surfaces happen to be consulted.
"""

from .disk import (DISK_FAULT_MODES, DiskFaultInjector, disk_chaos)
from .injector import FaultEvent, FaultInjector, StepFault
from .plans import (ACCEPTANCE_PLAN, CLEAN_PLAN, HOSTILE_PLAN,
                    NOISY_NEIGHBOUR_PLAN, FaultPlan, plan_by_name)

__all__ = [
    "ACCEPTANCE_PLAN",
    "CLEAN_PLAN",
    "DISK_FAULT_MODES",
    "DiskFaultInjector",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HOSTILE_PLAN",
    "NOISY_NEIGHBOUR_PLAN",
    "StepFault",
    "disk_chaos",
    "plan_by_name",
]
