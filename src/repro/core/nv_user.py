"""NV-U: the user-level NightVision variant (§4.2, Fig. 6).

NV-U wraps NV-Core around each victim execution *fragment* — the slice
of victim instructions that runs between two scheduler preemptions.
Following the paper's own evaluation methodology (§7.2), preemption is
driven by the victim's ``sched_yield`` calls: the victim yields once
per loop iteration, the attacker primes before the fragment and probes
after it.

The real preemptive-scheduling machinery (hundreds of attacker child
processes DoS-ing the run queue) is acknowledged orthogonal work in the
paper and simulated there exactly as it is here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cpu.core import StopReason
from ..system.process import Process
from .nv_core import NvCore, ProbeSession


@dataclass
class FragmentObservation:
    """NV-Core result for one victim fragment."""

    index: int
    matched: List[bool]
    #: retire units the victim spent in this fragment
    victim_retired: int
    #: per-range confidence when the session ran under a
    #: :class:`~repro.core.measurement.MeasurementPolicy`; ``None``
    #: for the naive path
    confidence: Optional[List[float]] = None
    #: False when the policy's retry budget left ranges unresolved
    stable: bool = True


@dataclass
class NvUserResult:
    """The full per-fragment match matrix (Fig. 6's ``match[][]``)."""

    observations: List[FragmentObservation] = field(default_factory=list)
    victim_exited: bool = False

    def column(self, index: int) -> List[bool]:
        """Per-fragment match history of PW ``index``."""
        return [obs.matched[index] for obs in self.observations]


class NvUser:
    """Runs NV-Core across every fragment of a victim's execution."""

    def __init__(self, nv_core: NvCore):
        self.nv = nv_core
        self.kernel = nv_core.kernel

    def run(self, victim: Process, session: ProbeSession, *,
            max_fragments: int = 100_000) -> NvUserResult:
        """Interleave with ``victim`` until it exits.

        Per fragment: prime -> victim runs to its next ``sched_yield``
        (or exit) -> probe.  Returns the match matrix.
        """
        result = NvUserResult()
        for index in range(max_fragments):
            if not victim.alive:
                break
            session.prime()
            run = self.kernel.run_slice(victim)
            if session.policy is not None:
                measured = session.probe_measured()
                observation = FragmentObservation(
                    index=index, matched=measured.matched,
                    victim_retired=run.retired,
                    confidence=measured.confidence,
                    stable=measured.stable)
            else:
                observation = FragmentObservation(
                    index=index, matched=session.probe(),
                    victim_retired=run.retired)
            result.observations.append(observation)
            if run.reason is StopReason.HALT or not victim.alive:
                result.victim_exited = True
                break
        else:
            return result
        result.victim_exited = not victim.alive or result.victim_exited
        return result
