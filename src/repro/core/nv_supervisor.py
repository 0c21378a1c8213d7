"""NV-S: the supervisor-level NightVision variant (paper §4.3, §6.3).

NV-S owns every privileged capability the paper's threat model grants:
SGX-Step single-stepping, controlled-channel page tracking (virtual
page numbers), accessed-bit monitoring (call/ret confirmation) — and
the shared-core BTB, through NV-Core.

Full-trace extraction follows Fig. 9 / Fig. 10:

1. a *discovery* run single-steps the whole enclave once, collecting
   the step count, per-step candidate code pages and per-step
   data-access bits;
2. the PW traversal then re-executes the enclave ``128/N + log`` times,
   priming/probing step-specific PW sets around every single step,
   until each dynamic instruction's base address is known to the byte.

Between steps the attacker rewrites its own probe snippets (Fig. 9
line 8) — here, cached :class:`ProbeSession` objects re-mapped on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AttackError, BudgetExhausted
from ..memory.address import PAGE_SIZE
from ..sgx.controlled_channel import CodePageTracker, DataAccessMonitor
from ..sgx.enclave import Enclave
from ..sgx.sgxstep import SgxStepper
from ..system.kernel import Kernel
from ..system.process import Process
from ..victims.library import VictimProgram
from .measurement import MeasurementPolicy
from .nv_core import NvCore, ProbeSession
from .pw import PwRange
from .traversal import PwTraversal, disambiguate_values, suspicious_steps
from .trace import ExtractedTrace, StepRecord


@dataclass
class _EnclaveRun:
    host: Process
    enclave: Enclave
    stepper: SgxStepper
    tracker: CodePageTracker
    monitor: DataAccessMonitor

    def close(self, kernel: Kernel) -> None:
        self.tracker.uninstall()
        if self.host in kernel.processes:
            kernel.processes.remove(self.host)
        self.enclave.unload()


class NvSupervisor:
    """Drives full dynamic-PC-trace extraction from an enclave."""

    #: runaway guard: an enclave that single-steps this far without
    #: exiting aborts discovery with :class:`AttackError`
    MAX_STEPS = 200_000

    def __init__(self, kernel: Kernel, *,
                 pws_per_call: int = 8,
                 strategy: str = "adaptive",
                 policy: Optional[MeasurementPolicy] = None,
                 probe_budget: Optional[int] = None):
        self.kernel = kernel
        self.nv = NvCore(kernel, calibration_rounds=1, policy=policy)
        self.pws_per_call = pws_per_call
        self.strategy = strategy
        #: total prime+probe invocations allowed; when it runs out,
        #: :meth:`extract_trace` returns a *partial* trace instead of
        #: finishing the traversal
        self.probe_budget = probe_budget
        self._sessions: Dict[Tuple[Tuple[int, int], ...],
                             ProbeSession] = {}
        self.probes = 0

    # ------------------------------------------------------------------
    # enclave lifecycle
    # ------------------------------------------------------------------
    def _new_run(self, victim: VictimProgram,
                 inputs: dict) -> _EnclaveRun:
        host, enclave = victim.new_enclave(inputs)
        self.kernel.add_process(host)
        stepper = SgxStepper(self.kernel, host, enclave)
        tracker = CodePageTracker(self.kernel, host, enclave)
        monitor = DataAccessMonitor(host, enclave)
        tracker.install()
        stepper.enter(entry=victim.compiled.start)
        return _EnclaveRun(host, enclave, stepper, tracker, monitor)

    # ------------------------------------------------------------------
    # probe session cache
    # ------------------------------------------------------------------
    def _session_for(self, queries: Sequence[PwRange]
                     ) -> Optional[ProbeSession]:
        if not queries:
            return None
        key = tuple((pw.start, pw.end) for pw in queries)
        session = self._sessions.get(key)
        if session is None:
            session = self.nv.monitor(list(queries))
            self._sessions[key] = session
        else:
            # Another cached session may have overwritten these bytes
            # in the attacker's address space: re-map before use.  An
            # unchanged snippet costs a byte compare and keeps its
            # decodes; only rewritten bytes invalidate.
            session.code.program.load_into(self.nv.attacker.memory)
        return session

    # ------------------------------------------------------------------
    # phase 0: discovery (step count, pages, data-access bits)
    # ------------------------------------------------------------------
    def discover(self, victim: VictimProgram,
                 inputs: dict) -> List[StepRecord]:
        run = self._new_run(victim, inputs)
        records: List[StepRecord] = []
        resilient = self.nv.policy is not None
        try:
            index = 0
            while index < self.MAX_STEPS:
                page_before = run.tracker.current_page
                faults_before = len(run.tracker.page_trace)
                run.monitor.arm()
                step = run.stepper.step()
                if step.retired:
                    pages = []
                    if page_before is not None:
                        pages.append(page_before * PAGE_SIZE)
                    for vpn in run.tracker.page_trace[faults_before:]:
                        base = vpn * PAGE_SIZE
                        if base not in pages:
                            pages.append(base)
                    # A multi-step interrupt (fault injection) retires
                    # several units under one "step".  The resilient
                    # stepper trusts the observable retire count and
                    # books one record per unit — both units share the
                    # slice's page candidates — keeping every later
                    # step index aligned.  The naive path books one
                    # and silently desynchronizes.
                    units = step.retired if resilient else 1
                    for _ in range(units):
                        records.append(StepRecord(
                            index=index,
                            page_bases=tuple(sorted(pages)),
                            pc=None,
                            data_access=run.monitor.touched_any(),
                        ))
                        index += 1
                if not step.running:
                    return records
            raise AttackError(
                f"enclave exceeded {self.MAX_STEPS} steps")
        finally:
            run.close(self.kernel)

    # ------------------------------------------------------------------
    # one full traversal pass (one enclave re-execution)
    # ------------------------------------------------------------------
    def _run_pass(self, victim: VictimProgram, inputs: dict,
                  traversal: PwTraversal) -> None:
        run = self._new_run(victim, inputs)
        resilient = self.nv.policy is not None
        try:
            index = 0
            while index < traversal.num_steps:
                queries = traversal.queries_for(index)
                session = self._session_for(queries)
                if session is not None:
                    session.prime()
                step = run.stepper.step()
                if step.retired and session is not None:
                    if (self.probe_budget is not None
                            and self.probes >= self.probe_budget):
                        raise BudgetExhausted(
                            "probe budget exhausted mid-traversal",
                            budget=self.probe_budget,
                            spent=self.probes)
                    if resilient and step.retired > 1:
                        # The interrupt landed late: this reading
                        # conflates two units' fetches.  Probe anyway
                        # (consume the stale signal) but record
                        # nothing — a later pass re-measures this
                        # step cleanly.
                        session.probe()
                    elif session.policy is not None:
                        # Feed the traversal only the *definitive*
                        # ranges: a degraded reading (dropped record)
                        # must not mark its PW as tested-clean, or the
                        # sweep would confirm a wrong lowest block.
                        # Dropped ranges get re-queried next pass.
                        measured = session.probe_measured()
                        definitive = [
                            (query, hit)
                            for query, hit, conf in zip(
                                queries, measured.matched,
                                measured.confidence)
                            if conf >= 0.5]
                        if definitive:
                            traversal.record(
                                index,
                                [query for query, _ in definitive],
                                [hit for _, hit in definitive])
                    else:
                        matched = session.probe()
                        traversal.record(index, list(queries), matched)
                    self.probes += 1
                if step.retired:
                    # Trusting the observable retire count keeps the
                    # resilient stepper aligned across multi-steps;
                    # the naive path drifts one step per fault.
                    index += step.retired if resilient else 1
                if not step.running:
                    break
        finally:
            run.close(self.kernel)

    # ------------------------------------------------------------------
    # the full Fig. 9 attack
    # ------------------------------------------------------------------
    def extract_trace(self, victim: VictimProgram,
                      inputs: dict) -> ExtractedTrace:
        """Recover the byte-granular base PC of every retire unit.

        Round 1 runs the configured sweep strategy; steps whose
        resolution looks like a §6.3 speculation artifact (or failed)
        get a second, exhaustive sweep round restricted to them, and
        the combined candidate sets go through the paper's cross-step
        disambiguation.

        With a ``probe_budget`` configured, running out of probes does
        *not* raise: extraction stops where it stands and returns a
        trace with ``partial=True``, every step tagged with the
        confidence its search had reached (graceful degradation).
        """
        records = self.discover(victim, inputs)
        page_bases = [list(record.page_bases) or [0]
                      for record in records]
        traversal = PwTraversal(
            num_steps=len(records),
            page_bases=page_bases,
            pws_per_call=self.pws_per_call,
            strategy=self.strategy,
        )
        runs = 1                       # the discovery run
        partial = False
        try:
            while not traversal.finished:
                self._run_pass(victim, inputs, traversal)
                traversal.advance()
                runs += 1
        except BudgetExhausted:
            partial = True
            runs += 1
        values = traversal.value_sets()
        chosen = disambiguate_values(values)
        confidence = [traversal.confidence_for(i)
                      for i in range(len(records))]
        retry = suspicious_steps(chosen, values)
        if retry and not partial:
            second = PwTraversal(
                num_steps=len(records),
                page_bases=page_bases,
                pws_per_call=self.pws_per_call,
                strategy="paper",
                restrict_to=retry,
                tested_preseed=[search.tested
                                for search in traversal.steps],
            )
            try:
                while not second.finished:
                    self._run_pass(victim, inputs, second)
                    second.advance()
                    runs += 1
            except BudgetExhausted:
                partial = True
                runs += 1
            for index, extra in enumerate(second.value_sets()):
                if extra:
                    values[index] = sorted(set(values[index]) |
                                           set(extra))
                    confidence[index] = max(
                        confidence[index], second.confidence_for(index))
            chosen = disambiguate_values(values)
        for index, (record, base) in enumerate(zip(records, chosen)):
            record.pc = base
            record.confidence = (confidence[index] if base is not None
                                 else 0.0)
            if base is None and partial:
                # Budget ran out before byte-level resolution: surface
                # the best block-granular guess rather than nothing.
                search = traversal.steps[index]
                if search.lanes:
                    record.pc = search.lanes[0].candidate.start
                    record.confidence = min(0.4,
                                            confidence[index] or 0.4)
        return ExtractedTrace(steps=records, runs=runs,
                              probes=self.probes, partial=partial)
