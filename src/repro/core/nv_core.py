"""NV-Core: the BTB Prime+Probe primitive (paper §4.1, Fig. 6).

``NV-Core(PWs, p)`` answers: *did fragment p of the victim's execution
fetch instruction bytes overlapping any of the monitored PW ranges?*

Mechanics (all through architecturally-legal attacker behaviour):

* **Prime** — execute the chained PW snippet; every terminating jump
  allocates/refreshes a BTB entry indexed by the monitored range's
  last byte.
* *(victim fragment runs — driven by NV-U or NV-S, not by NV-Core)*
* **Probe** — execute the snippet again and read the attacker's own
  LBR.  Two observable signatures, matching Fig. 5:

  - overlap cases (3)/(4): the victim's non-control-transfer fetches
    false-hit the attacker's entry and *deallocate* it (Takeaway 1), so
    the probe jump mispredicts — penalty visible in the elapsed cycles
    of the **next** LBR record;
  - overlap cases (1)/(2): the victim's taken branch allocated its own
    entry at a smaller offset inside the range, so the probe fetch
    false-hits *it* — penalty visible in the probe jump's **own**
    record.

Detection is a threshold test against calibrated no-victim baselines,
exactly the differential-timing discipline the paper uses (§2.3); with
``timing_noise`` configured on the core it is a genuinely noisy
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..cpu.core import StopReason
from ..errors import AttackError, CalibrationError
from ..system.kernel import Kernel
from ..system.process import Process
from .measurement import (BACKOFF_BASE, CALIBRATION_RETRY_FACTOR,
                          CALIBRATION_ROUNDS, MAX_RETRIES,
                          MIN_CALIBRATION_SAMPLES, OUTLIER_SIGMA,
                          THRESHOLD_SIGMA, VOTES, MeasuredProbe,
                          MeasurementPolicy, RangeStatus, apply_constraint,
                          summarize)
from .pw import ProbeCode, PwBuilder, PwRange


@dataclass
class ProbeReading:
    """Raw per-range measurements from one probe run (debugging)."""

    own_elapsed: List[Optional[int]]
    next_elapsed: List[Optional[int]]
    mispredicted: List[bool]
    prev_mispredicted: List[bool]
    matched: List[bool]
    #: True where the probe jump produced an LBR record at all; the
    #: naive ``matched`` treats an absent record as a hit, the policy
    #: path treats it as :attr:`RangeStatus.UNKNOWN`
    present: List[bool] = None  # type: ignore[assignment]


def _stddev(samples: Sequence[float]) -> float:
    if len(samples) < 2:
        return 0.0
    mean = sum(samples) / len(samples)
    return (sum((s - mean) ** 2 for s in samples)
            / (len(samples) - 1)) ** 0.5


def _reject_outliers(samples: Sequence[int],
                     sigma: float) -> List[int]:
    """Drop samples further than ``sigma`` stddevs from the median."""
    if len(samples) < 3:
        return list(samples)
    ordered = sorted(samples)
    median = ordered[len(ordered) // 2]
    spread = _stddev(samples)
    if spread == 0.0:
        return list(samples)
    kept = [s for s in samples if abs(s - median) <= sigma * spread]
    return kept or list(samples)


class ProbeSession:
    """One monitored PW set: snippet mapped, baselines calibrated.

    With a :class:`~repro.core.measurement.MeasurementPolicy` on the
    owning :class:`NvCore` the session calibrates robustly — dropped
    records are re-sampled instead of aborting, jitter outliers are
    rejected, thresholds widen with observed noise — and exposes :meth:`probe_measured`, the
    confidence-tagged resilient probe path.
    """

    #: resumptions tolerated per snippet run before giving up
    MAX_PREEMPTIONS = 32

    def __init__(self, nv_core: "NvCore", probe_code: ProbeCode):
        self.nv = nv_core
        self.code = probe_code
        self.policy = nv_core.policy
        self.baseline_own: List[float] = []
        self.baseline_next: List[float] = []
        #: per-range detection thresholds (uniform without a policy,
        #: widened per-range by calibration noise with one)
        self.delta_own: List[float] = []
        self.delta_next: List[float] = []
        #: snippet executions spent so far (calibration included)
        self.attempts = 0
        probe_code.program.load_into(self.nv.attacker.memory)
        if self.policy is not None:
            self._calibrate_robust()
        else:
            self._calibrate()

    # ------------------------------------------------------------------
    def _run_snippet(self) -> None:
        attacker = self.nv.attacker
        attacker.state.rip = self.code.entry
        self.attempts += 1
        telemetry.count("core.probe.attempts")
        for _ in range(self.MAX_PREEMPTIONS):
            result = self.nv.kernel.run_slice(attacker)
            if result.reason is StopReason.HALT:
                return
            if result.reason is StopReason.RETIRE_LIMIT:
                # Involuntary preemption sliced the snippet; resume
                # where the timer interrupt landed.
                continue
            raise AttackError(
                f"probe snippet ended with {result.reason}, not HALT")
        raise AttackError(
            f"probe snippet preempted more than "
            f"{self.MAX_PREEMPTIONS} times")

    def _read_lbr(self) -> Tuple[List[Optional[int]],
                                 List[Optional[int]],
                                 List[bool], List[bool], List[bool]]:
        records = self.nv.kernel.core.lbr.records()
        index_of: Dict[int, int] = {}
        for position, record in enumerate(records):
            index_of.setdefault(record.from_pc, position)
        own: List[Optional[int]] = []
        nxt: List[Optional[int]] = []
        mispred: List[bool] = []
        prev_mispred: List[bool] = []
        present: List[bool] = []
        for jmp_pc in self.code.jmp_pcs:
            position = index_of.get(jmp_pc)
            if position is None:
                # No record for this probe jump (ring-buffer churn, or
                # a dropped record under fault injection).  The naive
                # detector keeps its historical reading of this as a
                # mispredict; the policy path uses ``present`` to
                # classify it honestly as UNKNOWN.
                own.append(None)
                nxt.append(None)
                mispred.append(True)
                prev_mispred.append(False)
                present.append(False)
                continue
            own.append(records[position].elapsed_cycles)
            nxt.append(records[position + 1].elapsed_cycles
                       if position + 1 < len(records) else None)
            mispred.append(records[position].mispredicted)
            prev_mispred.append(records[position - 1].mispredicted
                                if position > 0 else False)
            present.append(True)
        return own, nxt, mispred, prev_mispred, present

    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Allocate/refresh the BTB entries for every monitored range."""
        self._run_snippet()

    def _probe_raw(self):
        self.nv.kernel.core.lbr.clear()
        self._run_snippet()
        return self._read_lbr()

    def probe(self) -> List[bool]:
        """Measure and classify each monitored range (True = the
        victim's execution overlapped it)."""
        return self.probe_detailed().matched

    def probe_detailed(self) -> ProbeReading:
        """One probe run, classified.

        Two detectors (``NvCore.detector``):

        * ``"hybrid"`` (default) — a range matched if its probe jump
          itself mispredicted (entry deallocated: Fig. 5 cases 3/4,
          surfaced by the LBR MISPRED bit) or its own elapsed cycles
          are elevated while the *preceding* record predicted fine (a
          false hit on a victim-allocated entry inside the range:
          cases 1/2; the veto keeps an upstream glue mispredict from
          being misattributed).
        * ``"cycles"`` — pure elapsed-cycle thresholds on the jump's
          own record and its successor, the paper's §2.3 methodology;
          slightly blurrier at chained-PW boundaries.
        """
        telemetry.count("core.probe.readings")
        own, nxt, mispred, prev_mispred, present = self._probe_raw()
        matched: List[bool] = []
        for index in range(len(self.code.ranges)):
            own_elevated = (
                own[index] is not None
                and own[index] - self.baseline_own[index]
                > self.delta_own[index])
            next_elevated = (
                nxt[index] is not None
                and nxt[index] - self.baseline_next[index]
                > self.delta_next[index])
            if self.nv.detector == "cycles":
                hit = own_elevated or next_elevated \
                    or own[index] is None
            else:
                hit = mispred[index] or (
                    own_elevated and not prev_mispred[index])
            matched.append(hit)
        return ProbeReading(own, nxt, mispred, prev_mispred, matched,
                            present)

    # ------------------------------------------------------------------
    def _calibrate(self) -> None:
        """Learn no-victim baselines: warm up, then average a few
        clean prime->probe rounds."""
        rounds = self.nv.calibration_rounds
        self.prime()                      # cold run: allocations
        sums_own = [0.0] * len(self.code.ranges)
        sums_next = [0.0] * len(self.code.ranges)
        for _ in range(rounds):
            own, nxt, _, _, _ = self._probe_raw()
            for index in range(len(self.code.ranges)):
                if own[index] is None or nxt[index] is None:
                    raise CalibrationError(
                        f"range {self.code.ranges[index]} produced no "
                        f"LBR record during calibration")
                sums_own[index] += own[index]
                sums_next[index] += nxt[index]
        self.baseline_own = [total / rounds for total in sums_own]
        self.baseline_next = [total / rounds for total in sums_next]
        delta = self.nv.threshold_delta
        self.delta_own = [delta] * len(self.code.ranges)
        self.delta_next = [delta] * len(self.code.ranges)

    def _calibrate_robust(self) -> None:
        """Policy-driven calibration that survives fault injection.

        Dropped records are simply re-sampled (up to
        ``CALIBRATION_ROUNDS * CALIBRATION_RETRY_FACTOR`` total rounds)
        instead of aborting the session, jitter spikes are rejected as
        outliers around the per-range median, and the detection
        threshold is widened to ``THRESHOLD_SIGMA`` standard deviations
        whenever the substrate is noisier than the static default
        assumes.
        """
        count = len(self.code.ranges)
        self.prime()                      # cold run: allocations
        samples_own: List[List[int]] = [[] for _ in range(count)]
        samples_next: List[List[int]] = [[] for _ in range(count)]
        max_rounds = CALIBRATION_ROUNDS * CALIBRATION_RETRY_FACTOR
        for round_index in range(max_rounds):
            own, nxt, _, _, _ = self._probe_raw()
            for index in range(count):
                if own[index] is not None:
                    samples_own[index].append(own[index])
                if nxt[index] is not None:
                    samples_next[index].append(nxt[index])
            if round_index + 1 >= CALIBRATION_ROUNDS and all(
                    len(samples_own[i]) >= MIN_CALIBRATION_SAMPLES
                    and len(samples_next[i]) >= MIN_CALIBRATION_SAMPLES
                    for i in range(count)):
                break
        static_delta = self.nv.threshold_delta
        self.baseline_own, self.delta_own = [], []
        self.baseline_next, self.delta_next = [], []
        for index in range(count):
            for samples, baselines, deltas in (
                    (samples_own[index], self.baseline_own,
                     self.delta_own),
                    (samples_next[index], self.baseline_next,
                     self.delta_next)):
                if len(samples) < MIN_CALIBRATION_SAMPLES:
                    raise CalibrationError(
                        f"range {self.code.ranges[index]} produced "
                        f"{len(samples)} usable LBR records in "
                        f"{max_rounds} calibration rounds "
                        f"(needed {MIN_CALIBRATION_SAMPLES})")
                kept = _reject_outliers(samples, OUTLIER_SIGMA)
                mean = sum(kept) / len(kept)
                baselines.append(mean)
                deltas.append(max(static_delta,
                                  THRESHOLD_SIGMA * _stddev(kept)))

    # ------------------------------------------------------------------
    # resilient measurement (policy path)
    # ------------------------------------------------------------------
    def _classify(self, reading: ProbeReading) -> List[RangeStatus]:
        """Map one reading onto honest per-range statuses (the hybrid
        detector's logic, with absent records kept as UNKNOWN)."""
        statuses: List[RangeStatus] = []
        for index in range(len(self.code.ranges)):
            if not reading.present[index]:
                statuses.append(RangeStatus.UNKNOWN)
                continue
            if reading.mispredicted[index]:
                statuses.append(RangeStatus.HIT_STRONG)
                continue
            own_elevated = (
                reading.own_elapsed[index] - self.baseline_own[index]
                > self.delta_own[index])
            if own_elevated and not reading.prev_mispredicted[index]:
                statuses.append(RangeStatus.HIT_WEAK)
            else:
                statuses.append(RangeStatus.MISS)
        return statuses

    def probe_measured(self) -> MeasuredProbe:
        """Resilient probe: classify, vote, constrain, retry, degrade.

        The victim's signal is one-shot — the first probe run consumes
        it — so resilience is layered accordingly:

        1. classify the first reading honestly (absent record =
           UNKNOWN, not the naive path's implicit hit);
        2. vote down *weak* hits that recur across ``VOTES - 1``
           follow-up readings (a consumed real signal cannot recur;
           ambient jitter does);
        3. resolve UNKNOWNs from the structural ``constraint`` (e.g.
           exactly one branch arm ran);
        4. spend the bounded ``MAX_RETRIES`` budget (with exponential
           step-back re-primes) confirming the measurement path is
           healthy again, degrading leftover UNKNOWNs to
           low-confidence misses;
        5. if records are *still* missing, the ranges stay UNKNOWN with
           rock-bottom confidence and the probe is flagged unstable.
        """
        policy = self.policy
        if policy is None:
            raise AttackError(
                "probe_measured requires a MeasurementPolicy")
        start_attempts = self.attempts
        reading = self.probe_detailed()
        statuses = self._classify(reading)

        # A dropped record takes its mispredict *bit* with it, but the
        # squash penalty still inflates the elapsed cycles of whatever
        # record follows — so any weak (cycles-only) hit observed
        # alongside a dropped record is likely that orphaned penalty,
        # not a victim false hit.  Demote it and let the constraint
        # work from the surviving evidence.
        if any(s is RangeStatus.UNKNOWN for s in statuses):
            statuses = [RangeStatus.MISS_DEGRADED
                        if s is RangeStatus.HIT_WEAK else s
                        for s in statuses]

        # -- 2: majority-vote ambient jitter out of weak hits ----------
        weak = [i for i, s in enumerate(statuses)
                if s is RangeStatus.HIT_WEAK]
        if weak:
            recurrences = [0] * len(statuses)
            extra = VOTES - 1
            for _ in range(extra):
                follow = self.probe_detailed()
                follow_statuses = self._classify(follow)
                for i in weak:
                    if follow_statuses[i] is RangeStatus.HIT_WEAK:
                        recurrences[i] += 1
            for i in weak:
                if 2 * recurrences[i] >= extra:
                    # Elevation persists with the signal long consumed:
                    # ambient jitter, not a victim false hit.
                    statuses[i] = RangeStatus.MISS_DEGRADED

        # -- 3: structural prior ---------------------------------------
        statuses = apply_constraint(statuses, policy.constraint)

        # -- 4: bounded retry with exponential step-back ---------------
        unresolved = [i for i, s in enumerate(statuses)
                      if s is RangeStatus.UNKNOWN]
        retries = 0
        while unresolved and retries < MAX_RETRIES:
            for _ in range(BACKOFF_BASE << retries):
                self.prime()              # settle the substrate
            retries += 1
            follow = self.probe_detailed()
            for i in unresolved:
                if follow.present[i]:
                    # The measurement path works again; the original
                    # sample is gone for good (signal consumed), so
                    # record an honest low-confidence miss.
                    statuses[i] = RangeStatus.MISS_DEGRADED
            statuses = apply_constraint(statuses, policy.constraint)
            unresolved = [i for i, s in enumerate(statuses)
                          if s is RangeStatus.UNKNOWN]

        attempts = self.attempts - start_attempts
        tel = telemetry.current()
        if tel is not None:
            tel.count("core.probe.measured")
            if retries:
                tel.count("core.probe.retries", retries)
            degraded = sum(1 for s in statuses
                           if s is RangeStatus.MISS_DEGRADED)
            inferred = sum(1 for s in statuses
                           if s is RangeStatus.HIT_INFERRED)
            if degraded:
                tel.count("core.probe.degraded", degraded)
            if inferred:
                tel.count("core.probe.inferred", inferred)
            if unresolved:
                tel.count("core.probe.unstable")
        return summarize(statuses, attempts, stable=not unresolved)


class NvCore:
    """Factory/owner of probe sessions for one attacker process."""

    def __init__(self, kernel: Kernel, *,
                 calibration_rounds: int = 3,
                 detector: str = "hybrid",
                 policy: Optional[MeasurementPolicy] = None):
        if detector not in ("hybrid", "cycles"):
            raise AttackError(f"unknown detector {detector!r}")
        self.kernel = kernel
        config = kernel.core.config
        self.attacker = Process(name="nv-attacker")
        kernel.add_process(self.attacker)
        self.builder = PwBuilder(config.tag_keep_bits)
        self.calibration_rounds = calibration_rounds
        self.detector = detector
        #: measurement policy of every session; ``None`` keeps the
        #: historical fail-fast behaviour
        self.policy = policy
        self.threshold_delta = config.squash_penalty * 0.5

    def monitor(self, ranges: Sequence[PwRange]) -> ProbeSession:
        """Build, map and calibrate a probe for ``ranges``."""
        return ProbeSession(self, self.builder.build(ranges))
