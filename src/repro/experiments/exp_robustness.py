"""Robustness ablation: attack accuracy vs injected fault rate.

Neither the paper's 99.3 % GCD-leak accuracy (§7.2) nor its <100 %
fingerprint self-similarity (§7.3) come from a quiet machine — LBR
records go missing, co-residents thrash the BTB, SGX-Step interrupts
mis-land.  This experiment quantifies what the resilient measurement
stack (:mod:`repro.core.measurement`) buys: the same campaigns run at
increasing multiples of a base :class:`~repro.faults.FaultPlan`, once
with the naive fail-fast probe path and once under a
:class:`MeasurementPolicy`, producing the degradation curves rendered
by :func:`repro.analysis.degradation_block`.

Two sweeps:

* :func:`run_leak_robustness` — the §7.2 NV-U GCD branch leak;
* :func:`run_fingerprint_robustness` — NV-S extraction
  self-similarity (§7.3).  Without a policy, calibration typically
  dies outright under faults (a dropped record aborts the session) —
  those points score 0.0 with ``failed=True``, which *is* the
  headline: resilience is the difference between a noisy result and
  no result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis import degradation_block, pct
from ..cpu.config import CpuGeneration, generation
from ..cpu.core import Core
from ..core.cfl import ControlFlowLeakAttack
from ..core.measurement import MeasurementPolicy
from ..errors import ReproError
from ..faults import ACCEPTANCE_PLAN, FaultInjector, FaultPlan
from ..lang import CompileOptions
from ..system.kernel import Kernel
from ..victims.library import (ENCLAVE_DATA_BASE, build_gcd_victim)
from ..victims.rsa import generate_keys
from .common import RunRequest, register_experiment
from .exp_fingerprint import extract_victim_function


@dataclass
class RobustnessPoint:
    """One (fault scale, configuration) cell of the sweep."""

    factor: float
    resilient: bool
    #: leak accuracy / fingerprint self-similarity at this point
    accuracy: float
    #: mean confidence the attacker itself assigned (1.0 when the
    #: naive path has no notion of confidence)
    confidence: float = 1.0
    #: the campaign died with an attack-layer error (naive calibration
    #: under faults, typically) — accuracy is 0.0 by construction
    failed: bool = False
    #: probe-snippet executions spent (resilience overhead metric)
    attempts: int = 0


@dataclass
class RobustnessResult:
    """A full naive-vs-resilient degradation sweep."""

    label: str
    plan_name: str
    factors: List[float]
    naive: List[RobustnessPoint] = field(default_factory=list)
    resilient: List[RobustnessPoint] = field(default_factory=list)

    def curves(self):
        """``(name, ys)`` pairs for :func:`degradation_block`."""
        return [
            ("naive", [p.accuracy for p in self.naive]),
            ("resilient", [p.accuracy for p in self.resilient]),
        ]

    @property
    def resilient_floor(self) -> float:
        """Worst resilient accuracy across the sweep."""
        return min((p.accuracy for p in self.resilient), default=0.0)

    @property
    def naive_floor(self) -> float:
        return min((p.accuracy for p in self.naive), default=0.0)


DEFAULT_FACTORS = (0.0, 1.0, 2.0, 3.0)


def _leak_campaign(plan: FaultPlan,
                   policy: Optional[MeasurementPolicy],
                   config: CpuGeneration, *,
                   runs: int, seed: int) -> RobustnessPoint:
    victim = build_gcd_victim(
        "3.0", options=CompileOptions(opt_level=2, align_jumps=16),
        nlimbs=2, with_yield=True)
    kernel = Kernel(Core(config))
    attack = ControlFlowLeakAttack(kernel, victim, policy=policy)
    # Attach after the attack calibrates: the leak sweep isolates
    # *measurement* resilience (the fingerprint sweep below exercises
    # calibration-under-faults).
    injector = None
    if plan.active:
        injector = FaultInjector(plan, seed=seed, record_events=False)
        injector.attach(kernel)
    total = correct = 0
    confidences: List[float] = []
    for key in generate_keys(runs, seed=seed):
        a, b = key.gcd_inputs()
        inputs = {"ta": a, "tb": b}
        truth = attack.ground_truth(inputs)
        outcome = attack.attack(inputs)
        total += len(truth)
        correct += round(outcome.accuracy_against(truth) * len(truth))
        confidences.append(outcome.mean_confidence())
    return RobustnessPoint(
        factor=0.0, resilient=policy is not None,
        accuracy=correct / total if total else 0.0,
        confidence=(sum(confidences) / len(confidences)
                    if confidences else 1.0),
        attempts=attack.session.attempts,
    )


def run_leak_robustness(*, base_plan: FaultPlan = ACCEPTANCE_PLAN,
                        factors: Sequence[float] = DEFAULT_FACTORS,
                        runs: int = 8,
                        timing_noise: float = 2.0,
                        seed: int = 7) -> RobustnessResult:
    """Sweep the §7.2 GCD leak across fault-plan multiples."""
    config = generation("coffeelake", timing_noise=timing_noise)
    policy = MeasurementPolicy()
    result = RobustnessResult(
        label="GCD leak accuracy vs fault scale",
        plan_name=base_plan.name, factors=list(factors))
    for factor in factors:
        plan = base_plan.scaled(factor)
        for use_policy in (False, True):
            point = _leak_campaign(
                plan, policy if use_policy else None, config,
                runs=runs, seed=seed)
            point.factor = factor
            (result.resilient if use_policy else result.naive
             ).append(point)
    return result


def _fingerprint_campaign(plan: FaultPlan,
                          policy: Optional[MeasurementPolicy],
                          config: CpuGeneration, *,
                          inputs: dict, seed: int) -> RobustnessPoint:
    victim = build_gcd_victim(
        "3.0", options=CompileOptions(opt_level=2), nlimbs=1,
        with_yield=False, data_base=ENCLAVE_DATA_BASE)
    injector = (FaultInjector(plan, seed=seed, record_events=False)
                if plan.active else None)
    try:
        artifacts = extract_victim_function(
            victim, inputs, config, policy=policy,
            fault_injector=injector)
    except ReproError:
        # The naive path has no recovery: a dropped record during
        # calibration (or a desynchronized traversal) kills the whole
        # extraction.
        return RobustnessPoint(factor=0.0, resilient=policy is not None,
                               accuracy=0.0, confidence=0.0,
                               failed=True)
    return RobustnessPoint(
        factor=0.0, resilient=policy is not None,
        accuracy=artifacts.self_similarity,
        confidence=artifacts.confidence,
        attempts=artifacts.extraction_runs,
    )


def run_fingerprint_robustness(
        *, base_plan: FaultPlan = ACCEPTANCE_PLAN,
        factors: Sequence[float] = (0.0, 1.0, 2.0),
        inputs: Optional[dict] = None,
        seed: int = 7) -> RobustnessResult:
    """Sweep NV-S fingerprint self-similarity across fault multiples.

    Uses a small GCD instance (extraction re-executes the enclave
    dozens of times); pass larger ``inputs`` for longer traces.
    """
    config = generation("coffeelake")
    if inputs is None:
        inputs = {"ta": 2 * 3 * 17, "tb": 2 * 3 * 5}
    policy = MeasurementPolicy()
    result = RobustnessResult(
        label="fingerprint self-similarity vs fault scale",
        plan_name=base_plan.name, factors=list(factors))
    for factor in factors:
        plan = base_plan.scaled(factor)
        for use_policy in (False, True):
            point = _fingerprint_campaign(
                plan, policy if use_policy else None, config,
                inputs=inputs, seed=seed)
            point.factor = factor
            (result.resilient if use_policy else result.naive
             ).append(point)
    return result


@register_experiment("robustness", "ablation — accuracy vs injected fault rate")
def summarize_robustness(request: RunRequest) -> str:
    plan_kwargs = {}
    if request.plan is not None and request.plan.active:
        plan_kwargs["base_plan"] = request.plan
    leak = run_leak_robustness(
        runs=3 if request.fast else 8,
        factors=(0.0, 1.0) if request.fast else (0.0, 1.0, 2.0, 3.0),
        **plan_kwargs, **request.seeded())
    blocks = [degradation_block(
        f"{leak.label} (plan: {leak.plan_name})",
        leak.factors, leak.curves())]
    blocks.append(f"resilient floor {pct(leak.resilient_floor)} vs "
                  f"naive floor {pct(leak.naive_floor)}")
    if not request.fast:
        fingerprint = run_fingerprint_robustness(
            **plan_kwargs, **request.seeded())
        blocks.append(degradation_block(
            f"{fingerprint.label} (plan: {fingerprint.plan_name})",
            fingerprint.factors, fingerprint.curves()))
        failures = sum(p.failed for p in fingerprint.naive)
        blocks.append(f"naive extractions failed outright: "
                      f"{failures}/{len(fingerprint.naive)}")
    return "\n".join(blocks)
