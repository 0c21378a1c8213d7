"""The resilient measurement layer: policy validation, constraint
resolution, and the end-to-end guarantee that a policy on a clean
substrate changes nothing."""

import pytest

from repro.core.cfl import ControlFlowLeakAttack
from repro.core.measurement import (CONFIDENCE, DEFAULT_POLICY,
                                    MeasurementPolicy, RangeStatus,
                                    apply_constraint, summarize)
from repro.cpu.config import generation
from repro.cpu.core import Core
from repro.lang import CompileOptions
from repro.system.kernel import Kernel
from repro.victims.library import build_gcd_victim


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        MeasurementPolicy(constraint="exactly_two")


def test_policy_with_overrides():
    policy = DEFAULT_POLICY.with_(constraint="exactly_one")
    assert policy.constraint == "exactly_one"
    assert DEFAULT_POLICY.constraint is None   # frozen original


# ----------------------------------------------------------------------
# statuses
# ----------------------------------------------------------------------
def test_status_hit_and_confidence():
    assert RangeStatus.HIT_STRONG.is_hit
    assert RangeStatus.HIT_INFERRED.is_hit
    assert not RangeStatus.MISS_DEGRADED.is_hit
    assert not RangeStatus.UNKNOWN.is_hit
    # The honest states carry the lowest confidence.
    assert CONFIDENCE[RangeStatus.UNKNOWN] < \
        CONFIDENCE[RangeStatus.MISS_DEGRADED] < \
        CONFIDENCE[RangeStatus.HIT_WEAK] < \
        CONFIDENCE[RangeStatus.HIT_STRONG]


def test_summarize():
    probe = summarize([RangeStatus.HIT_STRONG, RangeStatus.MISS],
                      attempts=4, stable=True)
    assert probe.matched == [True, False]
    assert probe.attempts == 4
    assert probe.min_confidence() == CONFIDENCE[RangeStatus.MISS]


# ----------------------------------------------------------------------
# constraint resolution
# ----------------------------------------------------------------------
def test_constraint_none_is_identity():
    statuses = [RangeStatus.UNKNOWN, RangeStatus.HIT_STRONG]
    assert apply_constraint(statuses, None) == statuses


def test_constraint_resolves_unknown_next_to_hit():
    out = apply_constraint(
        [RangeStatus.HIT_STRONG, RangeStatus.UNKNOWN], "exactly_one")
    assert out == [RangeStatus.HIT_STRONG, RangeStatus.MISS_DEGRADED]


def test_constraint_infers_hit_from_all_miss():
    out = apply_constraint(
        [RangeStatus.MISS, RangeStatus.UNKNOWN], "exactly_one")
    assert out == [RangeStatus.MISS, RangeStatus.HIT_INFERRED]
    # at_most_one has no such prior: the unknown stays unknown.
    out = apply_constraint(
        [RangeStatus.MISS, RangeStatus.UNKNOWN], "at_most_one")
    assert out == [RangeStatus.MISS, RangeStatus.UNKNOWN]


def test_constraint_never_flips_definitive_misses():
    # The "loop exited" fragment reads all-miss with no unknowns —
    # exactly_one must NOT invent a hit.
    statuses = [RangeStatus.MISS, RangeStatus.MISS]
    assert apply_constraint(statuses, "exactly_one") == statuses


def test_constraint_demotes_weak_hits_beside_strong():
    out = apply_constraint(
        [RangeStatus.HIT_STRONG, RangeStatus.HIT_WEAK], "exactly_one")
    assert out == [RangeStatus.HIT_STRONG, RangeStatus.MISS_DEGRADED]
    # Two weak hits: ambiguous, neither is demoted.
    statuses = [RangeStatus.HIT_WEAK, RangeStatus.HIT_WEAK]
    assert apply_constraint(statuses, "exactly_one") == statuses


def test_constraint_two_unknowns_stay_unknown():
    statuses = [RangeStatus.UNKNOWN, RangeStatus.UNKNOWN]
    assert apply_constraint(statuses, "exactly_one") == statuses


# ----------------------------------------------------------------------
# end-to-end: a policy on a clean substrate is a no-op
# ----------------------------------------------------------------------
def test_policy_matches_naive_on_clean_substrate():
    victim = build_gcd_victim(
        "3.0", options=CompileOptions(opt_level=2, align_jumps=16),
        nlimbs=2, with_yield=True)
    inputs = {"ta": 2 * 3 * 5 * 7, "tb": 2 * 5 * 11}
    config = generation("coffeelake")

    naive = ControlFlowLeakAttack(Kernel(Core(config)), victim)
    resilient = ControlFlowLeakAttack(
        Kernel(Core(config)), victim, policy=MeasurementPolicy())

    truth = naive.ground_truth(inputs)
    naive_out = naive.attack(inputs)
    resilient_out = resilient.attack(inputs)
    assert naive_out.accuracy_against(truth) == 1.0
    assert resilient_out.accuracy_against(truth) == 1.0
    # Every reading on a quiet machine is definitive.
    assert resilient_out.mean_confidence() > 0.85
    assert all(conf > 0.5 for conf in resilient_out.confidence)
