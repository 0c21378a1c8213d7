"""Use case 1 end-to-end: the control-flow-leakage attack."""

import gc
import weakref

import pytest

from repro.core import ControlFlowLeakAttack, Direction, arm_pw
from repro.core.cfl import CflResult
from repro.cpu import Core, generation
from repro.errors import AttackError
from repro.lang import CompileOptions
from repro.system import Kernel
from repro.victims import build_bn_cmp_victim, build_gcd_victim, \
    generate_key


def _attack(victim, **config_overrides):
    config = generation("coffeelake", **config_overrides)
    return ControlFlowLeakAttack(Kernel(Core(config)), victim)


class TestArmPw:
    def test_sub_interval(self):
        pw = arm_pw(0x400504, 0x400540)
        assert 0x400504 <= pw.start and pw.end <= 0x400540
        assert pw.size >= 2

    def test_block_boundary_handling(self):
        pw = arm_pw(0x40051F, 0x400560)
        assert pw.size >= 2

    def test_tiny_arm_rejected(self):
        with pytest.raises(AttackError):
            arm_pw(0x40051F, 0x400520)


class TestGcdLeak:
    @pytest.mark.parametrize("version", ["2.5", "2.16", "3.0"])
    def test_all_source_versions_leak(self, version):
        victim = build_gcd_victim(
            version, options=CompileOptions(opt_level=2),
            nlimbs=2, with_yield=True)
        attack = _attack(victim)
        key = generate_key(bits_per_prime=24, seed=17)
        inputs = dict(zip(("ta", "tb"), key.gcd_inputs()))
        truth = attack.ground_truth(inputs)
        assert truth                          # the branch is exercised
        result = attack.attack(inputs)
        assert result.accuracy_against(truth) == 1.0

    @pytest.mark.parametrize("options", [
        dict(align_jumps=16),
        dict(balance_branches=True),
        dict(cfr=True),
        dict(balance_branches=True, cfr=True),
    ])
    def test_defenses_do_not_stop_it(self, options):
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2, **options),
            nlimbs=2, with_yield=True)
        attack = _attack(victim)
        key = generate_key(bits_per_prime=24, seed=23)
        inputs = dict(zip(("ta", "tb"), key.gcd_inputs()))
        truth = attack.ground_truth(inputs)
        result = attack.attack(inputs)
        assert result.accuracy_against(truth) == 1.0

    def test_ibrs_does_not_stop_it(self):
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2, align_jumps=16),
            nlimbs=2, with_yield=True)
        attack = _attack(victim, ibrs_ibpb=True)
        key = generate_key(bits_per_prime=24, seed=29)
        inputs = dict(zip(("ta", "tb"), key.gcd_inputs()))
        truth = attack.ground_truth(inputs)
        result = attack.attack(inputs)
        assert result.accuracy_against(truth) == 1.0

    def test_btb_flush_stops_it(self):
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2),
            nlimbs=2, with_yield=True)
        attack = _attack(victim, flush_btb_on_switch=True)
        key = generate_key(bits_per_prime=24, seed=31)
        inputs = dict(zip(("ta", "tb"), key.gcd_inputs()))
        truth = attack.ground_truth(inputs)
        result = attack.attack(inputs)
        assert result.accuracy_against(truth) < 0.6

    def test_trailing_fragment_is_none(self):
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2),
            nlimbs=2, with_yield=True)
        attack = _attack(victim)
        key = generate_key(bits_per_prime=24, seed=37)
        result = attack.attack(dict(zip(("ta", "tb"),
                                        key.gcd_inputs())))
        assert result.directions[-1] is Direction.NONE


    def test_finished_victims_are_released(self, monkeypatch):
        """Each attack removes its victim from the kernel, so the
        victim's address space is freed by reference counting."""
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2),
            nlimbs=2, with_yield=True)
        attack = _attack(victim)
        memories = []
        new_process = victim.new_process

        def tracked(*args, **kwargs):
            process = new_process(*args, **kwargs)
            memories.append(weakref.ref(process.memory))
            return process

        monkeypatch.setattr(victim, "new_process", tracked)
        gc.disable()
        try:
            for seed in (37, 38):
                key = generate_key(bits_per_prime=24, seed=seed)
                attack.attack(dict(zip(("ta", "tb"), key.gcd_inputs())))
                assert all(memory() is None for memory in memories)
            assert attack.kernel.processes == [attack.nv.attacker]
        finally:
            gc.enable()


class TestTruthSemantics:
    def test_v3_arm_truth_matches_key_directions(self):
        """For the classic/3.x sources the then arm IS the
        TA >= TB direction, so the arm oracle equals the RSA key's
        reference direction sequence."""
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2),
            nlimbs=2, with_yield=True)
        assert victim.then_arm_is_truth
        attack = _attack(victim)
        key = generate_key(bits_per_prime=24, seed=41)
        inputs = dict(zip(("ta", "tb"), key.gcd_inputs()))
        assert attack.ground_truth(inputs) == \
            key.secret_branch_directions()


class TestBnCmpLeak:
    def test_both_directions(self):
        victim = build_bn_cmp_victim(
            options=CompileOptions(opt_level=2, align_jumps=16),
            nlimbs=4, iters=1, with_yield=True)
        attack = _attack(victim)
        for a, b, expected in (((1 << 100) + 5, (1 << 100) + 9, False),
                               ((1 << 100) + 9, (1 << 100) + 5, True)):
            # then-arm of the secret branch is the a < b side
            result = attack.attack({"a": a, "b": b})
            assert result.accuracy_against([a < b]) == 1.0


class TestResultHelpers:
    def test_accuracy_empty_truth(self):
        result = CflResult(directions=[], raw=[])
        assert result.accuracy_against([]) == 1.0

    def test_inferred_skips_none(self):
        result = CflResult(
            directions=[Direction.THEN, Direction.NONE,
                        Direction.ELSE],
            raw=[(True, False), (False, False), (False, True)])
        assert result.inferred() == [True, False]
