"""Compiler: correctness at every optimization level + defense passes."""

import gc
import math
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import MachineState, run_function
from repro.errors import CompileError
from repro.lang import (CompileOptions, Compiler, inline_leaf_calls,
                        parse_module)
from repro.lang.ctrewrite import rewrite_module
from repro.lang import ast as A
from repro.lang.codegen import CFR_REGION
from repro.memory import VirtualMemory

_u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


def compile_and_call(source, function, args, opt_level=0, **options):
    module = parse_module(source)
    compiled = Compiler(CompileOptions(opt_level=opt_level,
                                       **options)).compile(module)
    memory = VirtualMemory()
    compiled.program.load_into(memory)
    memory.map_range(0x900000, 4096, "rw")
    state = MachineState(memory)
    state.setup_stack(0x7FFF00000000)
    run_function(state, compiled.info(function).entry, args=list(args),
                 syscall_handler=lambda s: True)
    return state.regs["rax"], compiled


_ARITH = """
func f(a, b) {
  return (a + b) * 3 - (a & b) + (a ^ b) - (a | b) + a / (b + 1)
         + a % (b + 1) + (a << 2) + (b >> 3);
}
"""


class TestCorrectnessAcrossLevels:
    @settings(max_examples=20, deadline=None)
    @given(_u32, _u32)
    @pytest.mark.parametrize("opt", [0, 2, 3])
    def test_arithmetic(self, opt, a, b):
        expected = (((a + b) * 3 - (a & b) + (a ^ b) - (a | b)
                     + a // (b + 1) + a % (b + 1) + (a << 2)
                     + (b >> 3)) & ((1 << 64) - 1))
        result, _ = compile_and_call(_ARITH, "f", (a, b), opt_level=opt)
        assert result == expected

    @pytest.mark.parametrize("opt", [0, 2, 3])
    def test_euclid_gcd(self, opt):
        source = """
func gcd(a, b) {
  while (b != 0) { t = a % b; a = b; b = t; }
  return a;
}
"""
        result, _ = compile_and_call(source, "gcd", (1071, 462),
                                     opt_level=opt)
        assert result == math.gcd(1071, 462)

    @pytest.mark.parametrize("opt", [0, 2, 3])
    def test_calls_and_arrays(self, opt):
        source = """
func fill(p, n) {
  i = 0;
  while (i < n) { p[i] = i * 3; i = i + 1; }
  return 0;
}
func total(p, n) {
  s = 0;
  i = 0;
  while (i < n) { s = s + p[i]; i = i + 1; }
  return s;
}
func driver(p, n) {
  fill(p, n);
  return total(p, n);
}
"""
        result, _ = compile_and_call(source, "driver", (0x900000, 9),
                                     opt_level=opt)
        assert result == sum(i * 3 for i in range(9))

    @pytest.mark.parametrize("opt", [0, 2, 3])
    def test_signed_comparison(self, opt):
        source = "func f(a, b) { if (a s< b) { return 1; } return 0; }"
        big = (1 << 63) + 5          # negative when signed
        result, _ = compile_and_call(source, "f", (big, 3),
                                     opt_level=opt)
        assert result == 1

    @pytest.mark.parametrize("opt", [0, 2, 3])
    def test_many_locals_spill(self, opt):
        names = [f"v{i}" for i in range(12)]
        decls = "\n".join(f"{n} = {i + 1};"
                          for i, n in enumerate(names))
        total = " + ".join(names)
        source = f"func f() {{ {decls} return {total}; }}"
        result, _ = compile_and_call(source, "f", (), opt_level=opt)
        assert result == sum(range(1, 13))


class TestLayoutDiffersAcrossLevels:
    def test_binaries_differ(self):
        source = """
func helper(x) { return x + 3; }
func f(a, b) {
  s = 0;
  while (a != 0) { t = helper(b); s = s + t; a = a - 1; }
  return s;
}
"""
        module = parse_module(source)
        images = set()
        for opt in (0, 2, 3):
            compiled = Compiler(
                CompileOptions(opt_level=opt)).compile(module)
            images.add(compiled.program.segments[0][1])
        assert len(images) == 3

    def test_functions_are_16_aligned(self):
        _, compiled = compile_and_call(_ARITH, "f", (1, 2))
        assert compiled.info("f").entry % 16 == 0


class TestDefensePasses:
    _LEAKY = """
func pick(s, x) {
  r = 0;
  if (s > 10) { r = x * 3; } else { r = x + 100; r = r + s; }
  return r;
}
"""

    @pytest.mark.parametrize("options", [
        dict(balance_branches=True),
        dict(align_jumps=16),
        dict(cfr=True),
        dict(balance_branches=True, cfr=True),
    ])
    def test_semantics_preserved(self, options):
        for secret, x, expected in ((50, 7, 21), (5, 7, 112)):
            result, _ = compile_and_call(self._LEAKY, "pick",
                                         (secret, x), opt_level=2,
                                         **options)
            assert result == expected

    def test_balancing_equalizes_arm_footprints(self):
        _, compiled = compile_and_call(self._LEAKY, "pick", (50, 7),
                                       opt_level=2,
                                       balance_branches=True)
        arm = compiled.arms_in("pick")[0]
        then_len = arm.then_end - arm.then_start + 5   # + jmp over
        else_len = arm.else_end - arm.else_start
        assert then_len == else_len

    def test_alignment_places_arms_on_16(self):
        _, compiled = compile_and_call(self._LEAKY, "pick", (50, 7),
                                       opt_level=2, align_jumps=16)
        arm = compiled.arms_in("pick")[0]
        assert arm.then_start % 16 == 0
        assert arm.else_start % 16 == 0

    def test_cfr_uses_indirect_trampolines(self):
        _, compiled = compile_and_call(self._LEAKY, "pick", (50, 7),
                                       opt_level=2, cfr=True)
        mnemonics = [inst.mnemonic for inst in
                     compiled.program.instructions.values()]
        assert "jmpr" in mnemonics
        assert any("cmov" in m for m in mnemonics)

    def test_cfr_trampolines_are_randomized_by_seed(self):
        module = parse_module(self._LEAKY)
        layouts = []
        for seed in (1, 2):
            compiled = Compiler(CompileOptions(
                opt_level=2, cfr=True, cfr_seed=seed)).compile(module)
            layouts.append(tuple(base for base, _ in
                                 compiled.program.segments[1:]))
        assert layouts[0] != layouts[1]

    def test_balance_align_combination_rejected(self):
        with pytest.raises(CompileError):
            CompileOptions(balance_branches=True, align_jumps=16)

    def test_bad_opt_level_rejected(self):
        with pytest.raises(CompileError):
            CompileOptions(opt_level=1)


class TestInlining:
    _SOURCE = """
func leaf(x) { return x * 2 + 1; }
func looper(x) { while (x > 100) { x = x - 1; } return x; }
func caller(a) {
  b = leaf(a);
  c = looper(b);
  return leaf(c) + b;
}
"""

    def test_leaf_calls_disappear_at_o3(self):
        module = parse_module(self._SOURCE)
        inlined = inline_leaf_calls(module, limit=8)
        caller = inlined.function("caller")

        def count_calls(stmts):
            from repro.lang import ast as A
            total = 0
            for stmt in stmts:
                if isinstance(stmt, A.Assign) and \
                        isinstance(stmt.value, A.Call):
                    total += 1
            return total

        # leaf() inlined away; looper (has a loop but is itself a
        # leaf and small) may inline too — but no call to `leaf` left
        from repro.lang import ast as A
        for stmt in caller.body:
            if isinstance(stmt, A.Assign) and \
                    isinstance(stmt.value, A.Call):
                assert stmt.value.name != "leaf"

    def test_inlined_semantics_match(self):
        # caller(120): b = 241; c = looper(241) = 100;
        # result = leaf(100) + b = 201 + 241 = 442
        for opt in (0, 3):
            result, _ = compile_and_call(self._SOURCE, "caller",
                                         (120,), opt_level=opt)
            assert result == 442

    def test_inlining_fresh_variable_isolation(self):
        source = """
func leaf(x) { t = x + 1; return t; }
func caller(t) {
  u = leaf(5);
  return t + u;
}
"""
        for opt in (0, 3):
            result, _ = compile_and_call(source, "caller", (10,),
                                         opt_level=opt)
            assert result == 16


class TestArmRegions:
    def test_nested_ifs_all_recorded(self):
        source = """
func f(a) {
  r = 0;
  if (a > 4) {
    if (a > 8) { r = 1; } else { r = 2; }
  } else {
    r = 3;
  }
  return r;
}
"""
        _, compiled = compile_and_call(source, "f", (9,))
        assert len(compiled.arms_in("f")) == 2

    def test_arm_addresses_inside_function(self):
        source = "func f(a) { if (a) { a = 1; } else { a = 2; } return a; }"
        _, compiled = compile_and_call(source, "f", (1,))
        info = compiled.info("f")
        for arm in compiled.arms_in("f"):
            assert info.start <= arm.then_start <= info.end
            assert info.start <= arm.else_end <= info.end


def _scan_static_pcs(compiled, name):
    """The linear scan ``static_pcs`` replaced (reference)."""
    info = compiled.info(name)
    return [pc for pc in compiled.program.instructions
            if info.contains(pc)]


def _scan_function_of(compiled, pc):
    for name, info in compiled.functions.items():
        if info.contains(pc):
            return name
    return None


class TestStaticPcIndex:
    _SOURCE = """
func helper(x) { return x + 3; }
func pick(s, x) {
  r = 0;
  if (s > 40) { r = x * 3; } else { r = x + 1; }
  return r;
}
func f(a, b) {
  s = 0;
  while (a != 0) { t = helper(b); s = s + pick(t, a); a = a - 1; }
  return s;
}
"""

    @pytest.fixture(params=[
        dict(opt_level=0), dict(opt_level=2), dict(opt_level=3),
        dict(opt_level=2, align_jumps=16), dict(opt_level=2, cfr=True),
    ], ids=["O0", "O2", "O3", "O2-align16", "O2-cfr"])
    def compiled(self, request):
        return Compiler(CompileOptions(**request.param)).compile(
            parse_module(self._SOURCE), start="f")

    def test_static_pcs_match_linear_scan_in_order(self, compiled):
        for name in compiled.functions:
            assert compiled.static_pcs(name) == \
                _scan_static_pcs(compiled, name)

    def test_static_pcs_returns_a_copy(self, compiled):
        compiled.static_pcs("f").clear()
        assert compiled.static_pcs("f") == _scan_static_pcs(compiled, "f")

    def test_unknown_function_rejected(self, compiled):
        with pytest.raises(CompileError):
            compiled.static_pcs("nope")

    def test_function_of_matches_linear_scan(self, compiled):
        pcs = set(compiled.program.instructions)
        for info in compiled.functions.values():
            pcs.update((info.start - 1, info.start, info.end - 1,
                        info.end, info.end + 1))
        low = min(info.start for info in compiled.functions.values())
        high = max(info.end for info in compiled.functions.values())
        pcs.update(range(low - 8, high + 8))       # every gap byte
        pcs.update((0, compiled.program.entry - 1, 1 << 63))
        outside = [pc for pc in compiled.program.instructions
                   if _scan_function_of(compiled, pc) is None]
        assert outside, "the _start stub lies outside every function"
        for pc in sorted(pcs):
            assert compiled.function_of(pc) == \
                _scan_function_of(compiled, pc), hex(pc)

    def test_cfr_trampolines_belong_to_no_function(self):
        compiled = Compiler(CompileOptions(opt_level=2, cfr=True)).compile(
            parse_module(self._SOURCE))
        region = CFR_REGION
        trampolines = [pc for pc in compiled.program.instructions
                       if pc >= region]
        assert trampolines
        assert {compiled.function_of(pc) for pc in trampolines} == {None}
        filed = [pc for name in compiled.functions
                 for pc in compiled.static_pcs(name)]
        assert not set(trampolines) & set(filed)


class TestNoReferenceCycles:
    """Compiling, and the constant-time rewrite ``repro certify``
    validates, leave nothing for the cyclic collector: with the
    collector paused (as ``generate_corpus`` runs it), any reference
    cycle they build outlives the call."""

    @staticmethod
    def _from_lang(obj) -> bool:
        if isinstance(obj, types.FunctionType):
            return obj.__module__.startswith("repro.lang")
        return type(obj).__module__.startswith("repro.lang")

    def test_compiling_a_corpus_batch_leaves_no_garbage(self):
        from repro.fingerprint.corpus import _FunctionSynthesizer
        rng = random.Random(2023)
        batch = parse_module(TestInlining._SOURCE).functions + tuple(
            _FunctionSynthesizer(rng, f"corpus_{serial}").synthesize()
            for serial in range(40))
        module = A.Module(batch)
        options = [CompileOptions(opt_level=level) for level in (0, 2, 3)]
        options += [CompileOptions(opt_level=0, balance_branches=True),
                    CompileOptions(opt_level=2, align_jumps=16, cfr=True)]
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for option in options:
                Compiler(option).compile(module)
            rewrite_module(module)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [obj for obj in gc.garbage if self._from_lang(obj)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if collecting:
                gc.enable()
        assert leaked == [], sorted({repr(obj)[:80] for obj in leaked})
