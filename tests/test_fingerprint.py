"""Fingerprinting: slicing, similarity, sequence matcher, corpus."""

import gc
import hashlib
import json
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.fingerprint import similarity
from repro.fingerprint import (FingerprintIndex, FunctionTrace, PcSet,
                               apply_measurement_noise, downsample,
                               function_traces_of_length,
                               generate_corpus, rank_victims,
                               retire_unit_starts, sequence_similarity,
                               set_similarity, slice_trace)

_pc_sets = st.frozensets(st.integers(0, 400), min_size=1, max_size=60)


class TestSetSimilarity:
    @given(_pc_sets, _pc_sets)
    def test_bounds(self, a, b):
        assert 0.0 <= set_similarity(a, b) <= 1.0

    @given(_pc_sets)
    def test_identity(self, a):
        assert set_similarity(a, a) == 1.0

    @given(_pc_sets)
    def test_subset_of_reference_is_perfect(self, a):
        """Missing measurements (fusion drops) cannot hurt: S ⊆ S*
        scores 1.0 — the property §7.3 relies on."""
        reference = set(a) | {10_000, 10_001}
        assert set_similarity(a, reference) == 1.0

    def test_disjoint_is_zero(self):
        assert set_similarity({1, 2}, {3, 4}) == 0.0

    def test_empty_victim(self):
        assert set_similarity([], {1}) == 0.0

    @staticmethod
    def _reference_formula(victim, reference):
        victim_set = frozenset(victim)
        if not victim_set:
            return 0.0
        return len(victim_set & frozenset(reference)) / len(victim_set)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 64), max_size=40),
           st.lists(st.integers(0, 64), max_size=40),
           st.sampled_from([list, tuple, set, frozenset]),
           st.sampled_from([list, tuple, set, frozenset, iter]))
    def test_equals_frozenset_formula_exactly(self, victim, reference,
                                              victim_type, reference_type):
        """Bit-identical to the two-frozenset formula for every input
        shape: duplicates, sets, and a one-shot generator reference."""
        expected = self._reference_formula(victim, reference)
        got = set_similarity(victim_type(victim), reference_type(reference))
        assert got == expected

    def test_generator_reference_and_empty_victim(self):
        assert set_similarity([1, 1, 2, 3], (pc for pc in (2, 2, 3, 9))) \
            == 2 / 3
        assert set_similarity((), (pc for pc in (1, 2))) == 0.0
        assert set_similarity(iter(()), ()) == 0.0

    _REFERENCES = ((1, 2, 3), [2, 4, 6, 8], frozenset({3, 5, 7}), (),
                   (9, 1, 1, 2))

    def test_memo_interleaved_tuple_victims(self):
        a, b = (1, 2, 2, 3, 5), (4, 6, 7, 8, 8, 9)
        for victim in (a, b, a, b, a, a, b, b):
            for reference in self._REFERENCES:
                assert set_similarity(victim, reference) == \
                    self._reference_formula(victim, reference)

    def test_memo_list_mutated_in_place_scores_new_contents(self):
        victim = [1, 2, 3]
        reference = (1, 2, 3, 4)
        assert set_similarity(victim, reference) == \
            self._reference_formula(victim, reference) == 1.0
        victim[:] = [4, 5, 6, 7]
        assert set_similarity(victim, reference) == \
            self._reference_formula(victim, reference) == 0.25

    def test_memo_equal_but_distinct_tuples(self):
        first = tuple(range(0, 40, 3))
        second = tuple(list(first))
        assert first == second and first is not second
        for victim in (first, second, first):
            for reference in self._REFERENCES:
                assert set_similarity(victim, reference) == \
                    self._reference_formula(victim, reference)

    def test_memo_empty_generator_and_frozenset_victims(self):
        warm = (1, 2, 3)
        for reference in self._REFERENCES:
            set_similarity(warm, reference)
            assert set_similarity((), reference) == 0.0
            generator = (pc for pc in (2, 3, 9))
            assert set_similarity(generator, reference) == \
                self._reference_formula((2, 3, 9), reference)
            victim = frozenset({1, 3, 8})
            assert set_similarity(victim, reference) == \
                self._reference_formula(victim, reference)
            assert set_similarity(warm, reference) == \
                self._reference_formula(warm, reference)

    def test_memo_corpus_identification_and_fig12_orders(self):
        """Each victim against every reference (identification), then
        each reference against every victim (the Fig. 12 view)."""
        corpus = generate_corpus(size=60, seed=5)
        identification = [(victim, reference) for victim in corpus
                          for reference in corpus]
        fig12 = [(victim, reference) for reference in corpus
                 for victim in corpus]
        for victim, reference in identification + fig12:
            assert set_similarity(victim.measured, reference.static_pcs) \
                == self._reference_formula(victim.measured,
                                           reference.static_pcs)


#: pcs over a wide span, mixed with a narrow band so that sets overlap
#: and repeat pcs
_pc_lists = st.lists(st.integers(-5000, 5000) | st.integers(-40, 40),
                     max_size=60)


def _generator(pcs):
    return (pc for pc in pcs)


#: plain shapes a PcSet is scored against
_plain_shapes = st.sampled_from([tuple, list, frozenset, _generator])


class TestPcSet:
    """The bitset path of ``set_similarity`` (both arguments PcSets)
    and the mixed pairings must give the two-frozenset formula's
    float, bit for bit."""

    formula = staticmethod(TestSetSimilarity._reference_formula)

    @settings(max_examples=300)
    @given(_pc_lists, _pc_lists)
    def test_bitset_path_equals_formula_exactly(self, victim, reference):
        assert set_similarity(PcSet(victim), PcSet(reference)) == \
            self.formula(victim, reference)

    @settings(max_examples=200)
    @given(_pc_lists, _pc_lists)
    def test_common_absolute_offset(self, victim, reference):
        """Absolute addresses sharing one image base score like their
        offsets."""
        victim = [0x40_0000 + pc for pc in victim]
        reference = [0x40_0000 + pc for pc in reference]
        assert set_similarity(PcSet(victim), PcSet(reference)) == \
            self.formula(victim, reference)

    @settings(max_examples=300)
    @given(_pc_lists, _pc_lists, _plain_shapes, st.booleans())
    def test_mixed_pairings_equal_formula_exactly(
            self, victim, reference, shape, pcset_is_victim):
        if pcset_is_victim:
            args = (PcSet(victim), shape(reference))
        else:
            args = (shape(victim), PcSet(reference))
        assert set_similarity(*args) == self.formula(victim, reference)

    @settings(max_examples=200)
    @given(_pc_lists, _pc_lists)
    def test_bin_popcount_path_equals_formula_exactly(self, victim,
                                                      reference):
        """The popcount used where ``int.bit_count`` is missing
        (Python 3.9) gives the same scores."""
        with mock.patch.object(similarity, "_popcount",
                               similarity._bin_popcount):
            assert set_similarity(PcSet(victim), PcSet(reference)) == \
                self.formula(victim, reference)

    @given(st.integers(0, 1 << 3000))
    def test_bin_popcount_counts_set_bits(self, bits):
        assert similarity._bin_popcount(bits) == \
            sum(1 for i in range(bits.bit_length()) if bits >> i & 1)

    def test_duplicates_and_empty_sets(self):
        assert set_similarity(PcSet([3, 3, 3, 7]), PcSet([7, 7])) == 0.5
        assert set_similarity(PcSet(), PcSet([1, 2])) == 0.0
        assert set_similarity(PcSet([1, 2]), PcSet()) == 0.0
        assert set_similarity(PcSet(), PcSet()) == 0.0
        assert set_similarity(PcSet(), (pc for pc in (1,))) == 0.0

    def test_mask_layout(self):
        pcs = PcSet([9, -3, 4, 9, 0])
        assert (pcs.base, pcs.count) == (-3, 4)
        assert pcs.bits == sum(1 << (pc + 3) for pc in (-3, 0, 4, 9))
        assert (PcSet().base, PcSet().bits, PcSet().count) == (0, 0, 0)

    @pytest.mark.parametrize("pcs", [(), (5,), (0, 3, 3, -2, 17),
                                     tuple(range(0x40_0000, 0x40_0040, 3))])
    def test_behaves_like_its_tuple(self, pcs):
        pcset = PcSet(pcs)
        assert pcset == pcs and pcs == pcset
        assert hash(pcset) == hash(pcs)
        assert list(pcset) == list(pcs) and len(pcset) == len(pcs)
        assert repr(pcset) == repr(pcs)
        assert json.dumps(pcset) == json.dumps(pcs)
        assert json.dumps({"pcs": pcset}, sort_keys=True,
                          separators=(",", ":")) == \
            json.dumps({"pcs": pcs}, sort_keys=True, separators=(",", ":"))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(pcset, protocol))
            assert type(again) is PcSet and again == pcs
            assert (again.base, again.bits, again.count) == \
                (pcset.base, pcset.bits, pcset.count)
        assert {pcset: 1}[pcs] == 1

    def test_generate_corpus_fields_are_pcsets(self):
        """The corpus feeds identification; plain tuples would fall off
        the bitset path without changing any score."""
        for fn in generate_corpus(size=5, seed=3):
            assert type(fn.static_pcs) is PcSet
            assert type(fn.measured) is PcSet


class TestSlicing:
    def test_straightline_single_trace(self):
        pcs = [0x100, 0x103, 0x106]
        traces = slice_trace(pcs)
        assert len(traces) == 1
        assert traces[0].normalized() == [0, 3, 6]

    def test_call_and_ret(self):
        # caller at 0x100, call at 0x106 -> callee 0x200 (aligned),
        # ret back to 0x10B
        pcs = [0x100, 0x103, 0x106, 0x200, 0x204, 0x10B, 0x10E]
        traces = slice_trace(pcs)
        assert len(traces) == 2
        caller, callee = traces
        assert caller.pcs == [0x100, 0x103, 0x106, 0x10B, 0x10E]
        assert callee.entry == 0x200
        assert callee.pcs == [0x200, 0x204]
        assert callee.depth == 1

    def test_nested_calls(self):
        pcs = [0x100, 0x105,            # call -> f
               0x200, 0x205,            # f: call -> g
               0x300, 0x303,            # g body
               0x20A, 0x20D,            # back in f
               0x10A]                   # back in caller
        traces = slice_trace(pcs)
        assert [t.entry for t in traces] == [0x100, 0x200, 0x300]
        assert traces[1].pcs == [0x200, 0x205, 0x20A, 0x20D]

    def test_data_access_gates_call_detection(self):
        pcs = [0x100, 0x105, 0x200, 0x204]
        # the far jump step (index 2) did NOT touch data: plain jump
        flags = [True, True, False, True]
        traces = slice_trace(pcs, flags)
        assert len(traces) == 1

    def test_unaligned_far_jump_is_not_a_call(self):
        pcs = [0x100, 0x105, 0x209, 0x20C]   # target not 16-aligned
        traces = slice_trace(pcs)
        assert len(traces) == 1

    def test_loop_back_edges_stay_in_function(self):
        pcs = [0x100, 0x103, 0x110, 0x103, 0x110, 0x103]
        traces = slice_trace(pcs)
        assert len(traces) == 1

    def test_length_filter(self):
        traces = [FunctionTrace(entry=0, pcs=[0, 1, 2]),
                  FunctionTrace(entry=0, pcs=list(range(10)))]
        assert function_traces_of_length(traces, minimum=4) == \
            [traces[1]]

    def test_empty_trace(self):
        assert slice_trace([]) == []

    @pytest.mark.parametrize("flags", [[False], [], [True, True],
                                       [True, True, True, True]])
    def test_data_access_length_must_match_pcs(self, flags):
        """A short flag list used to reuse its last flag for every
        later step (or raise a bare IndexError when empty)."""
        with pytest.raises(ValueError, match="data_access"):
            slice_trace([0x10, 0x100, 0x104], flags)


class TestMeasurementModel:
    def test_fusion_drops_jcc(self):
        from repro.isa import make
        instructions = {
            0x100: make("cmpi8", 0, 5),      # fusible, 4 bytes
            0x104: make("je8", 10),          # fuses
            0x110: make("nop"),
        }
        trace = [0x100, 0x104, 0x110]
        units = retire_unit_starts(trace, instructions)
        assert units == [0x100, 0x110]

    def test_non_adjacent_does_not_fuse(self):
        from repro.isa import make
        instructions = {
            0x100: make("cmpi8", 0, 5),
            0x108: make("je8", 10),          # gap: not adjacent
        }
        assert retire_unit_starts([0x100, 0x108], instructions) == \
            [0x100, 0x108]

    def test_noise_rates(self):
        units = list(range(0, 10_000, 4))
        noisy = apply_measurement_noise(units, error_rate=0.1,
                                        drop_rate=0.1, seed=1)
        kept = len(noisy) / len(units)
        assert 0.85 < kept < 0.95
        flipped = sum(1 for pc in noisy if pc % 4 != 0)
        assert 0.05 < flipped / len(units) < 0.15

    def test_zero_noise_identity(self):
        units = [1, 2, 3]
        assert apply_measurement_noise(units) == units

    @staticmethod
    def _reference_units(trace, instructions):
        """The fusion rule walked the plain way: a unit is one
        instruction, or a fusible op and the jcc right behind it."""
        from repro.isa import Kind
        units = []
        index = 0
        while index < len(trace):
            pc = trace[index]
            units.append(pc)
            here = instructions.get(pc)
            follower = (instructions.get(trace[index + 1])
                        if index + 1 < len(trace) else None)
            if (here is not None and follower is not None
                    and trace[index + 1] == pc + here.length
                    and here.spec.fusible
                    and follower.kind is Kind.COND_JUMP):
                index += 2
            else:
                index += 1
        return units

    @staticmethod
    def _random_layout(rng):
        """A run of fusible ALU ops, jccs and other instructions laid
        end to end, as an address -> instruction map."""
        from repro.isa import make
        choices = (("cmpi8", 0, 5), ("cmp", 1, 2), ("test", 3, 3),
                   ("addi", 2, 70_000), ("dec", 4),
                   ("je8", 10), ("jne", -300), ("jl8", 2),
                   ("nop",), ("mov", 1, 2), ("jmp8", 4), ("ret",))
        instructions = {}
        pc = 0x1000
        for _ in range(rng.randint(4, 40)):
            instruction = make(*rng.choice(choices))
            instructions[pc] = instruction
            pc += instruction.length
        return instructions

    def test_retire_units_match_reference_walk(self):
        """Seeded traces mixing adjacent steps, jumps (a follower not
        at ``pc + length``), pcs outside the instruction map and a
        trailing fusible op give the reference walk's units."""
        seen = {"fused": 0, "jump_after_fusible": 0, "unmapped": 0,
                "trailing_fusible": 0}
        for seed in range(300):
            rng = random.Random(seed)
            instructions = self._random_layout(rng)
            pcs = sorted(instructions)
            pc = rng.choice(pcs)
            trace = []
            for _ in range(rng.randint(0, 60)):
                trace.append(pc)
                roll = rng.random()
                if roll < 0.1:
                    pc = rng.choice(pcs) + rng.choice((1, 2, 0x40_000))
                elif roll < 0.3 or pc not in instructions:
                    pc = rng.choice(pcs)
                else:
                    pc += instructions[pc].length
            if rng.random() < 0.3:
                trace.append(rng.choice(
                    [pc for pc in pcs if instructions[pc].spec.fusible]
                    or pcs))
            expected = self._reference_units(trace, instructions)
            assert retire_unit_starts(trace, instructions) == expected
            assert retire_unit_starts(tuple(trace), instructions) \
                == expected
            seen["fused"] += len(trace) - len(expected)
            seen["unmapped"] += sum(pc not in instructions for pc in trace)
            seen["jump_after_fusible"] += sum(
                a in instructions and instructions[a].spec.fusible
                and b in instructions and b != a + instructions[a].length
                for a, b in zip(trace, trace[1:]))
            seen["trailing_fusible"] += bool(
                trace and trace[-1] in instructions
                and instructions[trace[-1]].spec.fusible)
        assert all(count > 10 for count in seen.values()), seen


class TestSequenceMatcher:
    def test_identical_sequences(self):
        seq = [0, 3, 6, 9, 12]
        assert sequence_similarity(seq, seq) == 1.0

    def test_disjoint_sequences(self):
        assert sequence_similarity([0, 3, 6], [100, 200]) < 0.2

    def test_tolerates_small_perturbation(self):
        reference = list(range(0, 60, 3))
        victim = [pc + (1 if index == 5 else 0)
                  for index, pc in enumerate(reference)]
        assert sequence_similarity(victim, reference) > 0.9

    def test_order_matters_unlike_sets(self):
        reference = [0, 10, 20, 30, 40, 50]
        shuffled = [50, 30, 10, 40, 0, 20]
        assert set_similarity(shuffled, reference) == 1.0
        assert sequence_similarity(shuffled, reference) < \
            sequence_similarity(reference, reference)

    def test_downsample(self):
        assert downsample(list(range(100)), 10) == \
            [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
        assert downsample([1, 2], 10) == [1, 2]

    def test_downsample_zero_and_negative_limits(self):
        assert downsample([1, 2, 3], 0) == []
        assert downsample([], 0) == []
        with pytest.raises(ValueError, match="-1"):
            downsample([1, 2, 3], -1)
        with pytest.raises(ValueError, match="-4"):
            downsample([], -4)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=20),
           st.lists(st.integers(0, 100), min_size=1, max_size=20))
    def test_bounds(self, a, b):
        assert 0.0 <= sequence_similarity(a, b) <= 1.0


class TestIndex:
    def test_ranking(self):
        index = FingerprintIndex()
        index.add_reference("f", {0, 3, 6, 9})
        index.add_reference("g", {0, 5, 10, 15})
        victim = FunctionTrace(entry=0x100,
                               pcs=[0x100, 0x103, 0x106, 0x109])
        matches = index.match(victim)
        assert matches[0].reference == "f"
        assert matches[0].similarity == 1.0
        assert index.best_match(victim).reference == "f"

    def test_match_agrees_with_per_reference_scores(self):
        index = FingerprintIndex()
        for name, pcs in (("f", {0, 3, 6, 9}), ("g", {0, 3, 7}),
                          ("h", {0, 5, 10}), ("i", {3, 6, 9, 12})):
            index.add_reference(name, pcs)
        victim = FunctionTrace(entry=0x100, pcs=[0x100, 0x103, 0x103,
                                                 0x106, 0x10A])
        scores = [(name, index.score(victim, name))
                  for name in ("f", "g", "h", "i")]
        scores.sort(key=lambda item: item[1], reverse=True)
        assert [(m.reference, m.similarity)
                for m in index.match(victim)] == scores

    def test_rank_victims_view(self):
        victims = [
            ("a", FunctionTrace(entry=0, pcs=[0, 3, 6])),
            ("b", FunctionTrace(entry=0, pcs=[0, 4, 8])),
        ]
        ranked = rank_victims(victims, {0, 3, 6})
        assert ranked[0][0] == "a" and ranked[0][1] == 1.0

    def test_wide_span_traces_are_not_masked(self):
        """A slice may keep a far jump, so the index and
        ``rank_victims`` take arbitrary pcs; a bitmask over a 2**64
        span could not be allocated."""
        far = 1 << 64
        index = FingerprintIndex()
        index.add_reference("far", {0, 3, far})
        index.add_reference("near", {0, 3, 6})
        victim = FunctionTrace(entry=0x100, pcs=[0x100, 0x103, 0x100 + far])
        assert index.score(victim, "far") == 1.0
        assert [(m.reference, m.similarity) for m in index.match(victim)] \
            == [("far", 1.0), ("near", 2 / 3)]
        assert rank_victims([("v", victim)], {0, 3, far}) == [("v", 1.0)]

    def test_empty_index_raises(self):
        with pytest.raises(ValueError):
            FingerprintIndex().best_match(
                FunctionTrace(entry=0, pcs=[0]))


class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(size=60, seed=5)

    def test_size_and_names_unique(self, corpus):
        assert len(corpus) == 60
        assert len({fn.name for fn in corpus}) == 60

    def test_deterministic(self, corpus):
        again = generate_corpus(size=60, seed=5)
        assert [fn.static_pcs for fn in again] == \
            [fn.static_pcs for fn in corpus]

    def test_self_similarity_high(self, corpus):
        sims = [set_similarity(fn.measured, fn.static_pcs)
                for fn in corpus]
        assert sorted(sims)[len(sims) // 2] > 0.9

    def test_cross_similarity_lower(self, corpus):
        rng = random.Random(0)
        cross = []
        for _ in range(100):
            a, b = rng.sample(corpus, 2)
            cross.append(set_similarity(a.measured, b.static_pcs))
        assert sorted(cross)[50] < 0.6

    def test_traces_normalized(self, corpus):
        for fn in corpus[:10]:
            assert all(pc >= -3 for pc in fn.measured)
            assert 0 in fn.static_pcs or min(fn.static_pcs) >= 0

    #: sha256 of ``generate_corpus(size=60, seed=5)`` (names, static
    #: pcs, measured traces, optimisation levels): a speed-up of the
    #: compiler, the assembler or the fusion walk must leave it as is
    CORPUS_DIGEST = ("65c131f3d1329cfe3efc88bca97c9823"
                     "5fe61a6a118d50fe031980db33830de9")

    def test_corpus_digest_is_pinned(self, corpus):
        blob = json.dumps([[fn.name, list(fn.static_pcs),
                            list(fn.measured), fn.opt_level]
                           for fn in corpus], separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() \
            == self.CORPUS_DIGEST


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as it was after the test."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


class TestCorpusCollector:
    """``generate_corpus`` pauses the cyclic collector for its build and
    leaves it as the caller had it, whatever the caller had."""

    @pytest.mark.parametrize("collecting", [True, False])
    def test_state_restored(self, collecting, collector_state,
                            monkeypatch):
        import repro.fingerprint.corpus as corpus_module
        during = []
        run_function = corpus_module.run_function

        def recording(*args, **kwargs):
            during.append(gc.isenabled())
            return run_function(*args, **kwargs)

        monkeypatch.setattr(corpus_module, "run_function", recording)
        (gc.enable if collecting else gc.disable)()
        assert len(generate_corpus(size=3, seed=1)) == 3
        assert gc.isenabled() is collecting
        assert during == [False] * 3

    @pytest.mark.parametrize("collecting", [True, False])
    def test_state_restored_when_the_build_raises(
            self, collecting, collector_state, monkeypatch):
        from repro.lang import Compiler

        def failing(self, module):
            assert not gc.isenabled()
            raise RuntimeError("compiler failed")

        monkeypatch.setattr(Compiler, "compile", failing)
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(RuntimeError, match="compiler failed"):
            generate_corpus(size=3, seed=1)
        assert gc.isenabled() is collecting
