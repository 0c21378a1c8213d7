"""Cross-layer integration: the paper's two use cases end-to-end on
small instances, plus invariants tying the layers together."""

import pytest

from repro.cpu import generation
from repro.experiments import extract_victim_function
from repro.experiments.exp_versions import (measured_function_pcs,
                                            reference_pcs,
                                            run_figure13_optlevels,
                                            run_figure13_versions,
                                            version_groups)
from repro.fingerprint import generate_corpus, set_similarity
from repro.lang import CompileOptions
from repro.victims import build_gcd_victim
from repro.victims.library import ENCLAVE_DATA_BASE


@pytest.fixture(scope="module")
def gcd_artifacts():
    config = generation("coffeelake")
    victim = build_gcd_victim(
        "3.0", options=CompileOptions(opt_level=2), nlimbs=1,
        with_yield=False, data_base=ENCLAVE_DATA_BASE)
    return extract_victim_function(victim, {"ta": 20, "tb": 12},
                                   config)


class TestUseCase2:
    def test_extraction_self_similarity(self, gcd_artifacts):
        assert gcd_artifacts.self_similarity > 0.7

    def test_reference_beats_small_corpus(self, gcd_artifacts):
        corpus = generate_corpus(size=80, seed=3)
        best_corpus = max(
            set_similarity(gcd_artifacts.normalized, fn.static_pcs)
            for fn in corpus)
        assert gcd_artifacts.self_similarity > best_corpus

    def test_trace_is_nonempty_and_normalized(self, gcd_artifacts):
        assert len(gcd_artifacts.normalized) > 5
        assert min(gcd_artifacts.normalized) == 0


class TestFigure13Small:
    def test_version_block_structure(self):
        matrix = run_figure13_versions(
            versions=("2.5", "2.7", "2.16", "3.0"),
            inputs={"ta": 270, "tb": 192})
        groups = version_groups()
        assert matrix.diagonal_min() > 0.85
        assert matrix.value("2.5", "2.7") > 0.85       # same source
        assert matrix.value("2.5", "2.16") < \
            matrix.value("2.5", "2.7")                 # cross-group
        assert matrix.off_diagonal_max(groups) < \
            matrix.diagonal_min()

    def test_optlevel_degradation(self):
        matrix = run_figure13_optlevels(
            inputs={"ta": 270, "tb": 192})
        assert matrix.diagonal_min() > 0.85
        assert matrix.off_diagonal_max() < matrix.diagonal_min()


class TestMeasurementVsExtraction:
    def test_corpus_model_agrees_with_nv_s(self):
        """The cheap corpus measurement model and a real NV-S
        extraction must produce near-identical PC sets for the same
        function (fusion model shared)."""
        config = generation("coffeelake")
        victim = build_gcd_victim(
            "3.0", options=CompileOptions(opt_level=2), nlimbs=1,
            with_yield=False, data_base=ENCLAVE_DATA_BASE)
        inputs = {"ta": 20, "tb": 12}
        modeled = set(measured_function_pcs(
            victim, inputs, error_rate=0.0, drop_rate=0.0))
        artifacts = extract_victim_function(victim, inputs, config)
        extracted = set(artifacts.normalized)
        # The sliced NV-S invocation is a *fragment* of the function
        # (the call/ret heuristic splits at far intra-function jumps),
        # so it must be (almost) contained in the modeled trace.
        containment = len(extracted & modeled) / len(extracted)
        assert containment > 0.9


class TestCrossVictimConfusion:
    def test_gcd_versions_distinguishable_via_nv_s_reference(self):
        inputs = {"ta": 270, "tb": 192}
        victim_a = build_gcd_victim("2.5", nlimbs=2, with_yield=False)
        victim_b = build_gcd_victim("2.16", nlimbs=2,
                                    with_yield=False)
        measured_a = measured_function_pcs(victim_a, inputs)
        assert set_similarity(measured_a, reference_pcs(victim_a)) > \
            set_similarity(measured_a, reference_pcs(victim_b))
