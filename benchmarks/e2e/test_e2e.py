"""Tests of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e -q``.  Each workload runs one pass
in-process at a small size, once untraced and once traced; the
assertions cover the metric set against ``BENCHMARK.json``,
determinism, seeding, tracing faithfulness, where each traced boundary
fires, and how repeated passes are reduced to one time.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: small inputs per workload
SMALL = {
    "nvs_extract": lambda: workloads.generate_nvs(0),
    "nvu_leak": lambda: workloads.generate_nvu(0, keys=3),
    "fp_corpus": lambda: workloads.generate_fp(0, size=40, picks=5),
    "certify": lambda: workloads.generate_certify(
        0, victims=("bn_cmp", "bignum")),
}

#: traced boundaries that must fire (calls > 0) / stay silent (== 0)
FIRES = {
    "nvs_extract": ("sgx.SgxStepper.step.calls", "cpu.Core.run.calls",
                    "core.NvCore.monitor.calls",
                    "isa.AssembledProgram.load_into.calls",
                    "system.Kernel.run_slice.calls"),
    "nvu_leak": ("cpu.BTB.lookup.calls", "cpu.build_superblock.calls",
                 "cpu.interp.calls", "core.NvCore.monitor.calls"),
    "fp_corpus": ("fingerprint.set_similarity.calls", "cpu.interp.calls",
                  "lang.Compiler.compile.calls"),
    "certify": ("analysis.symbolic.solve_bit.calls", "cpu.interp.calls",
                "lang.Compiler.compile.calls"),
}
SILENT = {
    "nvs_extract": ("analysis.symbolic.solve_bit.calls",
                    "fingerprint.set_similarity.calls", "cpu.interp.calls"),
    "nvu_leak": ("sgx.SgxStepper.step.calls",
                 "analysis.symbolic.solve_bit.calls",
                 "fingerprint.set_similarity.calls"),
    "fp_corpus": ("cpu.Core.run.calls", "sgx.SgxStepper.step.calls",
                  "analysis.symbolic.solve_bit.calls"),
    "certify": ("sgx.SgxStepper.step.calls", "core.NvCore.monitor.calls",
                "fingerprint.set_similarity.calls"),
}


@pytest.fixture(scope="module", params=list(SMALL))
def runs(request):
    """(workload, untraced result, traced result) at the small size."""
    name = request.param
    inputs = json.loads(json.dumps(SMALL[name]()))  # what a worker receives
    untraced = worker.execute(name, inputs)
    traced = worker.execute(name, inputs, trace=True)
    return name, untraced, traced


def _benchmark_json():
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_the_emitted_metrics():
    spec = _benchmark_json()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == run.REFERENCE_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.METRICS
    layers = dict(tracing.LAYER_UNITS, trace_overhead="fraction")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_is_emitted_with_a_value(runs):
    name, untraced, traced = runs
    metrics = run.end_to_end([untraced], [0.5])
    assert set(metrics) == set(run.METRICS)
    for metric, value in metrics.items():
        assert math.isfinite(value) and value > 0, (name, metric)
    assert set(traced["layers"]) == set(tracing.LAYER_UNITS)
    assert untraced["fast_path"] is True


def test_deterministic_outputs_and_faithful_tracing(runs):
    name, untraced, traced = runs
    assert [i["error"] for i in untraced["items"]] == \
        [None] * len(untraced["items"])
    assert [i["digest"] for i in traced["items"]] == \
        [i["digest"] for i in untraced["items"]]
    assert run.end_to_end([traced], [1.0])["accuracy"] == \
        run.end_to_end([untraced], [1.0])["accuracy"]
    assert run.failed_items(traced["items"], {},
                            run.digests(untraced["items"])) == []
    assert traced["restored"] is True


def test_segments_partition_each_call_between_probes(runs):
    name, untraced, traced = runs
    for item in untraced["items"]:
        assert min(item["segments"]) >= 0
        assert sum(item["segments"]) == pytest.approx(item["seconds"])
        assert len(item["probes"]) == len(item["segments"]) + 1
        assert min(item["probes"]) > 0
    cut = [item for item in untraced["items"] if len(item["segments"]) > 1]
    assert bool(cut) == (name in ("nvs_extract", "fp_corpus"))
    # the same work is cut into the same segments with tracing on
    assert [len(item["segments"]) for item in traced["items"]] == \
        [len(item["segments"]) for item in untraced["items"]]


def test_boundaries_fire_where_expected(runs):
    name, _, traced = runs
    layers = traced["layers"]
    for metric in FIRES[name]:
        assert layers[metric] > 0, (name, metric)
    for metric in SILENT[name]:
        assert layers[metric] == 0, (name, metric)


def test_self_times_partition_wall_time(runs):
    _, _, traced = runs
    for metric, value in traced["layers"].items():
        if metric.endswith("_s"):
            assert value >= 0, metric
    assert 0 < traced["self_s_total"] <= traced["traced_wall_s"] * 1.000001


def test_wrappers_are_restored():
    from repro.cpu.btb import BTB
    from repro.cpu.core import Core
    from repro.fingerprint import corpus, similarity
    from repro.sgx.sgxstep import SgxStepper

    before = (Core.run, BTB.lookup, similarity.set_similarity)
    tracer = tracing.Tracer()
    tracer.install()
    assert Core.run is not before[0]
    assert tracer.uninstall() is True
    assert (Core.run, BTB.lookup, similarity.set_similarity) == before

    clocked = (vars(SgxStepper)["step"], corpus.run_function)
    for clock in (workloads.NVS_CLOCK, workloads.FP_CLOCK):
        with clock.cutting():
            assert (vars(SgxStepper)["step"], corpus.run_function) != clocked
    assert (vars(SgxStepper)["step"], corpus.run_function) == clocked


def test_seed_changes_inputs():
    for name in ("nvs_extract", "nvu_leak", "fp_corpus"):
        generate = workloads.WORKLOADS[name].generate
        assert generate(0) != generate(1), name
        assert generate(0) == generate(0), name


def test_golden_mismatch_and_errors_count_as_failures():
    def item(key, digest, error=None):
        return {"input": key, "digest": digest, "error": error}

    items = [item("a", "1"), item("b", "2"),
             item("c", "error", "ValueError: x"), item("d", "9")]
    assert run.failed_items(items, {"a": "1", "b": "x"}) == [1, 2]
    # inputs without a golden digest are checked for exceptions only
    assert run.failed_items(items[:2], {}) == []
    # a later pass must repeat the first pass's outputs
    assert run.failed_items(items, {}, {"a": "1", "b": "2", "c": "error"}) \
        == [2, 3]


def test_goldens_cover_every_item_of_a_pass():
    for seed in (0, 1):
        golden = run.load_golden(seed)
        picks = workloads.generate_fp(seed)["picks"]
        assert set(golden["nvs_extract"]) == {"pair"}
        assert set(golden["nvu_leak"]) == {
            key for i in range(100) for key in (f"key{i}", f"key{i}:truth")}
        assert set(golden["fp_corpus"]) == {"corpus"} | {
            f"corpus:{pick}" for pick in picks}
        assert set(golden["certify"]) == set(workloads.CERTIFY_VICTIMS)


def test_run_length_is_a_fixed_pass_count():
    for name, spec in workloads.WORKLOADS.items():
        assert run.passes_for(name, run.REFERENCE_SECONDS) == spec.passes
        assert run.passes_for(name, 0.1) == 1


def test_each_item_keeps_its_fastest_pass_segment_by_segment():
    ref = hostspeed.REFERENCE_PROBE_S

    def item(key, seconds, segments=None, ops=10, attack=True):
        segments = segments or [seconds]
        return {"input": key, "seconds": seconds, "segments": segments,
                "probes": [ref] * (len(segments) + 1), "ops": ops,
                "attack": attack, "correct": 1.0, "total": 1, "error": None}

    # three passes; slow spells hit different parts of "a" and of "b"
    passes = [
        {"items": [item("a", 3.0, [2.0, 1.0]), item("b", 1.0),
                   item("t", 2.0, ops=0, attack=False)],
         "peak_rss_mb": 1.0},
        {"items": [item("a", 2.5, [0.5, 2.0]), item("b", 1.5),
                   item("t", 1.0, ops=0, attack=False)],
         "peak_rss_mb": 3.0},
        {"items": [item("a", 4.0, [1.0, 3.0]), item("b", 2.0),
                   item("t", 1.5, ops=0, attack=False)],
         "peak_rss_mb": 2.0},
    ]
    best = run.fastest([result["items"] for result in passes])
    assert {key: time_s for key, (time_s, _) in best.items()} == \
        {"a": 1.5, "b": 1.0, "t": 1.0}
    metrics = run.end_to_end(passes, [0.2, 0.4, 0.3])
    assert metrics["ops_per_s"] == pytest.approx(20 / 3.5)
    # the latency samples are the attack items only: a and b
    assert metrics["attack_p50_ms"] == pytest.approx(1250.0)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["peak_rss_mb"] == 2.0
    # segment counts that disagree fall back to whole calls
    passes[1]["items"][0].update(segments=[2.5], probes=[ref, ref])
    best = run.fastest([result["items"] for result in passes])
    assert best["a"][0] == 2.5


def test_times_are_scaled_by_the_probes_beside_them():
    ref = hostspeed.REFERENCE_PROBE_S
    # the host ran at half speed around the first segment: the faster
    # of the two probes at a segment's ends scales it
    item = {"segments": [2.0, 1.0], "probes": [2 * ref, 3 * ref, ref]}
    assert run.scaled(item) == pytest.approx([1.0, 1.0])
    assert hostspeed.at_reference(1.0, ref) == 1.0
    assert hostspeed.probe() > 0


def test_cli_refuses_to_run_without_program_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "certify", "--seed", "0"]) == 2
