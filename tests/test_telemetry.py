"""The telemetry subsystem: sink semantics, canonical serialisation,
the determinism contract (same seed -> byte-identical trace), the
reconciliation of trace events with the differential analysis, the
perf suite's overhead and per-side gates (``benchmarks/perf/suite.py``,
loaded by path), and the ``repro stats`` / ``repro trace`` CLI
subcommands."""

import importlib.util
import json
import sys
from pathlib import Path

from repro import telemetry
from repro.analysis.differential import false_hit_blocks, observe_run
from repro.experiments.common import RunRequest, run_experiment
from repro.victims.library import build_bn_cmp_victim

_SPEC = importlib.util.spec_from_file_location(
    "perf_suite",
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    / "suite.py")
suite = importlib.util.module_from_spec(_SPEC)
assert _SPEC.loader is not None
sys.modules[_SPEC.name] = suite      # dataclasses resolve it by name
_SPEC.loader.exec_module(suite)


# ----------------------------------------------------------------------
# sink semantics
# ----------------------------------------------------------------------
def test_count_accumulates_and_emit_counts():
    sink = telemetry.TelemetrySink()
    sink.count("a.b", 2)
    sink.count("a.b")
    sink.emit("c.d", {"x": 1})
    assert sink.counters == {"a.b": 3, "c.d": 1}


def test_trace_off_keeps_no_events_but_seq_advances():
    sink = telemetry.TelemetrySink()
    sink.emit("c.d", {"x": 1})
    assert sink.events == []
    traced = telemetry.TelemetrySink(trace=True)
    traced.emit("c.d", {"x": 1})
    traced.emit("c.d")
    assert traced.events == [{"seq": 0, "ev": "c.d", "x": 1},
                             {"seq": 1, "ev": "c.d"}]


def test_module_guards_are_noops_when_disabled():
    assert telemetry.current() is None
    telemetry.count("never", 5)        # must not raise without a sink
    telemetry.emit("never", {"x": 1})
    assert telemetry.current() is None


def test_session_installs_restores_and_nests():
    assert telemetry.current() is None
    with telemetry.session() as outer:
        assert telemetry.current() is outer
        outer.count("outer.only")
        with telemetry.session(trace=True) as inner:
            assert telemetry.current() is inner
            inner.count("inner.only")
        assert telemetry.current() is outer
    assert telemetry.current() is None
    assert "inner.only" not in outer.counters
    assert "outer.only" not in inner.counters


def test_registered_sources_fold_once_and_skip_zeros():
    sink = telemetry.TelemetrySink()
    totals = {"cpu.btb.lookups": 7, "cpu.btb.evictions": 0}
    sink.register(lambda: totals)
    sink.finalize()
    sink.finalize()                    # idempotent
    assert sink.counters == {"cpu.btb.lookups": 7}
    assert sink.snapshot() == {"cpu.btb.lookups": 7}


def test_span_is_wall_clock_only_never_a_counter():
    sink = telemetry.TelemetrySink()
    with sink.span("phase"):
        pass
    with sink.span("phase"):
        pass
    calls, total = sink.timings["phase"]
    assert calls == 2
    assert total >= 0.0
    assert "phase" not in sink.counters


# ----------------------------------------------------------------------
# canonical serialisation
# ----------------------------------------------------------------------
def test_render_trace_is_canonical_jsonl():
    sink = telemetry.TelemetrySink(trace=True)
    sink.emit("b.a", {"z": 1, "a": 2})
    text = telemetry.render_trace(sink)
    assert text == '{"a":2,"ev":"b.a","seq":0,"z":1}\n'
    assert len(telemetry.trace_digest(sink)) == 64


def test_counters_digest_is_order_insensitive():
    assert (telemetry.counters_digest({"a": 1, "b": 2})
            == telemetry.counters_digest({"b": 2, "a": 1}))
    assert (telemetry.counters_digest({"a": 1})
            != telemetry.counters_digest({"a": 2}))


def test_render_stats_deterministic_and_timings_opt_in():
    sink = telemetry.TelemetrySink()
    sink.count("x.y", 3)
    with sink.span("phase"):
        pass
    plain = telemetry.render_stats(sink)
    assert "x.y" in plain
    assert "stats digest:" in plain
    assert "wall clock" not in plain
    timed = telemetry.render_stats(sink, timings=True)
    assert "wall clock" in timed
    assert timed.startswith(plain.rstrip("\n"))


# ----------------------------------------------------------------------
# the determinism contract, end to end
# ----------------------------------------------------------------------
def _observe_fig2(seed=7):
    with telemetry.session(trace=True) as sink:
        run_experiment("fig2", RunRequest(fast=True, seed=seed))
    return sink


def test_trace_is_byte_stable_under_fixed_seed():
    first = _observe_fig2()
    second = _observe_fig2()
    assert (telemetry.render_trace(first)
            == telemetry.render_trace(second))
    assert (telemetry.trace_digest(first)
            == telemetry.trace_digest(second))
    assert first.snapshot() == second.snapshot()


def test_fig2_counters_cover_every_layer():
    sink = _observe_fig2()
    counters = sink.snapshot()
    assert counters["exp.runs"] == 1
    assert counters["cpu.btb.lookups"] > 0
    assert counters["cpu.core.runs"] > 0
    assert counters["cpu.decode.window_builds"] > 0
    assert "exp.fig2" in sink.timings


def test_false_hit_events_reconcile_with_differential_counts():
    """The acceptance criterion: the trace's false-hit events ARE the
    Takeaway-1 deallocation record, and they reconcile exactly with
    the counters and with the analysis.differential extraction."""
    sink = _observe_fig2()
    events = [event for event in sink.events
              if event["ev"] == "cpu.core.false_hit"]
    assert events                             # fig2 drives real deallocs
    counters = sink.snapshot()
    assert counters["cpu.core.false_hit"] == len(events)
    # Every false hit deallocates exactly one entry.
    assert counters["cpu.btb.deallocations"] >= len(events)
    # The differential extraction sees the same population.
    blocks = false_hit_blocks(sink.events)
    assert blocks
    assert len(blocks) <= len(events)         # set-dedup only shrinks
    charged = sum(1 for event in events if event["charged"])
    assert counters.get("cpu.core.squashes", 0) >= charged


def test_observe_run_is_isolated_from_outer_sessions():
    """analysis.differential opens its own tracing session, so its
    victim's events never leak into (or read from) the caller's."""
    victim = build_bn_cmp_victim()
    with telemetry.session(trace=True) as outer:
        observation = observe_run(victim, {"a": 99, "b": 77})
    assert observation.insertions              # the victim did report
    assert outer.events == []                  # ...but not to us
    assert "cpu.btb.lookups" not in outer.counters


# ----------------------------------------------------------------------
# perf-suite overhead gate
# ----------------------------------------------------------------------
def test_measure_telemetry_overhead_payload_shape():
    info = suite.measure_telemetry_overhead(quick=True)
    assert info["work"] > 0
    assert info["disabled_seconds"] > 0
    assert info["enabled_seconds"] > 0
    assert isinstance(info["counters"], dict)
    assert info["counters"].get("cpu.core.runs", 0) >= 1


def test_check_telemetry_overhead_gate():
    check_telemetry_overhead = suite.check_telemetry_overhead
    ok = {"telemetry": {"overhead": 0.01}}
    over = {"telemetry": {"overhead": 0.10}}
    assert check_telemetry_overhead(ok) == []
    assert check_telemetry_overhead(over)
    assert "exceeds" in check_telemetry_overhead(over)[0]
    assert check_telemetry_overhead({})       # section missing -> fail
    assert check_telemetry_overhead(over, threshold=0.5) == []


# ----------------------------------------------------------------------
# perf-suite per-side gate
# ----------------------------------------------------------------------
def _report(slow_rate, fast_rate):
    return {"schema": suite.SCHEMA_VERSION,
            "benchmarks": {"interp_straightline": {
                "unit": "instructions", "slow_rate": slow_rate,
                "fast_rate": fast_rate}}}


def test_perf_gate_fails_a_slower_fast_side():
    failures = suite.compare_to_baseline(_report(300e3, 690e3),
                                         _report(300e3, 1e6))
    assert len(failures) == 1
    assert "interp_straightline: fast side" in failures[0]


def test_perf_gate_fails_a_slower_slow_side():
    failures = suite.compare_to_baseline(_report(210e3, 1e6),
                                         _report(300e3, 1e6))
    assert len(failures) == 1
    assert "interp_straightline: slow side" in failures[0]


def test_perf_gate_passes_a_faster_slow_side():
    """A faster reference loop lowers the speedup ratio (3.33x to
    2.56x here) but slows nothing down, so the gate passes it."""
    assert suite.compare_to_baseline(_report(400e3, 1.025e6),
                                     _report(300e3, 1e6)) == []


def test_perf_gate_needs_a_probe_scaled_baseline():
    old = _report(300e3, 1e6)
    old["schema"] = 2
    failures = suite.compare_to_baseline(_report(300e3, 1e6), old)
    assert failures and "schema 2" in failures[0]


# ----------------------------------------------------------------------
# CLI: repro stats / repro trace
# ----------------------------------------------------------------------
def test_cli_trace_is_byte_stable(tmp_path, capsys):
    from repro.cli import main
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(["trace", "fig2", "--fast", "--seed", "7",
                 "--out", str(first)]) == 0
    assert main(["trace", "fig2", "--fast", "--seed", "7",
                 "--out", str(second)]) == 0
    out = capsys.readouterr().out
    assert "trace digest:" in out
    payload = first.read_bytes()
    assert payload == second.read_bytes()
    # every line is a canonical JSON object carrying seq + ev
    for line in payload.decode().splitlines():
        record = json.loads(line)
        assert "seq" in record and "ev" in record


def test_cli_trace_stdout_mode(capsys):
    from repro.cli import main
    assert main(["trace", "fig2", "--fast", "--seed", "7",
                 "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()
    assert json.loads(out.splitlines()[0])["seq"] == 0


def test_cli_stats_artifact_is_deterministic(tmp_path, capsys):
    from repro.cli import main
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert main(["stats", "fig2", "--fast", "--seed", "7",
                 "--out", str(first)]) == 0
    assert main(["stats", "fig2", "--fast", "--seed", "7",
                 "--out", str(second), "--timings"]) == 0
    out = capsys.readouterr().out
    assert "stats digest:" in out
    assert "wall clock" in out              # --timings on the console...
    assert first.read_bytes() == second.read_bytes()   # ...never in --out
    assert "wall clock" not in first.read_text()


def test_cli_stats_unknown_experiment(capsys):
    from repro.cli import main
    assert main(["stats", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


# ----------------------------------------------------------------------
# counter-snapshot merging (the service's cross-shard aggregation)
# ----------------------------------------------------------------------
def _random_snapshots(seed, count=6):
    import random
    rng = random.Random(seed)
    names = ["btb.hits", "btb.misses", "probe.rounds", "lbr.reads"]
    return [
        {name: rng.randrange(0, 1000)
         for name in rng.sample(names, rng.randrange(1, len(names)))}
        for _ in range(count)
    ]


def test_merge_counters_is_commutative_and_associative():
    import itertools
    for seed in range(8):
        snapshots = _random_snapshots(seed, count=4)
        reference = telemetry.merge_counters(*snapshots)
        # commutativity: every permutation merges identically
        for order in itertools.permutations(snapshots):
            assert telemetry.merge_counters(*order) == reference
        # associativity: any grouping merges identically
        left = telemetry.merge_counters(
            telemetry.merge_counters(snapshots[0], snapshots[1]),
            snapshots[2], snapshots[3])
        right = telemetry.merge_counters(
            snapshots[0], telemetry.merge_counters(
                snapshots[1], snapshots[2], snapshots[3]))
        assert left == right == reference


def test_merge_counters_digest_stability():
    for seed in range(4):
        snapshots = _random_snapshots(seed)
        forward = telemetry.merge_counters(*snapshots)
        backward = telemetry.merge_counters(*reversed(snapshots))
        assert (telemetry.counters_digest(forward)
                == telemetry.counters_digest(backward))


def test_merge_counters_identity_and_empty():
    assert telemetry.merge_counters() == {}
    assert telemetry.merge_counters({}, {"a": 1}, {}) == {"a": 1}
    assert telemetry.merge_counters({"a": 1}, {"a": 2}) == {"a": 3}
    # output is sorted by name for canonical JSON stability
    merged = telemetry.merge_counters({"z": 1, "a": 1})
    assert list(merged) == ["a", "z"]


def test_merge_counters_never_sees_spans():
    """Spans are wall clock and excluded from worker snapshots; a
    merged aggregate digest therefore stays seed-stable."""
    with telemetry.session() as sink:
        telemetry.count("merge.me", 2)
        with sink.span("wall.clock"):
            pass
    snapshot = sink.snapshot()
    assert "merge.me" in snapshot
    assert all("wall.clock" not in name for name in snapshot)
    merged = telemetry.merge_counters(snapshot, snapshot)
    assert merged["merge.me"] == 4
    assert all("wall.clock" not in name for name in merged)
