"""End-to-end attack benchmark: NV-S extraction, NV-U leak and
fingerprint corpus (plus certify, outside the default set), with
per-layer timing from outside the program.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0                   # all workloads
    python3 benchmarks/e2e/run.py --workload nvu_leak --seed 1
    python3 benchmarks/e2e/run.py --workload certify --seed 0 --trace 1

Inputs are generated from ``--seed`` in this process, untimed.  Each
measurement runs in a fresh worker process (``worker.py``), one at a
time, so ``setup_s`` includes cold imports and ``peak_rss_mb`` belongs
to one workload.  The load is closed-loop and batch from one caller:
each operation starts when the previous one ended.  A run makes a
fixed number of passes over the inputs, never "as many as fit", so two
commits are always timed on the same samples.

Without ``--trace`` the end-to-end metrics are printed; with it, a
second, traced worker repeats an untraced pass and the per-layer
metrics are printed instead (plus ``spans.jsonl`` and ``layers.txt``
under ``--out``).  The last stdout line is always one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: the workloads of BENCHMARK.json, run by ``--workload all``
WORKLOAD_NAMES = ("nvs_extract", "nvu_leak", "fp_corpus")
#: runnable by name only: not seeded, and four latency samples
EXTRA_WORKLOADS = ("certify",)

#: end-to-end metric name -> unit
METRICS: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "attack_p50_ms": "ms",
    "attack_p90_ms": "ms",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}

#: the ``run_seconds`` of BENCHMARK.json: the run length the workloads'
#: pass counts are sized for
REFERENCE_SECONDS = 30.0
#: a workload's workers still running this long after the workload
#: started are killed and the run fails
WORKLOAD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A worker died or broke its protocol."""


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------
def use_program_source() -> bool:
    """Put ``src/`` on the import path; False (with a message) when the
    program is not there."""
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    # The fast path stays at its default (on); results record it.
    env.pop("NV_FAST_PATH", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(job: dict, deadline: Optional[float] = None
          ) -> Tuple[float, Optional[dict]]:
    """Run one worker; returns (set-up seconds, result).

    The set-up time runs from process start to ``READY``, without the
    probe the worker ran just before, scaled to the reference host's
    speed by that probe.

    The result is None for a set-up-only job.  The worker is killed at
    ``deadline`` (a ``time.monotonic`` instant), by default
    :data:`WORKLOAD_TIMEOUT_S` from now.
    """
    if deadline is None:
        deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
        env=_worker_env(), text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                             proc.kill)
    killer.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        word, _, probe_s = line.partition(" ")
        if word != "READY":
            raise BenchError(f"{job['workload']}: worker failed in set-up")
        setup_s = hostspeed.at_reference(setup_s - float(probe_s),
                                         float(probe_s))
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{job['workload']}: worker exited with {code}")
    if job.get("setup_only"):
        return setup_s, None
    if not lines:
        raise BenchError(f"{job['workload']}: worker printed no result")
    return setup_s, json.loads(lines[-1])


# ----------------------------------------------------------------------
# checking and metrics
# ----------------------------------------------------------------------
def passes_for(name: str, seconds: float) -> int:
    """Passes one run of ``name`` makes.

    The count depends only on ``seconds``, never on how fast the code
    runs: the workload's fixed reference count, scaled from
    :data:`REFERENCE_SECONDS` (at least one pass).
    """
    import workloads

    reference = workloads.WORKLOADS[name].passes
    return max(1, round(reference * seconds / REFERENCE_SECONDS))


def load_golden(seed: int) -> Dict[str, Dict[str, str]]:
    """Committed digests for ``seed``: workload -> item key -> digest
    (empty when none)."""
    path = HERE / "golden" / f"seed{seed}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def digests(items: List[dict]) -> Dict[str, str]:
    """Item key -> output digest."""
    return {item["input"]: item["digest"] for item in items}


def failed_items(items: List[dict], golden: Dict[str, str],
                 reference: Optional[Dict[str, str]] = None) -> List[int]:
    """Indices of items that raised, differ from their key's golden
    digest, or differ from the ``reference`` digest another pass of the
    same run gave (a key missing from it counts as differing)."""
    failed = []
    for index, item in enumerate(items):
        bad = item["error"] is not None
        if item["digest"] != golden.get(item["input"], item["digest"]):
            bad = True
        if (reference is not None
                and item["digest"] != reference.get(item["input"])):
            bad = True
        if bad:
            failed.append(index)
    return failed


def percentile(samples: List[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def scaled(item: dict) -> List[float]:
    """An item's segments at the reference host's speed, each scaled by
    the faster of the two probes at its ends."""
    probes = item["probes"]
    return [hostspeed.at_reference(segment, min(before, after))
            for segment, before, after
            in zip(item["segments"], probes, probes[1:])]


def fastest(passes: List[List[dict]]) -> Dict[str, Tuple[float, dict]]:
    """Per item key: (its time, its item of one pass).

    Every pass times every item once, in a fresh process.  The time is
    taken at the reference host's speed (:func:`scaled`), segment by
    segment, keeping each segment's fastest pass: segment ``j`` covers
    the same work in every pass, so what the probes did not account for
    has to hit that segment in every pass to count.  Passes that cut an
    item differently keep their fastest whole item instead.
    """
    repeats: Dict[str, List[List[float]]] = {}
    first: Dict[str, dict] = {}
    for items in passes:
        for item in items:
            if item["error"] is None:
                repeats.setdefault(item["input"], []).append(scaled(item))
                first.setdefault(item["input"], item)
    best = {}
    for key, runs in repeats.items():
        if len({len(segments) for segments in runs}) == 1:
            time_s = sum(min(column) for column in zip(*runs))
        else:
            time_s = min(sum(segments) for segments in runs)
        best[key] = (time_s, first[key])
    return best


def pass_seconds(result: dict) -> float:
    """One pass's timed calls at the reference host's speed."""
    return sum(sum(scaled(item)) for item in result["items"]
               if item["error"] is None)


def end_to_end(passes: List[dict],
               setup_samples: List[float]) -> Dict[str, float]:
    """Every :data:`METRICS` value of one untraced run's passes."""
    best = fastest([result["items"] for result in passes])
    latencies = [time_s for time_s, item in best.values() if item["attack"]]
    items = [item for result in passes for item in result["items"]]
    total = sum(item["total"] for item in items)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": (sum(item["ops"] for _, item in best.values())
                      / sum(time_s for time_s, _ in best.values())),
        "attack_p50_ms": 1000 * percentile(latencies, 50),
        "attack_p90_ms": 1000 * percentile(latencies, 90),
        "accuracy": (sum(item["correct"] for item in items) / total
                     if total else 0.0),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"]
                                         for result in passes),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    """Generate inputs, run the workers, check outputs, derive metrics."""
    import workloads

    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    inputs = workloads.WORKLOADS[name].generate(seed)
    golden = load_golden(seed).get(name, {})
    job = {"workload": name, "inputs": inputs}
    if not trace:
        # a set-up-only worker before each pass spreads the set-up
        # samples over the whole run
        setups, passes = [], []
        for _ in range(passes_for(name, seconds)):
            setups.append(spawn(dict(job, setup_only=True), deadline)[0])
            setup_s, result = spawn(job, deadline)
            setups.append(setup_s)
            passes.append(result)
        first = passes[0]["items"]
        if all(item["error"] is not None for item in first):
            raise BenchError(f"{name}: every operation raised, e.g. "
                             f"{first[0]['error']}")
        failed = sum(
            len(failed_items(result["items"], golden,
                             digests(first) if index else None))
            for index, result in enumerate(passes))
        metrics = end_to_end(passes, setups)
        restored = True
    else:
        # one pass untraced, then the same pass traced
        _, untraced = spawn(job, deadline)
        _, result = spawn(dict(job, trace=True,
                               spans_path=str(out_dir / "spans.jsonl")),
                          deadline)
        passes = [untraced, result]
        failed = (len(failed_items(untraced["items"], golden))
                  + len(failed_items(result["items"], golden,
                                     digests(untraced["items"]))))
        metrics = dict(result["layers"])
        metrics["trace_overhead"] = (pass_seconds(result)
                                     / pass_seconds(untraced) - 1)
        restored = result["restored"]
    attempted = sum(len(result["items"]) for result in passes)
    best = fastest([result["items"] for result in passes])
    return {
        "workload": name, "seed": seed, "trace": trace,
        "fast_path": result["fast_path"], "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "correct": not failed and restored and attempted > 0,
        "restored": restored, "metrics": metrics,
        "latency_samples": sum(1 for _, item in best.values()
                               if item["attack"]),
        "segments": sum(len(item["segments"]) for _, item in best.values()),
        "host_speed": statistics.median(
            [hostspeed.REFERENCE_PROBE_S / probe_s for result in passes
             for item in result["items"] for probe_s in item["probes"] or ()]
            or [0.0]),
        "victim_runs": [item["victim_runs"] for item in passes[0]["items"]
                        if item["victim_runs"]],
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_summary(summary: dict) -> None:
    print(f"{summary['workload']}: seed={summary['seed']} "
          f"fast_path={'on' if summary['fast_path'] else 'off'} "
          f"passes={summary['passes']} attempted={summary['attempted']} "
          f"failed={summary['failed']}")
    if summary["trace"]:
        return
    for name, value in summary["metrics"].items():
        print(f"  {name:<14} {value:14.6g} {METRICS[name]}")
    print(f"  {'error_rate':<14} "
          f"{summary['failed'] / summary['attempted']:14.6g} fraction")
    if summary["victim_runs"]:
        print(f"  {'victim_runs':<14} "
              f"{statistics.median(summary['victim_runs']):14.6g} count")
    print(f"  (times at the reference host's speed: this host ran at "
          f"{summary['host_speed']:.3f} of it by the median probe; setup_s: "
          f"median of {2 * summary['passes']} set-ups; {summary['segments']} "
          f"timed segments, each its fastest of {summary['passes']} passes; "
          f"attack latency percentiles over {summary['latency_samples']} "
          f"samples)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end attack benchmark (see README.md).")
    parser.add_argument("--workload",
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",),
                        default="all",
                        help="all: the workloads of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: 0 for development, 1 held out")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="run length; scales each workload's fixed "
                        "pass count, whose reference length is "
                        f"{REFERENCE_SECONDS:g} s")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=str(HERE / "runs"),
                        help="directory for spans.jsonl and layers.txt")
    args = parser.parse_args(argv)

    if not use_program_source():
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    out_dir = Path(args.out)
    if args.trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "spans.jsonl").write_text("", encoding="utf-8")

    summaries = []
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), out_dir)
        except BenchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print_summary(summary)
        summaries.append(summary)

    if args.trace:
        from tracing import LAYER_UNITS, format_table
        units = dict(LAYER_UNITS, trace_overhead="fraction")
        table = format_table({s["workload"]: s["metrics"]
                              for s in summaries}, units)
        print(table)
        (out_dir / "layers.txt").write_text(table + "\n", encoding="utf-8")
    else:
        units = METRICS
    # one workload: plain metric names; several: prefixed by workload
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{name}" if prefix else name):
                {"value": value, "unit": units[name]}
            for s in summaries for name, value in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
