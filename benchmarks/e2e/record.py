"""Regenerate the benchmark's committed reference files.

Usage (from the repository root)::

    python3 benchmarks/e2e/record.py golden --seed 0 --seed 1
    python3 benchmarks/e2e/record.py baseline

``golden`` runs two passes of every workload and writes
``golden/seed<N>.json``: one digest per timed call of a pass.  It
refuses to write one when the two passes disagree.  Rerun it only when
a change is meant to alter the outputs.

``baseline`` measures two sets of :data:`RUNS_PER_SET` untraced
reference runs on seed 0, alternating between the sets run by run, and
writes ``baseline_seed0.json`` with each metric's per-set median and
quartiles, so a later change can see each metric's noise next to its
bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys

import run

#: untraced runs in each of the baseline's two sets
RUNS_PER_SET = 5


def record_golden(seeds) -> None:
    import workloads

    for seed in seeds:
        digests = {}
        for name in run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS:
            job = {"workload": name,
                   "inputs": workloads.WORKLOADS[name].generate(seed)}
            first, second = (run.spawn(job)[1]["items"] for _ in range(2))
            for item in first:
                if item["error"] is not None:
                    raise SystemExit(f"{name} seed {seed}: {item['error']}")
            found = digests[name] = run.digests(first)
            if found != run.digests(second):
                raise SystemExit(f"{name} seed {seed}: two passes gave "
                                 "different outputs")
            print(f"seed {seed} {name}: {len(found)} digests", flush=True)
        path = run.HERE / "golden" / f"seed{seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": seed, "workloads": digests},
                                   indent=1) + "\n", encoding="utf-8")


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def record_baseline() -> None:
    sets = {"A": {}, "B": {}}
    samples = {}
    for index in range(RUNS_PER_SET):
        for label, results in sets.items():
            for name in run.WORKLOAD_NAMES:
                summary = run.run_workload(name, 0, run.REFERENCE_SECONDS,
                                           False, run.HERE / "runs")
                if not summary["correct"]:
                    raise SystemExit(f"{name}: incorrect output")
                samples[name] = {key: summary[key] for key in
                                 ("passes", "latency_samples", "segments")}
                for metric, value in summary["metrics"].items():
                    results.setdefault(name, {}).setdefault(
                        metric, []).append(value)
            print(f"run {index + 1}/{RUNS_PER_SET} set {label} done",
                  flush=True)
    table = {}
    for name in run.WORKLOAD_NAMES:
        table[name] = dict(samples[name])
        for metric, unit in run.METRICS.items():
            entry = {"unit": unit}
            for label, results in sets.items():
                values = results[name][metric]
                q1, q3 = _quartiles(values)
                entry[label] = {"median": statistics.median(values),
                                "q1": q1, "q3": q3, "runs": values}
            table[name][metric] = entry
    payload = {
        "seed": 0, "seconds": run.REFERENCE_SECONDS,
        "runs_per_set": RUNS_PER_SET,
        "host": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "python": platform.python_version(),
        "workloads": table,
    }
    path = run.HERE / "baseline_seed0.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    golden = commands.add_parser("golden")
    golden.add_argument("--seed", type=int, action="append", required=True)
    commands.add_parser("baseline")
    args = parser.parse_args(argv)
    if not run.use_program_source():
        return 2
    if args.command == "golden":
        record_golden(args.seed)
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
