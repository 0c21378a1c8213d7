"""Perf-regression microbenchmark suite for the simulator's hot loops.

Run from the repository root::

    python benchmarks/perf/suite.py [--quick] [--out BENCH_perf.json] \
        [--compare benchmarks/baselines/BENCH_perf_baseline.json]

Five workloads cover the simulator's hot loops:

* ``interp_straightline`` — the functional oracle on a long
  straight-line ALU loop (the decoded-window fast path's best case);
* ``core_loop`` — the cycle-accounted core on the same kind of loop
  (fast path plus full BTB/LBR/fusion machinery);
* ``core_traversal_e2e`` — a complete GCD-victim run through
  ``Core.run`` with trace collection, the paper's Figure 10/12 shape;
* ``many_seeds`` — N seeds of the GCD victim run one after another,
  each a plain ``Core.run`` loop; on the fast side the seeds share the
  victim's decodes and windows through its code images;
* ``campaign_smoke`` — one registered experiment end-to-end
  (``fig2``), i.e. the unit of work campaigns multiply.

Each workload runs both sides — decoded-window fast path forced *off*
and forced *on*.  The slow side is not only a control: a
single-stepped enclave runs without superblocks (the SGX access filter
turns them off), so the reference machinery is part of what an NV-S
attack costs.  Every side takes one untimed warmup run; then the
timed rounds go round-robin over the workloads, each alternating the
sides (slow, fast), and each side keeps best-of-K (recorded as
``{median, min, runs}``).

The host's speed drifts, so every timed sample is scaled to the
reference host's speed by the pure-Python probe of
``benchmarks/e2e/hostspeed.py``, the normaliser the end-to-end
benchmark applies to its segments.  The gate then holds each side's
probe-scaled rate to its own baseline: a slower fast path fails the
fast side, a slower reference loop fails the slow side, and a change
that speeds up one side passes.

``run_suite`` returns a JSON-ready payload; ``write_report`` persists
it through the crash-safe atomic writer; ``compare_to_baseline`` and
``check_telemetry_overhead`` are the regression gates of the
``perf-smoke`` CI job.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent / "e2e"))

import hostspeed  # noqa: E402
from repro import telemetry  # noqa: E402
from repro.cpu import (Core, MachineState, StopReason,  # noqa: E402
                       fast_path_enabled, interpret, set_fast_path)
from repro.cpu.config import DEFAULT_GENERATION  # noqa: E402
from repro.isa.assembler import Assembler  # noqa: E402
from repro.memory.memory import VirtualMemory  # noqa: E402

#: bump when the payload layout changes incompatibly.
#: v2: per-side ``{median, min, runs}`` timing records (best-of-K with
#: warmup) and the ``many_seeds`` workload.
#: v3: timings and rates scaled to the reference host's speed by the
#: host-speed probe; the gate reads each side's rate.
SCHEMA_VERSION = 3

#: a side's probe-scaled rate may fall this far below its baseline
THRESHOLD = 0.25

#: timed rounds per side.  On a 2-vCPU VM, best-of-2 probe-scaled
#: samples of a quick workload fell up to 33 % below their median
#: over repeated runs, best-of-4 at most 9 %.
ROUNDS = 4

#: budget for telemetry-enabled runtime overhead on the core hot loop.
#: Disabled mode does strictly less work at every instrumentation site
#: (a single ``is None`` check at most), so gating the *enabled* cost
#: below this bound also bounds the disabled cost from above.
TELEMETRY_THRESHOLD = 0.03


def _side_payload(runs: List[float]) -> Dict[str, object]:
    return {
        "median": round(statistics.median(runs), 6),
        "min": round(min(runs), 6),
        "runs": [round(sample, 6) for sample in runs],
    }


@dataclass
class BenchResult:
    """One workload and its paired (slow, fast) best-of-K measurement,
    in seconds at the reference host's speed."""

    name: str
    unit: str                 # what ``work`` counts
    workload: Callable[[], int]   # one run; returns its work items
    work: int = 0             # work items per measured run
    slow_runs: List[float] = field(default_factory=list)  # fast path off
    fast_runs: List[float] = field(default_factory=list)  # fast path on

    @property
    def slow_seconds(self) -> float:
        return min(self.slow_runs) if self.slow_runs else 0.0

    @property
    def fast_seconds(self) -> float:
        return min(self.fast_runs) if self.fast_runs else 0.0

    @property
    def slow_rate(self) -> float:
        return self.work / self.slow_seconds if self.slow_seconds else 0.0

    @property
    def fast_rate(self) -> float:
        return self.work / self.fast_seconds if self.fast_seconds else 0.0

    @property
    def speedup(self) -> float:
        return (self.slow_seconds / self.fast_seconds
                if self.fast_seconds else 0.0)

    def payload(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "work": self.work,
            "slow": _side_payload(self.slow_runs),
            "fast": _side_payload(self.fast_runs),
            "slow_rate": round(self.slow_rate, 1),
            "fast_rate": round(self.fast_rate, 1),
            "speedup": round(self.speedup, 3),
        }


def _measure(benches: List[BenchResult]) -> None:
    """Time every workload with the fast path forced off and on.

    Each side of each workload runs once untimed (cache warmup — the
    steady state is what the gate tracks, and the first run's build
    cost is the noisiest sample of all).  Then :data:`ROUNDS` timed
    rounds go over the workloads in turn, timing each one's slow side
    and then its fast side.  A host-speed probe runs before and after
    every sample, and the sample is scaled to the reference host's
    speed by the faster of the two, as ``benchmarks/e2e/run.py``
    scales its segments.  The probe misses some slow spells (samples
    run slow while the probes beside them read normal); taking the
    rounds round-robin spreads a workload's samples over the whole
    suite, so a spell of a few seconds reaches one of its rounds, not
    all of them, and each side keeps its minimum.
    """
    previous = fast_path_enabled()
    try:
        for bench in benches:
            for enabled in (False, True):
                set_fast_path(enabled)
                bench.workload()            # warmup, untimed
        before = hostspeed.probe()
        for _ in range(ROUNDS):
            for bench in benches:
                for enabled, samples in ((False, bench.slow_runs),
                                         (True, bench.fast_runs)):
                    set_fast_path(enabled)
                    started = time.perf_counter()
                    bench.work = bench.workload()
                    seconds = time.perf_counter() - started
                    after = hostspeed.probe()
                    samples.append(hostspeed.at_reference(
                        seconds, min(before, after)))
                    before = after
    finally:
        set_fast_path(previous)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _straightline_program(iterations: int):
    """A loop whose body is a long run of sequential ALU/mem work —
    several full 32-byte windows between conditional branches."""
    asm = Assembler(base=0x0040_1000)
    asm.emit("movi", "rcx", iterations)
    asm.emit("movi", "rax", 0)
    asm.emit("movi", "rsi", 0x0090_0000)
    asm.label("loop")
    for _ in range(4):
        asm.emit("addi8", "rax", 7)
        asm.emit("xor", "rdx", "rdx")
        asm.emit("add", "rdx", "rax")
        asm.emit("shl", "rdx", 1)
        asm.emit("sub", "rdx", "rax")
        asm.emit("store", "rsi", "rdx", 0)
        asm.emit("load", "rbx", "rsi", 0)
        asm.emit("subi8", "rax", 3)
    asm.emit("dec", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    return asm.assemble()


def _fresh_state(program) -> MachineState:
    memory = VirtualMemory()
    program.load_into(memory)
    memory.map_range(0x0090_0000, 4096, "rw")
    state = MachineState(memory, rip=program.entry)
    state.setup_stack(0x7FFF_0000)
    return state


def _bench_interp_straightline(quick: bool) -> BenchResult:
    program = _straightline_program(4_000 if quick else 20_000)

    def workload() -> int:
        state = _fresh_state(program)
        result = interpret(state, collect_trace=False,
                           max_instructions=50_000_000)
        return result.instructions

    return BenchResult("interp_straightline", "instructions", workload)


def _bench_core_loop(quick: bool) -> BenchResult:
    program = _straightline_program(1_000 if quick else 5_000)

    def workload() -> int:
        state = _fresh_state(program)
        core = Core()
        result = core.run(state)
        return result.instructions

    return BenchResult("core_loop", "instructions", workload)


def _run_victim(victim, inputs: Dict[str, int]) -> int:
    """Run ``victim`` on ``inputs`` to ``HALT`` through ``Core.run``
    with trace collection; returns the instructions executed."""
    memory = victim.new_memory(inputs)
    state = MachineState(memory)
    state.setup_stack(0x7FFF_0000_0000)
    state.rip = victim.compiled.start
    core = Core(DEFAULT_GENERATION)
    executed = 0
    while True:
        result = core.run(state, collect_trace=True,
                          max_instructions=5_000_000)
        executed += result.instructions
        if result.reason is StopReason.SYSCALL:
            state.regs["rax"] = 0          # yields are no-ops
            continue
        if result.reason is StopReason.HALT:
            return executed
        raise RuntimeError(f"unexpected stop: {result.reason}")


def _bench_core_traversal(quick: bool) -> BenchResult:
    from repro.victims.library import build_gcd_victim

    victim = build_gcd_victim(nlimbs=2 if quick else 4)
    bits = victim.nlimbs * 64 - 2
    inputs = {
        "ta": (0x6DB6_DB6D_B6DB_6DB7 << (bits - 63)) | 0x1_0001,
        "tb": (0x5A5A_5A5A_5A5A_5A5B << (bits - 63)) | 0x3,
    }

    def workload() -> int:
        return _run_victim(victim, inputs)

    return BenchResult("core_traversal_e2e", "instructions", workload)


#: seeds in the ``many_seeds`` workload (the paper's campaigns sweep
#: seeds by the thousand; eight is enough to amortize shared decode)
MANY_SEEDS_COUNT = 8


def _bench_many_seeds(quick: bool) -> BenchResult:
    """N seeds of the GCD victim, one after another.

    Each seed is a fresh address space and core run to ``HALT`` by the
    same ``Core.run`` loop as ``core_traversal_e2e``.  With the fast
    path on, the seeds share the victim's decodes and windows through
    its code images, so a seed builds only what no earlier seed
    reached; the slow side (fast path forced off by ``_measure``) runs
    the same seeds on the reference loop.  The two sides differ only
    in the fast path.
    """
    from repro.victims.library import build_gcd_victim

    victim = build_gcd_victim(nlimbs=2 if quick else 4)
    bits = victim.nlimbs * 64 - 2

    def inputs_for(seed: int) -> Dict[str, int]:
        rng = random.Random(f"many-seeds:{seed}")
        return {
            "ta": rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1,
            "tb": rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1,
        }

    def workload() -> int:
        return sum(_run_victim(victim, inputs_for(seed))
                   for seed in range(MANY_SEEDS_COUNT))

    return BenchResult("many_seeds", "instructions", workload)


def _bench_campaign_smoke(quick: bool) -> BenchResult:
    from repro.experiments.common import RunRequest, run_experiment

    def workload() -> int:
        output = run_experiment("fig2", RunRequest(fast=True, seed=0))
        return 1 if output else 0

    return BenchResult("campaign_smoke", "runs", workload)


_WORKLOADS: Tuple[Callable[[bool], BenchResult], ...] = (
    _bench_interp_straightline,
    _bench_core_loop,
    _bench_core_traversal,
    _bench_many_seeds,
    _bench_campaign_smoke,
)


# ----------------------------------------------------------------------
# telemetry overhead
# ----------------------------------------------------------------------
def measure_telemetry_overhead(*, quick: bool = False
                               ) -> Dict[str, object]:
    """Pair the core hot loop with telemetry off (no sink — the
    default) against a counters-only session.

    The overhead is a median of *paired* ratios.  Each round times one
    run in each mode back to back, alternating which goes first, with
    the cyclic collector run before the pair and off while it is
    timed.  A host-speed swing or a collection then lands on both runs
    of a pair, and the median over rounds discards the pairs it
    splits.  Per-side minima would come from different moments, and on
    a shared host a swing between them reads as an overhead far above
    the 3 % budget.  The returned ``overhead`` is
    that median of ``enabled/disabled - 1``; ``disabled_seconds`` and
    ``enabled_seconds`` are each side's best run, and the counter
    snapshot documents what one enabled run recorded.
    """
    program = _straightline_program(1_000 if quick else 5_000)

    def workload() -> int:
        state = _fresh_state(program)
        core = Core()
        return core.run(state).instructions

    def timed() -> Tuple[int, float]:
        started = time.perf_counter()
        instructions = workload()
        return instructions, time.perf_counter() - started

    rounds = 40 if quick else 30
    disabled: List[float] = []
    enabled: List[float] = []
    work = 0
    counters: Dict[str, int] = {}
    previous = set_fast_path(True)
    collecting = gc.isenabled()
    try:
        workload()                       # warm the decode caches
        for index in range(rounds):
            gc.collect()
            gc.disable()
            for on in ((False, True) if index % 2 == 0
                       else (True, False)):
                if on:
                    with telemetry.session() as sink:
                        work, seconds = timed()
                    enabled.append(seconds)
                    counters = sink.snapshot()
                else:
                    work, seconds = timed()
                    disabled.append(seconds)
            if collecting:
                gc.enable()
    finally:
        if collecting:
            gc.enable()
        set_fast_path(previous)
    overhead = statistics.median(
        on / off for on, off in zip(enabled, disabled)) - 1.0
    return {
        "unit": "instructions",
        "work": work,
        "disabled_seconds": round(min(disabled), 6),
        "enabled_seconds": round(min(enabled), 6),
        "overhead": round(overhead, 4),
        "counters": counters,
    }


def check_telemetry_overhead(payload: Dict[str, object],
                             threshold: float = TELEMETRY_THRESHOLD
                             ) -> List[str]:
    """The <3% gate: telemetry-enabled runtime must stay within
    ``threshold`` of the disabled runtime (which upper-bounds the
    disabled-mode cost — see :data:`TELEMETRY_THRESHOLD`).  Returns
    human-readable failures; empty means pass."""
    info = payload.get("telemetry")
    if not isinstance(info, dict):
        return ["telemetry: overhead section missing from report"]
    overhead = float(info.get("overhead", 0.0))
    if overhead > threshold:
        return [f"telemetry: enabled-mode overhead {overhead:.1%} "
                f"exceeds the {threshold:.0%} budget"]
    return []


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
def run_suite(*, quick: bool = False,
              echo: Optional[Callable[[str], None]] = None
              ) -> Dict[str, object]:
    """Run every workload; return the ``BENCH_perf.json`` payload."""
    say = echo if echo is not None else (lambda line: None)
    results = [bench(quick) for bench in _WORKLOADS]
    _measure(results)
    benchmarks: Dict[str, object] = {}
    for result in results:
        benchmarks[result.name] = result.payload()
        say(f"{result.name:24s} slow {result.slow_rate:12.1f} "
            f"{result.unit}/s  fast {result.fast_rate:12.1f} "
            f"{result.unit}/s  speedup {result.speedup:5.2f}x")
    overhead = measure_telemetry_overhead(quick=quick)
    say(f"{'telemetry_overhead':24s} disabled "
        f"{overhead['disabled_seconds']:.6f}s  enabled "
        f"{overhead['enabled_seconds']:.6f}s  overhead "
        f"{float(overhead['overhead']):+.1%}")
    return {
        "schema": SCHEMA_VERSION,
        "suite": "perf",
        "quick": quick,
        "benchmarks": benchmarks,
        "telemetry": overhead,
    }


def write_report(payload: Dict[str, object], path: str):
    from repro.storage import atomic_write_json
    return atomic_write_json(path, payload)


def compare_to_baseline(current: Dict[str, object],
                        baseline: Dict[str, object]) -> List[str]:
    """Regression check: for every workload in the baseline, the slow
    and the fast side's probe-scaled rate must each stay within
    :data:`THRESHOLD` of that side's baseline rate.  Each side is held
    to its own floor because a slow/fast ratio cannot tell a slower
    fast path from a faster reference loop.  Returns human-readable
    regression messages; empty means pass."""
    if baseline.get("schema") != SCHEMA_VERSION:
        return [f"baseline schema {baseline.get('schema')} is not "
                f"{SCHEMA_VERSION}: its rates are not probe-scaled"]
    regressions: List[str] = []
    cur_benches = current.get("benchmarks", {})
    for name, base in baseline.get("benchmarks", {}).items():
        cur = cur_benches.get(name)
        if cur is None:
            regressions.append(f"{name}: missing from current report")
            continue
        for side in ("slow", "fast"):
            base_rate = float(base[f"{side}_rate"])
            cur_rate = float(cur[f"{side}_rate"])
            floor = base_rate * (1.0 - THRESHOLD)
            if cur_rate < floor:
                regressions.append(
                    f"{name}: {side} side {cur_rate:.1f} "
                    f"{base['unit']}/s fell below {floor:.1f} "
                    f"(baseline {base_rate:.1f} - {THRESHOLD:.0%} "
                    f"allowance)")
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator perf suite: fast path off vs on, each "
                    "side scaled to the reference host's speed")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="report path (default: BENCH_perf.json)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="gate each side's rate against a baseline "
                             "report; non-zero exit on regression")
    args = parser.parse_args(argv)

    payload = run_suite(quick=args.quick, echo=print)
    path = write_report(payload, args.out)
    print(f"report written atomically to {path}")

    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        regressions = compare_to_baseline(payload, baseline)
        regressions += check_telemetry_overhead(payload)
        if regressions:
            for line in regressions:
                print(f"PERF REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.compare} (each side within "
              f"{THRESHOLD:.0%}, telemetry {TELEMETRY_THRESHOLD:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
