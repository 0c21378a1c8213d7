"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public boundary functions of each layer by
monkeypatching the binding each caller resolves (a class attribute, or
the module global a caller imported by name), records one span per
call (name, start, end, parent, op id) in memory, and derives self time
as duration minus the time covered by child spans.  The program's own
telemetry session supplies the counts (instructions, decode misses,
superblock and BTB hits); :func:`layer_metrics` combines both into the
per-layer table.

Nothing under ``src/`` changes: :meth:`Tracer.uninstall` puts every
original binding back and reports whether it did.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: span name -> binding sites ("module", "attr" or "Class.method").
#: Module-level functions are patched where each caller imported them.
BOUNDARIES: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("cpu.Core.run", (("repro.cpu.core", "Core.run"),)),
    ("cpu.build_window", (("repro.cpu.core", "build_window"),
                          ("repro.cpu.interp", "build_window"),
                          ("repro.cpu.decoded", "build_window"))),
    ("cpu.build_superblock", (("repro.cpu.core", "build_superblock"),)),
    ("cpu.BTB.lookup", (("repro.cpu.btb", "BTB.lookup"),)),
    ("cpu.interp", (("repro.cpu.interp", "interpret"),
                    ("repro.cpu.interp", "run_function"),
                    ("repro.victims.library", "run_function"),
                    ("repro.fingerprint.corpus", "run_function"),
                    ("repro.analysis.symbolic.witness", "run_function"))),
    ("system.Kernel.run_slice", (("repro.system.kernel",
                                  "Kernel.run_slice"),)),
    ("sgx.SgxStepper.step", (("repro.sgx.sgxstep", "SgxStepper.step"),)),
    ("core.NvCore.monitor", (("repro.core.nv_core", "NvCore.monitor"),)),
    ("core.ProbeSession.prime", (("repro.core.nv_core",
                                  "ProbeSession.prime"),)),
    ("core.ProbeSession.probe", (
        ("repro.core.nv_core", "ProbeSession.probe"),
        ("repro.core.nv_core", "ProbeSession.probe_detailed"),
        ("repro.core.nv_core", "ProbeSession.probe_measured"))),
    ("core.PwTraversal", tuple(
        ("repro.core.traversal", f"PwTraversal.{method}")
        for method in ("__init__", "queries_for", "record", "advance",
                       "confidence_for", "value_sets"))),
    ("core.NvSupervisor.discover", (("repro.core.nv_supervisor",
                                     "NvSupervisor.discover"),)),
    ("lang.Compiler.compile", (("repro.lang.codegen",
                                "Compiler.compile"),)),
    ("victims.VictimProgram.ground_truth", (("repro.victims.library",
                                             "VictimProgram.ground_truth"),)),
    ("isa.AssembledProgram.load_into", (("repro.isa.assembler",
                                         "AssembledProgram.load_into"),)),
    ("fingerprint.set_similarity", (("repro.fingerprint.similarity",
                                     "set_similarity"),)),
    ("fingerprint.measured_trace", (("repro.fingerprint.corpus",
                                     "measured_trace"),)),
    ("analysis.symbolic.explore_victim", (
        ("repro.analysis.symbolic.certify", "explore_victim"),)),
    ("analysis.symbolic.solve_bit", (("repro.analysis.symbolic.executor",
                                      "solve_bit"),)),
    ("analysis.symbolic.replay_btb_stream", (
        ("repro.analysis.symbolic.certify", "replay_btb_stream"),)),
    ("analysis.symbolic.rewrite_victim", (
        ("repro.analysis.symbolic.certify", "rewrite_victim"),)),
)

#: boundaries called so often that one record per call would dwarf the
#: run; their calls and times still reach the per-layer table, only
#: ``spans.jsonl`` omits them
AGGREGATE_ONLY = frozenset({
    "cpu.BTB.lookup", "cpu.build_window", "cpu.build_superblock",
    "cpu.Core.run", "system.Kernel.run_slice", "sgx.SgxStepper.step",
    "core.ProbeSession.prime", "core.ProbeSession.probe",
    "core.PwTraversal", "isa.AssembledProgram.load_into",
    "fingerprint.set_similarity", "analysis.symbolic.solve_bit",
})

#: counter deltas booked to the span they happen in: probe attempts
#: made while a session is built are calibration, not prime/probe
WATCHED = {"core.NvCore.monitor": "core.probe.attempts"}


class Tracer:
    """In-memory span recorder over monkeypatched layer boundaries."""

    def __init__(self) -> None:
        #: span name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: recorded spans: (id, name, start, end, parent id, op id)
        self.spans: List[tuple] = []
        #: span name -> watched counter delta accumulated inside it
        self.watched: Dict[str, int] = {}
        #: op id stamped on spans (set by the round loop)
        self.op: object = None
        #: telemetry sink read for :data:`WATCHED` counters
        self.sink = None
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent_id = self._stack[-1][2] if self._stack else None
        span_id = parent_id
        if name not in AGGREGATE_ONLY:
            span_id = self._next_id
            self._next_id += 1
        counter = WATCHED.get(name)
        before = (self.sink.counters.get(counter, 0)
                  if counter and self.sink is not None else 0)
        # [name, child_s, span id (nearest recorded), parent id, before]
        frame = [name, 0.0, span_id, parent_id, before]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name = frame[0]
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += max(0.0, duration - frame[1])
        if self._stack:
            self._stack[-1][1] += duration
        if name not in AGGREGATE_ONLY:
            self.spans.append((frame[2], name, start, end, frame[3],
                               self.op))
        counter = WATCHED.get(name)
        if counter and self.sink is not None:
            self.watched[name] = (self.watched.get(name, 0)
                                  + self.sink.counters.get(counter, 0)
                                  - frame[4])

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # same boundary re-entered (probe -> probe_detailed):
                # one span covers both
                return fn(*args, **kwargs)
            frame = self._enter(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, start, clock())

        return wrapper

    @contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        """A span around the benchmark's own code (set-up, rounds)."""
        self.op = op
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, sites in BOUNDARIES:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name \
                    else module
                original = vars(owner)[member]
                setattr(owner, member, self._wrap(name, original))
                self._patches.append((owner, member, original))

    def uninstall(self) -> bool:
        """Restore every patched binding; True when all are back."""
        patches, self._patches = self._patches, []
        for owner, member, original in reversed(patches):
            setattr(owner, member, original)
        return all(vars(owner)[member] is original
                   for owner, member, original in patches)

    # ------------------------------------------------------------------
    def self_total(self) -> float:
        return sum(entry[2] for entry in self.stats.values())

    def write_spans(self, path: str, workload: str) -> None:
        """Append the recorded spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as out:
            for span_id, name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "workload": workload, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "op": op}, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: per-layer metric name -> unit (trace_overhead is added by the caller,
#: which has both runs)
LAYER_UNITS: Dict[str, str] = {
    "cpu.Core.run.calls": "count",
    "cpu.Core.run.self_s": "s",
    "cpu.instr_per_run": "count",
    "cpu.decode.miss_per_kinstr": "1/kinstr",
    "cpu.build_window.calls": "count",
    "cpu.build_window.self_s": "s",
    "cpu.build_superblock.calls": "count",
    "cpu.build_superblock.self_s": "s",
    "cpu.superblock.hit_ratio": "fraction",
    "cpu.superblock.invalidations": "count",
    "cpu.BTB.lookup.calls": "count",
    "cpu.BTB.lookup.self_s": "s",
    "cpu.btb.hit_ratio": "fraction",
    "cpu.interp.calls": "count",
    "cpu.interp.self_s": "s",
    "cpu.sim_kips": "kinstr/s",
    "system.Kernel.run_slice.calls": "count",
    "system.Kernel.run_slice.self_s": "s",
    "sgx.SgxStepper.step.calls": "count",
    "sgx.SgxStepper.step.self_s": "s",
    "core.NvCore.monitor.calls": "count",
    "core.NvCore.monitor.total_s": "s",
    "core.ProbeSession.prime.total_s": "s",
    "core.ProbeSession.probe.total_s": "s",
    "core.PwTraversal.self_s": "s",
    "core.NvSupervisor.discover.total_s": "s",
    "core.probe.attempts": "count",
    "core.calibration_share": "fraction",
    "core.probes_per_op": "count",
    "core.victim_runs": "count",
    "lang.Compiler.compile.calls": "count",
    "lang.Compiler.compile.self_s": "s",
    "victims.VictimProgram.ground_truth.total_s": "s",
    "isa.AssembledProgram.load_into.calls": "count",
    "fingerprint.set_similarity.calls": "count",
    "fingerprint.set_similarity.self_s": "s",
    "fingerprint.measured_trace.self_s": "s",
    "analysis.symbolic.explore_victim.self_s": "s",
    "analysis.symbolic.solve_bit.calls": "count",
    "analysis.symbolic.solve_bit.self_s": "s",
    "analysis.symbolic.replay_btb_stream.total_s": "s",
    "analysis.symbolic.rewrite_victim.total_s": "s",
}

_STAT_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, int], *,
                  ops: int, victim_runs: int,
                  extractions: int) -> Dict[str, float]:
    """Every :data:`LAYER_UNITS` metric from one traced run."""
    def stat(name: str, field: str) -> float:
        entry = tracer.stats.get(name)
        return entry[_STAT_FIELDS[field]] if entry else 0

    count = counters.get
    instructions = (count("cpu.core.instructions", 0)
                    + count("cpu.interp.instructions", 0))
    sim_s = stat("cpu.Core.run", "total_s") + stat("cpu.interp", "total_s")
    sb_hits = count("cpu.superblock.hits", 0)
    attempts = count("core.probe.attempts", 0)
    derived = {
        "cpu.instr_per_run": _ratio(count("cpu.core.instructions", 0),
                                    count("cpu.core.runs", 0)),
        "cpu.decode.miss_per_kinstr": _ratio(
            1000 * count("cpu.decode.misses", 0), instructions),
        "cpu.superblock.hit_ratio": _ratio(
            sb_hits, sb_hits + count("cpu.superblock.builds", 0)),
        "cpu.superblock.invalidations": count(
            "cpu.superblock.invalidations", 0),
        "cpu.btb.hit_ratio": _ratio(count("cpu.btb.hits", 0),
                                    count("cpu.btb.lookups", 0)),
        "cpu.sim_kips": _ratio(instructions, 1000 * sim_s),
        "core.probe.attempts": attempts,
        "core.calibration_share": _ratio(
            tracer.watched.get("core.NvCore.monitor", 0), attempts),
        "core.probes_per_op": _ratio(attempts, ops),
        "core.victim_runs": _ratio(victim_runs, extractions),
    }
    metrics: Dict[str, float] = {}
    for name in LAYER_UNITS:
        if name in derived:
            metrics[name] = derived[name]
        else:
            span, _, field = name.rpartition(".")
            metrics[name] = stat(span, field)
    return metrics


def format_table(columns: Dict[str, Dict[str, Optional[float]]],
                 units: Dict[str, str]) -> str:
    """Workload x layer table (rows: metrics, columns: workloads)."""
    names = list(units)
    workloads = list(columns)
    width = max(len(name) for name in names) + 2
    lines = ["metric".ljust(width) + "unit".ljust(10)
             + "".join(w.rjust(14) for w in workloads)]
    for name in names:
        cells = []
        for workload in workloads:
            value = columns[workload].get(name)
            cells.append("-".rjust(14) if value is None
                         else f"{value:14.6g}")
        lines.append(name.ljust(width) + units[name].ljust(10)
                     + "".join(cells))
    lines.append(
        "note: replay_btb_stream opens its own telemetry session, so "
        "the counters of witness replays (cpu.core.*, cpu.btb.*) are "
        "not folded into this table; their spans and times are.")
    return "\n".join(lines)
