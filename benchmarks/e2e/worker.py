"""One pass of one workload, in its own process.

``run.py`` starts this script once per measurement, writes a job (JSON)
to its standard input, and reads ``READY <probe seconds>`` when set-up
is done — the parent's clock from process start to that line, less the
host-speed probe the worker ran just before printing it, is
``setup_s``, cold imports included.  A set-up-only job exits there; a
full job then runs one timed pass and prints one JSON result line.

:func:`execute` is the same code in-process, for the tests.
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext
from typing import Callable, Optional

import hostspeed
import workloads
from repro import telemetry
from repro.cpu.decoded import fast_path_enabled
from tracing import Tracer, layer_metrics


def _peak_rss_mb() -> float:
    """High-water resident memory of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload: str, inputs: dict, *,
            trace: bool = False,
            spans_path: Optional[str] = None,
            ready: Callable[[], bool] = lambda: True) -> Optional[dict]:
    """Set up ``workload`` and run one timed pass.

    ``ready`` is called after set-up; when it returns False the job
    stops there and None is returned.
    """
    spec = workloads.WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    restored = True
    try:
        with (telemetry.session() if trace else nullcontext()) as sink:
            if tracer is not None:
                tracer.sink = sink
            with (tracer.span("bench.setup", op="setup")
                  if tracer else nullcontext()):
                state = spec.setup(inputs)
            if not ready():
                return None
            span = ((lambda key: tracer.span("bench.op", op=key))
                    if tracer else (lambda key: nullcontext()))
            items = spec.run_pass(state, span)
    finally:
        if tracer is not None:
            restored = tracer.uninstall()
    result = {
        "workload": workload,
        "items": [item.to_json() for item in items],
        "fast_path": fast_path_enabled(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        # the session folded its deferred counters in when it closed
        result["layers"] = layer_metrics(
            tracer, sink.counters,
            ops=sum(item.ops for item in items),
            victim_runs=sum(item.victim_runs for item in items),
            extractions=sum(1 for item in items if item.victim_runs))
        result["restored"] = restored
        result["self_s_total"] = tracer.self_total()
        result["traced_wall_s"] = sum(
            tracer.stats[name][1] for name in ("bench.setup", "bench.op")
            if name in tracer.stats)
        if spans_path:
            tracer.write_spans(spans_path, workload)
    return result


def main() -> int:
    job = json.loads(sys.stdin.read())

    def ready() -> bool:
        print(f"READY {hostspeed.probe()!r}", flush=True)
        return not job.get("setup_only", False)

    result = execute(job["workload"], job["inputs"],
                     trace=job.get("trace", False),
                     spans_path=job.get("spans_path"), ready=ready)
    if result is not None:
        print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
