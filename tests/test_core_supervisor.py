"""NV-S end-to-end: full dynamic-PC-trace extraction (small victim)."""

import gc
import weakref

import pytest

from repro import telemetry
from repro.core import NvSupervisor
from repro.core.nv_supervisor import _EnclaveRun
from repro.core.pw import PwRange
from repro.cpu import Core, generation, set_fast_path
from repro.lang import CompileOptions
from repro.system import Kernel
from repro.victims import build_gcd_victim
from repro.victims.library import ENCLAVE_DATA_BASE


@pytest.fixture(scope="module")
def gcd_victim():
    return build_gcd_victim(
        "3.0", options=CompileOptions(opt_level=2), nlimbs=1,
        with_yield=False, data_base=ENCLAVE_DATA_BASE)


@pytest.fixture(scope="module")
def extraction(gcd_victim):
    config = generation("coffeelake")
    inputs = {"ta": 20, "tb": 12}
    expected = gcd_victim.expected_unit_starts(inputs, config)
    supervisor = NvSupervisor(Kernel(Core(config)))
    trace = supervisor.extract_trace(gcd_victim, inputs)
    return expected, trace


def test_step_count_matches_retire_units(extraction):
    expected, trace = extraction
    assert len(trace.steps) == len(expected)


def test_byte_granular_accuracy(extraction):
    expected, trace = extraction
    assert trace.accuracy_against(expected) > 0.97


def test_resolution_rate(extraction):
    _, trace = extraction
    assert trace.resolution_rate > 0.97


def test_page_bases_from_controlled_channel(extraction, gcd_victim):
    _, trace = extraction
    code_base = gcd_victim.compiled.program.segments[0][0]
    page = code_base & ~0xFFF
    assert all(page in step.page_bases or not step.page_bases
               for step in trace.steps[:50])


def test_data_access_flags_present(extraction):
    _, trace = extraction
    flags = [step.data_access for step in trace.steps]
    # calls/rets/loads touch data; plain ALU steps do not
    assert any(flags) and not all(flags)


def test_runs_are_bounded(extraction):
    """Adaptive extraction must stay well under the paper's
    128/N-per-pass full sweep budget."""
    _, trace = extraction
    assert trace.runs <= 60


def test_discovery_only(gcd_victim):
    config = generation("coffeelake")
    supervisor = NvSupervisor(Kernel(Core(config)))
    records = supervisor.discover(gcd_victim, {"ta": 6, "tb": 2})
    expected = gcd_victim.expected_unit_starts({"ta": 6, "tb": 2},
                                               config)
    assert len(records) == len(expected)
    assert all(record.pc is None for record in records)


# ----------------------------------------------------------------------
# fast path on/off equivalence, and cheap re-maps of cached sessions
# ----------------------------------------------------------------------
def _simulated(counters):
    """The counters that count simulated events, not cache work."""
    return {name: value for name, value in counters.items()
            if name.startswith(("cpu.btb.", "core.probe."))
            or name == "cpu.core.runs"}


def _extract(gcd_victim, fast):
    previous = set_fast_path(fast)
    try:
        with telemetry.session() as sink:
            core = Core(generation("coffeelake"))
            supervisor = NvSupervisor(Kernel(core))
            trace = supervisor.extract_trace(gcd_victim, {"ta": 6, "tb": 2})
        # process ids (the default BTB domains) come from a global
        # counter: compare domains by rank, not by value
        entries = core.btb.valid_entries()
        rank = {domain: index for index, domain
                in enumerate(sorted({e.domain for e in entries}))}
        btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                      rank[e.domain]) for e in entries)
        lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
               for r in core.lbr.records()]
        observed = (trace.steps, trace.runs, trace.probes, btb, lbr,
                    _simulated(sink.snapshot()))
        return observed, supervisor
    finally:
        set_fast_path(previous)


def test_extraction_identical_with_fast_path_off_and_on(gcd_victim):
    slow, _ = _extract(gcd_victim, fast=False)
    fast, supervisor = _extract(gcd_victim, fast=True)
    assert fast == slow
    counters = fast[5]
    assert fast[2] > 0 and counters.get("core.probe.attempts", 0) > 0
    assert counters.get("cpu.btb.lookups", 0) > 0
    assert counters.get("cpu.core.runs", 0) > 0

    # Re-mapping a cached session whose bytes are already in place is
    # a byte compare: priming it again decodes nothing.
    key = next(iter(supervisor._sessions))
    queries = [PwRange(start, end) for start, end in key]
    supervisor._session_for(queries).prime()      # bytes + decodes warm
    with telemetry.session() as sink:
        supervisor._session_for(queries).prime()
    counters = sink.snapshot()
    assert counters.get("core.probe.attempts") == 1
    assert counters.get("cpu.decode.misses", 0) == 0


# ----------------------------------------------------------------------
# finished enclave runs are freed by reference counting alone
# ----------------------------------------------------------------------
@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_closed_run_frees_its_address_space(gcd_victim, gc_disabled):
    kernel = Kernel(Core(generation("coffeelake")))
    supervisor = NvSupervisor(kernel)
    run = supervisor._new_run(gcd_victim, {"ta": 6, "tb": 2})
    memory = weakref.ref(run.host.memory)
    enclave = run.enclave
    run.close(kernel)
    # the scheduler still names the last host it ran; that is its own
    # reference, not the enclave's
    kernel.current = None
    del run
    assert memory() is None
    assert enclave.host is None and not enclave.entered


def test_finished_runs_stay_freed(gcd_victim, gc_disabled, monkeypatch):
    memories = []
    close = _EnclaveRun.close

    def recording_close(run, kernel):
        memories.append(weakref.ref(run.host.memory))
        close(run, kernel)

    monkeypatch.setattr(_EnclaveRun, "close", recording_close)
    kernel = Kernel(Core(generation("coffeelake")))
    supervisor = NvSupervisor(kernel)
    for _ in range(3):
        supervisor.discover(gcd_victim, {"ta": 6, "tb": 2})
    alive = [ref() for ref in memories if ref() is not None]
    assert len(memories) == 3
    assert alive == [kernel.current.memory]
