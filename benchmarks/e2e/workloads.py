"""The end-to-end workloads: input generation, set-up, one timed pass.

Each workload is split the way the benchmark times it:

* ``generate(seed, ...)`` is untimed.  It derives every input from the
  seed and returns plain JSON, which is all the worker process gets.
  Keyword arguments set the size; the defaults are the benchmark's
  sizes and the tests pass smaller ones.
* ``setup(inputs)`` is timed as ``setup_s``: victim builds (compiles),
  attack construction and calibration.
* ``run_pass(state, span)`` is the timed body: every operation of the
  workload once, in a fixed order.  It returns one :class:`Item` per
  timed call.  A run makes several passes, each in a fresh process,
  and keeps each item's fastest time (``run.py``).

Item digests are what the committed goldens pin (``golden/``), one per
item key: an output depends only on its input, never on the pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import (Callable, ContextManager, Dict, Iterator, List,
                    NamedTuple, Optional, Tuple)

import hostspeed

from repro.analysis.symbolic import run_certify
from repro.core.cfl import ControlFlowLeakAttack
from repro.core.nv_supervisor import NvSupervisor
from repro.cpu.config import generation
from repro.cpu.core import Core
from repro.fingerprint import similarity
from repro.fingerprint.corpus import generate_corpus
from repro.lang import CompileOptions
from repro.system.kernel import Kernel
from repro.victims.library import (ENCLAVE_DATA_BASE, build_bignum_victim,
                                   build_bn_cmp_victim, build_gcd_victim)
from repro.victims.rsa import generate_keys

#: ``span(key)`` -> context manager around one timed call (the tracer's
#: op span, or nothing)
Span = Callable[[str], ContextManager]


@dataclass
class Item:
    """One timed call of a pass, and its checked output."""

    #: digest of the output (compared against the golden)
    digest: str
    #: operations this call contributes to ``ops_per_s``
    ops: int
    #: correct outcomes / outcomes, for ``accuracy``
    correct: float
    total: int
    #: the call is one attack: its time is an attack-latency sample
    attack: bool = False
    #: enclave executions the item needed (NV-S extraction only)
    victim_runs: int = 0
    #: exception text when the call raised
    error: Optional[str] = None
    #: which input the item was computed from (the same in every pass)
    input: str = ""
    #: wall time of the call
    seconds: Optional[float] = None
    #: consecutive durations that add up to ``seconds``: one, or one per
    #: stretch between cuts of the workload's :class:`SegmentClock`
    segments: Optional[List[float]] = None
    #: host-speed probe times (``hostspeed.probe``) before, between and
    #: after the segments: segment ``j`` lies between probes ``j`` and
    #: ``j + 1``
    probes: Optional[List[float]] = None

    def to_json(self) -> dict:
        return asdict(self)


def digest(value) -> str:
    """Short stable digest of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class SegmentClock:
    """Cuts a long call's wall time every ``every`` calls of a boundary.

    The boundary (``module``, ``attr``: a module global or
    ``Class.method``) is wrapped only while the call runs.  At each cut
    the host-speed probe runs, so each segment (tens of milliseconds) is
    scaled by the host's speed at its own ends, not by that of a call
    lasting seconds.  The work is deterministic, so segment ``j``
    covers the same work in every pass, and ``run.py`` keeps each
    segment's fastest pass.
    """

    def __init__(self, module: str, attr: str, every: int):
        self.module, self.attr, self.every = module, attr, every

    @contextmanager
    def cutting(self) -> Iterator[List[Tuple[float, float, float]]]:
        """Yield the list of cuts: (segment end, probe time, next
        segment's start)."""
        owner_name, _, member = self.attr.rpartition(".")
        owner = importlib.import_module(self.module)
        if owner_name:
            owner = getattr(owner, owner_name)
        original = vars(owner)[member]
        marks: List[Tuple[float, float, float]] = []
        every, clock, probe = self.every, time.perf_counter, hostspeed.probe
        calls = [0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            if calls[0] % every == 0:
                ended = clock()
                spent = probe()
                marks.append((ended, spent, clock()))
            return original(*args, **kwargs)

        setattr(owner, member, wrapper)
        try:
            yield marks
        finally:
            setattr(owner, member, original)


def _attempt(input_key: str, call: Callable[[], object],
             check: Callable[[object], Item], *, span: Span,
             total: int = 1, clock: Optional[SegmentClock] = None) -> Item:
    """Time ``call`` between two host-speed probes, then build its item
    with ``check`` (untimed).

    An exception in either becomes a failed item.
    """
    with span(input_key):
        try:
            before = hostspeed.probe()
            with (clock.cutting() if clock else nullcontext([])) as marks:
                started = time.perf_counter()
                result = call()
                ended = time.perf_counter()
            after = hostspeed.probe()
            item = check(result)
        except Exception as error:  # a failing op is counted, not fatal
            return Item(digest="error", ops=0, correct=0.0, total=total,
                        error=f"{type(error).__name__}: {error}",
                        input=input_key)
    starts = [started] + [start for _, _, start in marks]
    ends = [end for end, _, _ in marks] + [ended]
    item.input = input_key
    item.segments = [end - start for start, end in zip(starts, ends)]
    item.seconds = sum(item.segments)
    item.probes = [before] + [spent for _, spent, _ in marks] + [after]
    return item


# ----------------------------------------------------------------------
# nvs_extract: full NV-S PC-trace extraction from an enclave (Fig. 9/10)
# ----------------------------------------------------------------------
#: Inputs are pairs 4 <= tb < ta <= NVS_MAX_INPUT.
NVS_MAX_INPUT = 40
#: Trace-length band (retire units) the seeded pair is drawn from.  The
#: pairs above span 603..2350 units; the shortest band holds 8 pairs
#: (ta = 2 tb, tb odd) that take the same path through the GCD with
#: different values.  Equal work keeps PCs/s and latency following the
#: code, not the seed, and a short extraction (about 10 s) lets a run
#: repeat it.
NVS_UNITS = (600, 650)
#: SgxStepper.step calls per timing segment (about 60 ms)
NVS_CLOCK = SegmentClock("repro.sgx.sgxstep", "SgxStepper.step", 128)


def _nvs_victim():
    return build_gcd_victim("3.0", options=CompileOptions(opt_level=2),
                            nlimbs=1, with_yield=False,
                            data_base=ENCLAVE_DATA_BASE)


def generate_nvs(seed: int, *, units=NVS_UNITS) -> dict:
    """One seeded (ta, tb) pair with 4 <= tb < ta <= NVS_MAX_INPUT whose
    ground-truth trace length lies in ``units``, with its expected
    retire-unit PCs (the checker's reference, never shown to the
    attack)."""
    config = generation("coffeelake")
    victim = _nvs_victim()
    candidates = [(ta, tb) for ta in range(5, NVS_MAX_INPUT + 1)
                  for tb in range(4, ta)]
    random.Random(seed).shuffle(candidates)
    for ta, tb in candidates:
        expected = victim.expected_unit_starts({"ta": ta, "tb": tb},
                                               config)
        if units[0] <= len(expected) <= units[1]:
            return {"ta": ta, "tb": tb, "expected": expected}
    raise ValueError(f"no input pair with a trace of {units} units")


def setup_nvs(inputs: dict) -> dict:
    return {"config": generation("coffeelake"), "victim": _nvs_victim(),
            "inputs": inputs}


def pass_nvs(state: dict, span: Span) -> List[Item]:
    pair = state["inputs"]
    expected = pair["expected"]

    def extract():
        # A fresh core per extraction: the output depends only on the
        # input pair.
        kernel = Kernel(Core(state["config"]))
        supervisor = NvSupervisor(kernel, pws_per_call=8,
                                  strategy="adaptive")
        return supervisor.extract_trace(
            state["victim"], {"ta": pair["ta"], "tb": pair["tb"]})

    def check(trace) -> Item:
        pcs = [step.pc for step in trace.steps]
        total = max(len(expected), len(pcs))
        return Item(digest=digest([pcs, trace.runs, trace.partial]),
                    ops=len(pcs),
                    correct=trace.accuracy_against(expected) * total,
                    total=total, attack=True, victim_runs=trace.runs)

    return [_attempt("pair", extract, check, span=span,
                     total=len(expected), clock=NVS_CLOCK)]


# ----------------------------------------------------------------------
# nvu_leak: the §7.2 NV-U branch-direction leak over RSA keygen GCDs
# ----------------------------------------------------------------------
def generate_nvu(seed: int, *, keys: int = 100) -> dict:
    return {"keys": [dict(zip(("ta", "tb"), key.gcd_inputs()))
                     for key in generate_keys(keys, seed=seed)]}


def setup_nvu(inputs: dict) -> dict:
    config = generation("coffeelake", timing_noise=2.0)
    victim = build_gcd_victim(
        "3.0", options=CompileOptions(opt_level=2, align_jumps=16),
        nlimbs=2, with_yield=True)
    attack = ControlFlowLeakAttack(Kernel(Core(config)), victim)
    return {"attack": attack, "keys": inputs["keys"]}


def _leak_key(attack, key: str, inputs: dict, span: Span) -> List[Item]:
    """The ground truth, then the attack, for one key.  The ground truth
    is part of the op (``ops_per_s``) but not of the attack's latency."""
    known: dict = {}

    def check_truth(truth) -> Item:
        known["truth"] = truth
        return Item(digest=digest(truth), ops=0, correct=0.0, total=0)

    def check_leak(outcome) -> Item:
        truth = known["truth"]
        return Item(digest=digest([d.value for d in outcome.directions]),
                    ops=len(truth),
                    correct=outcome.accuracy_against(truth) * len(truth),
                    total=len(truth), attack=True)

    first = _attempt(f"{key}:truth", lambda: attack.ground_truth(inputs),
                     check_truth, span=span)
    if first.error is not None:
        return [first]
    return [first, _attempt(key, lambda: attack.attack(inputs), check_leak,
                            span=span)]


def pass_nvu(state: dict, span: Span) -> List[Item]:
    items: List[Item] = []
    for which, inputs in enumerate(state["keys"]):
        items.extend(_leak_key(state["attack"], f"key{which}", inputs, span))
    return items


# ----------------------------------------------------------------------
# fp_corpus: fingerprint corpus generation + top-1 identification
# ----------------------------------------------------------------------
#: corpus functions run per timing segment (about 60 ms)
FP_CLOCK = SegmentClock("repro.fingerprint.corpus", "run_function", 8)


#: The corpus is the same for every seed: each corpus batch of 200
#: functions draws its optimisation level at random, so corpora from
#: different seeds differ in work by up to 17 %, and their
#: identification times by as much.
FP_CORPUS_SEED = 2023


def generate_fp(seed: int, *, size: int = 1000, picks: int = 400) -> dict:
    """The corpus and the seeded functions to identify in it.

    An identification's time follows the length of the probe's
    measured trace, which is heavy-tailed: 400 picks keep the
    percentiles from moving with the seed's choice (by about 4 % at
    p90; with 100 picks, by about 10 %).
    """
    return {"size": size, "corpus_seed": FP_CORPUS_SEED,
            "picks": random.Random(seed).sample(range(size), picks)}


def setup_fp(inputs: dict) -> dict:
    return dict(inputs)


def pass_fp(state: dict, span: Span) -> List[Item]:
    size = state["size"]
    corpus: list = []

    def build():
        return generate_corpus(size=size, seed=state["corpus_seed"])

    def check_corpus(functions) -> Item:
        corpus.extend(functions)
        return Item(digest=digest([[f.name, f.static_pcs, f.measured]
                                   for f in corpus]),
                    ops=len(corpus), correct=0.0, total=0)

    items = [_attempt("corpus", build, check_corpus, span=span,
                      clock=FP_CLOCK)]
    if items[0].error is not None:
        return items

    for pick in state["picks"]:
        def identify(pick=pick):
            probe = corpus[pick].measured
            return [similarity.set_similarity(probe, fn.static_pcs)
                    for fn in corpus]

        def check(scores, pick=pick) -> Item:
            own = scores[pick]
            # rank 1 only if no other function scores as high (ties lose)
            rank = 1 + sum(1 for j, score in enumerate(scores)
                           if j != pick and score >= own)
            return Item(digest=digest([corpus[pick].name, rank, repr(own)]),
                        ops=0, correct=float(rank == 1), total=1,
                        attack=True)

        items.append(_attempt(f"corpus:{pick}", identify, check, span=span))
    return items


# ----------------------------------------------------------------------
# certify: symbolic certification + constant-time rewrite validation
# ----------------------------------------------------------------------
#: gcd-2.16 is left out: it alone takes longer than the other four
#: together, through the same code paths.
CERTIFY_VICTIMS = ("gcd-2.5", "gcd-3.0", "bn_cmp", "bignum")

_CERTIFY_BUILDERS = {
    "gcd-2.5": lambda: build_gcd_victim("2.5"),
    "gcd-3.0": lambda: build_gcd_victim("3.0"),
    "bn_cmp": build_bn_cmp_victim,
    "bignum": build_bignum_victim,
}


def generate_certify(seed: int, *, victims=CERTIFY_VICTIMS) -> dict:
    """Certify does not depend on the seed."""
    return {"victims": list(victims)}


def setup_certify(inputs: dict) -> dict:
    return {"victims": [(name, _CERTIFY_BUILDERS[name]())
                        for name in inputs["victims"]]}


def pass_certify(state: dict, span: Span) -> List[Item]:
    def check(report) -> Item:
        return Item(digest=digest(report.render()), ops=1,
                    correct=float(report.ok), total=1, attack=True)

    return [_attempt(name, lambda n=name, v=victim: run_certify([(n, v)]),
                     check, span=span)
            for name, victim in state["victims"]]


class Workload(NamedTuple):
    generate: Callable[..., dict]
    setup: Callable[[dict], dict]
    run_pass: Callable[[dict, Span], List[Item]]
    #: passes in a run of ``run.REFERENCE_SECONDS``.  Fixed, so that a
    #: slower or faster change is timed on as many samples as its parent.
    passes: int


WORKLOADS: Dict[str, Workload] = {
    # one extraction a pass (about 10 s at the reference speed)
    "nvs_extract": Workload(generate_nvs, setup_nvs, pass_nvs, 2),
    # 100 keys a pass (about 12 s)
    "nvu_leak": Workload(generate_nvu, setup_nvu, pass_nvu, 2),
    # one corpus and 400 identifications a pass (about 12 s)
    "fp_corpus": Workload(generate_fp, setup_fp, pass_fp, 2),
    # four victims a pass (about 10 s)
    "certify": Workload(generate_certify, setup_certify, pass_certify, 2),
}
