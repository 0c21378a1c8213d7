"""Shared harness utilities for the figure/table experiments, plus the
experiment registry the CLI and the campaign runner execute from.

Every ``exp_*`` module registers a printable summary runner with
:func:`register_experiment`; the registry decouples "what experiments
exist" from "who runs them" so subprocess workers can resolve a job by
name without importing :mod:`repro.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .. import telemetry
from ..cpu.config import CpuGeneration
from ..cpu.core import Core
from ..cpu.state import MachineState
from ..errors import CampaignError
from ..faults.plans import FaultPlan
from ..isa.assembler import AssembledProgram, Assembler
from ..memory.memory import VirtualMemory

#: where experiment harnesses park their halt gadget
HALT_GADGET = 0x0060_0000


# ----------------------------------------------------------------------
# experiment registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """One experiment invocation's knobs, as a value object.

    ``seed is None`` means "use the experiment's own default seeds".
    ``plan`` is an optional :class:`repro.faults.FaultPlan` carried by
    campaign jobs; experiments that model environmental noise honour
    it, the rest record it as provenance only.  ``backend`` selects a
    BTB design family (``intel``/``arm``/``sodor``/``orcs``); None
    keeps each experiment's default (the Intel model).
    """

    fast: bool = False
    seed: Optional[int] = None
    plan: Optional[FaultPlan] = None
    backend: Optional[str] = None

    def seeded(self, **kwargs) -> Dict[str, object]:
        """kwargs plus ``seed=`` when the request carries one."""
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def config_for(self, name: str):
        """A generation preset carrying the request's seed and BTB
        backend (None -> default config, letting the experiment pick
        its own preset)."""
        if self.seed is None and self.backend is None:
            return None
        from ..cpu.config import backend_generation, generation
        config = generation(name, **self.seeded())
        if self.backend is not None:
            config = backend_generation(self.backend, base=config)
        return config


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: name, paper artefact, summary runner."""

    name: str
    artefact: str
    runner: Callable[[RunRequest], str]


#: experiment name -> spec, in registration (== module import) order
EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def register_experiment(name: str, artefact: str):
    """Class-level decorator registering ``runner(request) -> str``."""
    def wrap(runner: Callable[[RunRequest], str]):
        EXPERIMENTS[name] = ExperimentSpec(name, artefact, runner)
        return runner
    return wrap


def run_experiment(name: str, request: RunRequest) -> str:
    """Execute one registered experiment, returning its printable
    summary."""
    try:
        spec = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise CampaignError(
            f"unknown experiment {name!r}; known: {known}") from None
    sink = telemetry.current()
    if sink is None:
        return spec.runner(request)
    sink.count("exp.runs")
    with sink.span(f"exp.{name}"):
        return spec.runner(request)


@dataclass
class CallHarness:
    """Minimal single-core machine for the §2 reverse-engineering
    experiments: load programs, call code addresses, read the LBR.

    ``call`` pushes the halt gadget as the return address and runs to
    the ``hlt`` — the same structure as the paper's Experiment 1/2
    driver loops.
    """

    config: CpuGeneration
    core: Core = field(init=False)
    memory: VirtualMemory = field(init=False)
    state: MachineState = field(init=False)

    def __post_init__(self) -> None:
        self.core = Core(self.config)
        self.memory = VirtualMemory()
        self.state = MachineState(self.memory)
        self.state.setup_stack(0x7FFF_0000_0000)
        gadget = Assembler(base=HALT_GADGET)
        gadget.label("halt")
        gadget.emit("hlt")
        gadget.assemble().load_into(self.memory)

    def load(self, program: AssembledProgram) -> None:
        program.load_into(self.memory)

    def call(self, address: int) -> None:
        """Run the code at ``address`` until it returns (to the halt
        gadget) and the core halts."""
        self.state.push(HALT_GADGET)
        self.state.rip = address
        self.core.run(self.state)

    def flush_btb(self) -> None:
        """The experiments' ``flushBTB()`` (the paper uses the BTB
        cleanup routine from BranchScope [18])."""
        self.core.btb.flush()
        self.core.lbr.clear()

    def elapsed_after(self, from_pc: int) -> Optional[int]:
        return self.core.lbr.elapsed_after(from_pc)


@dataclass
class Series:
    """One measured curve of a figure."""

    label: str
    xs: List[int] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: int, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)


@dataclass
class FigureResult:
    """A reproduced figure: named series + headline findings."""

    name: str
    series: List[Series] = field(default_factory=list)
    findings: Dict[str, object] = field(default_factory=dict)
