"""Figure 5: the four attacker/victim PW overlap scenarios.

NV-Core must detect all four ways a victim PW can overlap the
monitored range:

1. victim PW *ends* (taken branch) inside the attacker range, entered
   from below;
2. victim PW ends inside the attacker range, entered from within;
3. victim PW of straight-line code covers the upper part of the range
   and continues past it;
4. victim straight-line code lies entirely within the range.

...and must stay silent when the victim executes elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cpu.config import CpuGeneration, generation
from ..cpu.core import Core
from ..core.nv_core import NvCore
from ..core.pw import PwRange
from ..isa.assembler import AssembledProgram, Assembler
from ..system.kernel import Kernel
from ..system.process import Process
from .common import RunRequest, register_experiment

#: monitored victim range: one aligned 32-byte block
RANGE_START = 0x0040_0200
RANGE_END = RANGE_START + 32


def _scenario_program(scenario: str) -> AssembledProgram:
    """Victim code per scenario; entry label is ``entry``."""
    asm = Assembler(base=RANGE_START - 0x80)
    asm.label("entry")
    if scenario == "branch_from_below":
        # (1) enter below the range, take a branch inside it
        asm.nops((RANGE_START + 6) - (RANGE_START - 0x80))
        asm.emit("jmp8", "out")          # jmp inside [start, end)
        asm.org(RANGE_END + 0x40)
        asm.label("out")
    elif scenario == "branch_within":
        # (2) enter inside the range, take a branch inside it
        asm.org(RANGE_START + 2)
        asm.label("entry2")
        asm.nops(6)
        asm.emit("jmp8", "out")
        asm.org(RANGE_END + 0x40)
        asm.label("out")
    elif scenario == "straightline_through":
        # (3) straight-line code entering mid-range and running past
        asm.org(RANGE_START + 10)
        asm.label("entry2")
        asm.nops(40)
    elif scenario == "straightline_inside":
        # (4) straight-line code fully inside the range
        asm.org(RANGE_START + 4)
        asm.label("entry2")
        asm.nops(20)
    elif scenario == "elsewhere":
        asm.nops(24)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    asm.emit("hlt")
    return asm.assemble()


@dataclass
class OverlapResult:
    detections: Dict[str, bool]

    @property
    def all_correct(self) -> bool:
        expected = {
            "branch_from_below": True,
            "branch_within": True,
            "straightline_through": True,
            "straightline_inside": True,
            "elsewhere": False,
        }
        return self.detections == expected


def run_figure5(config: Optional[CpuGeneration] = None, *,
                detector: str = "hybrid") -> OverlapResult:
    config = config if config is not None else generation("coffeelake")
    detections: Dict[str, bool] = {}
    for scenario in ("branch_from_below", "branch_within",
                     "straightline_through", "straightline_inside",
                     "elsewhere"):
        kernel = Kernel(Core(config))
        nv = NvCore(kernel, detector=detector)
        session = nv.monitor([PwRange(RANGE_START, RANGE_END)])
        program = _scenario_program(scenario)
        entry = program.symbols.get("entry2",
                                    program.address_of("entry"))
        victim = Process(name=f"victim-{scenario}", entry=entry)
        program.load_into(victim.memory)
        kernel.add_process(victim)
        session.prime()
        kernel.run_slice(victim)
        detections[scenario] = session.probe()[0]
    return OverlapResult(detections)


@register_experiment("fig5", "Figure 5 — overlap scenarios")
def summarize_figure5(request: RunRequest) -> str:
    result = run_figure5(config=request.config_for("coffeelake"))
    lines = [f"{name}: detected={hit}"
             for name, hit in result.detections.items()]
    lines.append(f"all correct: {result.all_correct}")
    return "\n".join(lines)
