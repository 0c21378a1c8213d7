"""Measurement model: ground-truth dynamic traces -> what NV-S sees.

The two reference victims (GCD, bn_cmp) are extracted with the real
NV-S machinery end-to-end.  Corpus-scale victims (thousands of other
functions, standing in for the paper's 175 K) would cost hours of
full extraction each, so their *measured* traces are derived by
applying the same measurement artifacts to cheap ground-truth traces:

* **macro-fusion** — a fusible ALU followed adjacently by a Jcc
  retires as one unit, so the Jcc's PC is never measured (§7.3; this
  is what caps self-similarity at 75–90 %);
* **residual measurement error** — a small per-step error rate models
  the unresolved/misresolved steps real extraction leaves behind.

The fusion model reuses :func:`repro.cpu.fusion.can_fuse`, i.e. it is
*the same rule the cycle-accurate core applies*, so derived traces and
NV-S-extracted traces agree (tested in the integration suite).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..cpu.fusion import can_fuse
from ..isa.instructions import Instruction


def retire_unit_starts(trace: Sequence[int],
                       instructions: Dict[int, Instruction]
                       ) -> List[int]:
    """Collapse an instruction-level dynamic trace into retire-unit
    leading PCs under the macro-fusion rule."""
    units: List[int] = []
    append = units.append
    lookup = instructions.get
    end = len(trace)
    index = 0
    while index < end:
        pc = trace[index]
        append(pc)
        index += 1
        instruction = lookup(pc)
        # Only a fusible ALU op can lead a pair, so the follower is
        # looked at only after its own spec says so.
        if (instruction is not None and instruction.spec.fusible
                and index < end):
            next_pc = trace[index]
            follower = lookup(next_pc)
            if (follower is not None
                    and next_pc == pc + instruction.length
                    and can_fuse(instruction, follower)):
                index += 1      # fused pair: one measured unit
    return units


def apply_measurement_noise(units: Sequence[int], *,
                            error_rate: float = 0.0,
                            drop_rate: float = 0.0,
                            seed: int = 0) -> List[int]:
    """Inject residual extraction error: each unit independently gets
    dropped (unresolved step) or perturbed by ±1–3 bytes
    (misresolved base)."""
    if error_rate <= 0.0 and drop_rate <= 0.0:
        return list(units)
    rng = random.Random(seed)
    out: List[int] = []
    for pc in units:
        roll = rng.random()
        if roll < drop_rate:
            continue
        if roll < drop_rate + error_rate:
            out.append(pc + rng.choice((-3, -2, -1, 1, 2, 3)))
        else:
            out.append(pc)
    return out


def measured_trace(trace: Sequence[int],
                   instructions: Dict[int, Instruction], *,
                   error_rate: float = 0.005,
                   drop_rate: float = 0.005,
                   seed: int = 0) -> List[int]:
    """Full corpus measurement model: fusion + residual noise."""
    units = retire_unit_starts(trace, instructions)
    return apply_measurement_noise(units, error_rate=error_rate,
                                   drop_rate=drop_rate, seed=seed)
