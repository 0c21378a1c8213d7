"""E7/E14: hardware mitigations and the data-oblivious defense.

§4.1: IBRS/IBPB (deployed) do *not* stop NightVision — they only drop
indirect-branch BTB entries.  §8.2: a full BTB flush on context switch
or BTB domain partitioning would stop it (not deployed), and
data-oblivious programming removes the secret-dependent control flow
entirely.

Accuracy is measured exactly as in use case 1; "stopped" means the
attack degrades to guessing (we report raw accuracies; chance level is
~0.5 for balanced secrets, and the attacker additionally *knows* it
learned nothing when neither arm PW ever matches).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..core.nv_core import NvCore
from ..core.nv_user import NvUser
from ..core.pw import PwRange
from ..cpu.core import Core
from ..defenses.hardware import HARDWARE_MITIGATIONS
from ..defenses.oblivious import build_oblivious_gcd_victim
from ..lang import CompileOptions
from ..memory.address import block_end
from ..system.kernel import Kernel
from ..analysis import ascii_table, pct
from ..victims.library import build_gcd_victim
from .common import RunRequest, register_experiment
from .exp_cfl import LeakResult, _attack_gcd


def run_hardware_grid(*, runs: int = 15,
                      timing_noise: float = 2.0,
                      seed: int = 31) -> Dict[str, LeakResult]:
    """GCD leak accuracy under each hardware mitigation."""
    grid: Dict[str, LeakResult] = {}
    options = CompileOptions(opt_level=2, align_jumps=16)
    for name, builder in HARDWARE_MITIGATIONS.items():
        config = builder(timing_noise=timing_noise)
        victim = build_gcd_victim("3.0", options=options, nlimbs=2,
                                  with_yield=True)
        grid[name] = _attack_gcd(victim, config, runs, seed,
                                 label=f"hw={name}")
    return grid


@dataclass
class ObliviousResult:
    """NV-U against the data-oblivious GCD."""

    #: distinct per-fragment match vectors across different secrets
    distinct_observations: int
    #: fraction of secret keys whose observation sequences differ
    #: from the first key's (0.0 = the channel carries no information)
    information_rate: float


def run_oblivious(*, keys: int = 6, seed: int = 5,
                  timing_noise: float = 0.0) -> ObliviousResult:
    """Show the oblivious GCD's observations are secret-independent."""
    from ..defenses.hardware import stock

    config = stock(timing_noise=timing_noise)
    victim = build_oblivious_gcd_victim(with_yield=True)
    kernel = Kernel(Core(config))
    nv = NvCore(kernel)
    nv_user = NvUser(nv)
    # Monitor two PWs inside the oblivious kernel's body: with no
    # secret-dependent control flow every run lights them identically.
    info = victim.compiled.info("gcd_oblivious")
    start = info.entry + 64
    session = nv.monitor([
        PwRange(start, min(block_end(start), start + 16)),
    ])
    observations = []
    rng = random.Random(seed)
    for _ in range(keys):
        a = rng.getrandbits(48) | 1
        b = rng.getrandbits(48) | 1
        process = victim.new_process({"ta": a, "tb": b})
        kernel.add_process(process)
        outcome = nv_user.run(process, session, max_fragments=400)
        observations.append(tuple(
            tuple(obs.matched) for obs in outcome.observations))
    distinct = len(set(observations))
    differing = sum(1 for obs in observations[1:]
                    if obs != observations[0])
    return ObliviousResult(
        distinct_observations=distinct,
        information_rate=differing / max(len(observations) - 1, 1),
    )


@register_experiment("mitigations", "§8.2 — hardware mitigations + oblivious")
def summarize_mitigations(request: RunRequest) -> str:
    grid = run_hardware_grid(runs=3 if request.fast else 15,
                             **request.seeded())
    rows = [(name, pct(r.accuracy),
             "LEAKS" if r.accuracy > 0.9 else "holds")
            for name, r in grid.items()]
    oblivious = run_oblivious(keys=3 if request.fast else 8,
                              **request.seeded())
    rows.append(("data-oblivious gcd",
                 f"info rate {pct(oblivious.information_rate)}",
                 "holds" if oblivious.information_rate == 0
                 else "LEAKS"))
    return ascii_table(("mitigation", "accuracy", "verdict"), rows)
