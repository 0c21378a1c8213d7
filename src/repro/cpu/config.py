"""CPU model configuration and per-generation presets.

The paper reverse-engineers five Intel generations (§2.3).  The
behaviours that differ across them — how many low-order address bits
the BTB tag check keeps — are captured here, along with the first-order
timing model parameters used for cycle accounting.

Timing parameters are *not* calibrated to any specific silicon; the
reproduction claims only relative effects (a mispredict costs a large,
constant number of cycles more than a correct prediction), which is all
Figures 2 and 4 rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class CpuGeneration:
    """All parameters of the simulated core."""

    name: str = "skylake"

    # ----- BTB organisation (paper §2.1, §2.3 footnote 1) -------------
    #: number of BTB sets (set index = PC bits [5, 5+log2(sets)))
    btb_sets: int = 512
    #: associativity
    btb_ways: int = 8
    #: BTB lookups ignore address bits >= tag_keep_bits.  SkyLake-family
    #: parts ignore bit 33 and above (keep 33), IceLake ignores bit 34
    #: and above (keep 34).
    tag_keep_bits: int = 33
    #: BTB design family (strategy key into
    #: :mod:`repro.cpu.btb_backends`): "intel" (the paper's
    #: range-semantics model, default), "arm", "sodor" or "orcs".
    #: Select a non-Intel design via :func:`backend_generation` so the
    #: geometry fields above stay coherent with the strategy.
    btb_backend: str = "intel"

    # ----- front-end / timing -----------------------------------------
    #: cycles charged per prediction-window fetch
    fetch_cycles: float = 1.0
    #: sustained issue width (instructions per cycle)
    issue_width: int = 4
    #: squash/redirect penalty in cycles (mispredict or BTB false hit)
    squash_penalty: float = 20.0
    #: prediction windows the front end finishes fetching+decoding
    #: past a timer interrupt before the pipeline drains.  Decode-time
    #: BTB deallocations (Takeaway 1) still fire for those bytes even
    #: though the instructions never retire — this is the §6.3
    #: behaviour NV-S single-stepping fundamentally relies on.
    #: 0 models an (unrealistic) perfectly-precise front end.
    drain_windows: int = 1
    #: instructions the back end speculatively *executes* past a timer
    #: interrupt (taken-branch BTB allocations/target verifications
    #: included) — the §6.3 behaviour; speculation stops at the first
    #: mispredicted transfer (the squash + pending interrupt win).
    #: 0 disables (unrealistically precise stepping).
    spec_lookahead: int = 12
    #: whether adjacent ALU+Jcc pairs macro-fuse (retire as one op)
    fusion_enabled: bool = True

    # ----- measurement realism -----------------------------------------
    #: stddev of Gaussian noise added to LBR elapsed-cycle readings
    timing_noise: float = 0.0
    #: RNG seed for noise / randomized replacement decisions
    seed: int = 0

    # ----- mitigations (repro of §4.1 / §8.2) ---------------------------
    #: IBRS/IBPB model: context/privilege switches invalidate only
    #: *indirect* BTB entries (never defeats NightVision)
    ibrs_ibpb: bool = False
    #: flush the whole BTB on every context switch (§8.2 mitigation;
    #: defeats NightVision)
    flush_btb_on_switch: bool = False
    #: tag BTB entries with a security-domain id so domains never
    #: collide (§8.2 partitioning mitigation; defeats NightVision)
    btb_partitioning: bool = False

    @property
    def collision_distance(self) -> int:
        """Smallest address distance at which two PCs can alias in the
        BTB: 2**tag_keep_bits (8 GiB for SkyLake-family, 16 for ICL)."""
        return 1 << self.tag_keep_bits

    def with_(self, **overrides) -> "CpuGeneration":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: Presets for the generations evaluated in the paper.  The paper pads
#: F1/F2 by "4/8 GB"; its footnote pins SkyLake-family truncation at
#: bit 33 and IceLake at bit 34, which is what we encode.
GENERATIONS: Dict[str, CpuGeneration] = {
    "skylake": CpuGeneration(name="skylake", tag_keep_bits=33),
    "kabylake": CpuGeneration(name="kabylake", tag_keep_bits=33),
    "coffeelake": CpuGeneration(name="coffeelake", tag_keep_bits=33),
    "cascadelake": CpuGeneration(name="cascadelake", tag_keep_bits=33),
    "icelake": CpuGeneration(name="icelake", tag_keep_bits=34),
}


def generation(name: str, **overrides) -> CpuGeneration:
    """Look up a preset by name, optionally overriding fields."""
    try:
        preset = GENERATIONS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(GENERATIONS))
        raise ValueError(f"unknown generation {name!r}; known: {known}")
    return preset.with_(**overrides) if overrides else preset


#: Geometry each BTB design family carries (applied on top of a base
#: generation by :func:`backend_generation`).  "intel" is empty — the
#: Intel backend uses whatever the generation preset says (512x8,
#: keep 33/34).  The non-Intel entries pin the geometry the design was
#: reverse-engineered / published with:
#:
#: * ``arm`` — 512 sets x 4 ways, partial tags keeping 32 bits (the
#:   Wan 2024 report's closest-alias distance of 4 GiB);
#: * ``sodor`` — direct-mapped (1 way) with full tags: no aliasing
#:   inside the simulated 47-bit address space;
#: * ``orcs`` — OrCS's 128 sets x 4 ways, modelled with SkyLake-style
#:   truncation (keep 33) so aliased probes remain constructible.
BTB_BACKENDS: Dict[str, Dict[str, int]] = {
    "intel": {},
    "arm": {"btb_sets": 512, "btb_ways": 4, "tag_keep_bits": 32},
    "sodor": {"btb_sets": 1024, "btb_ways": 1, "tag_keep_bits": 47},
    "orcs": {"btb_sets": 128, "btb_ways": 4, "tag_keep_bits": 33},
}


def backend_generation(backend: str,
                       base: Optional[CpuGeneration] = None,
                       **overrides) -> CpuGeneration:
    """A config running ``base`` (default: the default generation) on
    the named BTB design, with the design's geometry applied so
    ``collision_distance`` and friends describe that backend."""
    key = backend.lower()
    try:
        geometry = BTB_BACKENDS[key]
    except KeyError:
        known = ", ".join(sorted(BTB_BACKENDS))
        raise ValueError(
            f"unknown BTB backend {backend!r}; known: {known}") from None
    config = base if base is not None else DEFAULT_GENERATION
    return config.with_(btb_backend=key, **geometry, **overrides)


DEFAULT_GENERATION = GENERATIONS["coffeelake"].with_(name="coffeelake")
