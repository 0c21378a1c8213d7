"""Attack × BTB-design portability matrix (``exp_portability``).

The paper derives its primitives on one Intel-shaped BTB.  This
experiment re-runs three of them against every backend in
:mod:`repro.cpu.btb_backends` and reports which **work** (Intel-grade
signal), **degrade** (a partial signal survives the design change) or
**die** (no signal at all):

``nv_dealloc``
    The NV-Core deallocation sweep (Figure 2 / :func:`run_figure2`):
    does executing aliased non-branch bytes kill the victim's entry,
    and over which placement window?
``pw_range``
    The prediction-window traversal sweep (Figure 4 /
    :func:`run_figure4`): does a planted aliased entry perturb fetches
    started anywhere below its offset, or only at its exact anchor?
``fingerprint``
    A per-offset plant→run-victim→probe scan of one 32-byte victim
    block: plant a probe entry aliasing every block offset, run two
    victim code fragments, and measure how much of the block layout
    the surviving/mispredicting probes recover (per-fragment Jaccard
    similarity).

Designs with full tags (sodor) have no reachable alias inside the
simulated 47-bit address space, so every aliasing-based primitive dies
by construction — the drills gate on ``collision_distance`` instead of
attempting to assemble out-of-range programs.

Every drill runs a fixed, small iteration count and a zero-noise
config, so the rendered matrix is **byte-stable**: the registered
experiment ignores ``request.fast``/``request.seed`` and CI diffs its
output against ``reports/portability_golden.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..cpu.btb_backends import make_backend
from ..cpu.config import CpuGeneration, backend_generation, generation
from ..isa.assembler import Assembler
from .common import CallHarness, RunRequest, register_experiment
from .exp_btb_dealloc import run_figure2
from .exp_pw_range import run_figure4

#: design families, matrix column order
BACKENDS: Tuple[str, ...] = ("intel", "arm", "sodor", "orcs")

#: drills, matrix row order
DRILLS: Tuple[str, ...] = ("nv_dealloc", "pw_range", "fingerprint")

#: iteration count for the figure-based drills — fixed (never scaled
#: by ``request.fast``) so the matrix is byte-stable
_ITERATIONS = 2

#: no usable alias below this distance bound (the simulated address
#: space is 47-bit)
_ALIAS_LIMIT = 1 << 46

#: 32-byte-aligned victim block for the fingerprint drill
_VBLOCK = 0x0040_0000
#: two victim code fragments: (start offset, nop count); each is
#: ``nops`` 1-byte nops followed by a 1-byte ``ret``
_FRAGMENTS: Tuple[Tuple[int, int], ...] = ((2, 8), (20, 6))


@dataclass(frozen=True)
class DrillVerdict:
    """One matrix cell."""

    verdict: str                # "works" | "degraded" | "dies"
    detail: str


def _span(values: Sequence[int]) -> str:
    """Compact deterministic rendering: ``[a..b]`` for a contiguous
    run, the literal list otherwise."""
    values = sorted(values)
    if not values:
        return "[]"
    if values == list(range(values[0], values[-1] + 1)):
        if len(values) == 1:
            return f"[{values[0]}]"
        return f"[{values[0]}..{values[-1]}]"
    return "[" + ",".join(str(v) for v in values) + "]"


def _no_alias(config: CpuGeneration) -> bool:
    return config.collision_distance > _ALIAS_LIMIT


def _classify_sweep(gap: List[int], expected: List[int],
                    label: str) -> DrillVerdict:
    detail = f"{label} {_span(gap)} (intel-grade {_span(expected)})"
    if gap == expected:
        return DrillVerdict("works", detail)
    if gap:
        return DrillVerdict("degraded", detail)
    return DrillVerdict("dies", detail)


# ----------------------------------------------------------------------
# drills
# ----------------------------------------------------------------------
def drill_nv_dealloc(config: CpuGeneration) -> DrillVerdict:
    """Figure 2 on this design: which F2 placements deallocate F1?"""
    if _no_alias(config):
        return DrillVerdict(
            "dies", "no tag aliasing within the address space")
    result = run_figure2(config, iterations=_ITERATIONS)
    return _classify_sweep(result.findings["gap_deltas"],
                           result.findings["expected_gap_deltas"],
                           "gap deltas")


def drill_pw_range(config: CpuGeneration) -> DrillVerdict:
    """Figure 4 on this design: which fetch offsets see the planted
    aliased entry?"""
    if _no_alias(config):
        return DrillVerdict(
            "dies", "no tag aliasing within the address space")
    result = run_figure4(config, iterations=_ITERATIONS)
    return _classify_sweep(result.findings["gap_offsets"],
                           result.findings["expected_gap_offsets"],
                           "gap offsets")


def _victim_program():
    asm = Assembler(base=_VBLOCK + _FRAGMENTS[0][0])
    for index, (start, nops) in enumerate(_FRAGMENTS):
        asm.org(_VBLOCK + start)
        asm.label(f"V{index}")
        asm.nops(nops)
        asm.emit("ret")
    return asm.assemble()


def _fragment_truth() -> List[Set[int]]:
    """Block offsets each fragment's bytes occupy (nops + ret)."""
    return [set(range(start, start + nops + 1))
            for start, nops in _FRAGMENTS]


def _probe_mispredicts(config: CpuGeneration, offset: int,
                       last_byte_index: bool) -> bool:
    """Plant a probe entry aliasing ``_VBLOCK + offset``, run both
    victim fragments, re-run the probe, and report whether it
    mispredicted (= the victim perturbed the shared entry)."""
    alias = _VBLOCK + config.collision_distance
    # Anchor the probe jmp's *index byte* at ``alias + offset``: its
    # last byte on Intel-family designs, its first byte otherwise.
    probe_pc = alias + offset - 1 if last_byte_index else alias + offset
    asm = Assembler(base=probe_pc)
    asm.label("P")
    asm.emit("jmp8", "PL")
    asm.org(alias + 0x60)          # return target outside the block
    asm.label("PL")
    asm.emit("ret")
    probe = asm.assemble()

    harness = CallHarness(config)
    harness.load(_victim_program())
    harness.load(probe)
    harness.flush_btb()
    harness.call(probe_pc)                       # plant
    for index in range(len(_FRAGMENTS)):
        harness.call(_VBLOCK + _FRAGMENTS[index][0])   # victim
    harness.core.lbr.clear()
    harness.call(probe_pc)                       # probe
    record = harness.core.lbr.find_from(probe_pc)
    return record is not None and record.mispredicted


def _jaccard(a: Set[int], b: Set[int]) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def drill_fingerprint(config: CpuGeneration) -> DrillVerdict:
    """Per-offset plant/probe scan of the victim block: how much of
    the two fragments' layout do the probes recover?"""
    if _no_alias(config):
        return DrillVerdict(
            "dies", "no tag aliasing within the address space")
    last_byte_index = make_backend(config).last_byte_index
    # A last-byte-anchored probe ending at block offset 0 *starts* in
    # the previous block, so its re-run lookup opens there and can
    # never hit its own entry: it mispredicts unconditionally and the
    # attacker has no detector at that offset.  Skip it.
    scannable = range(1, 32) if last_byte_index else range(32)
    recovered = {
        offset for offset in scannable
        if _probe_mispredicts(config, offset, last_byte_index)
    }
    truth = _fragment_truth()
    # Score each fragment against the recovered offsets in its half of
    # the block (fragment 0 lives below offset 16, fragment 1 above).
    similarities = [
        _jaccard({o for o in recovered if (o >= 16) == (index == 1)},
                 fragment)
        for index, fragment in enumerate(truth)
    ]
    detail = (f"recovered {len(recovered)}/{len(scannable)} scanned "
              "offsets, similarity "
              + " ".join(f"F{i}={s:.2f}"
                         for i, s in enumerate(similarities)))
    if all(s >= 0.9 for s in similarities):
        return DrillVerdict("works", detail)
    if recovered:
        return DrillVerdict("degraded", detail)
    return DrillVerdict("dies", detail)


_DRILL_FUNCS = {
    "nv_dealloc": drill_nv_dealloc,
    "pw_range": drill_pw_range,
    "fingerprint": drill_fingerprint,
}


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------
def run_portability(base: str = "skylake"
                    ) -> Dict[str, Dict[str, DrillVerdict]]:
    """Run every drill against every backend; ``matrix[backend][drill]``."""
    matrix: Dict[str, Dict[str, DrillVerdict]] = {}
    for backend in BACKENDS:
        config = backend_generation(backend, base=generation(base))
        matrix[backend] = {
            drill: _DRILL_FUNCS[drill](config) for drill in DRILLS
        }
    return matrix


def render_matrix(matrix: Dict[str, Dict[str, DrillVerdict]],
                  base: str = "skylake") -> str:
    """Byte-stable report: geometry table, verdict grid, details."""
    lines = ["BTB portability matrix (attack primitive x design family)",
             f"base generation: {base}",
             ""]
    lines.append(f"{'backend':<8} {'geometry':<24} {'anchor':<6} "
                 f"{'hits':<6} replacement")
    for backend in BACKENDS:
        config = backend_generation(backend, base=generation(base))
        strategy = make_backend(config)
        geometry = (f"{strategy.sets}x{strategy.ways} keep "
                    f"{strategy.tag_keep_bits}")
        anchor = "last" if strategy.last_byte_index else "first"
        hits = "range" if strategy.range_hits else "exact"
        lines.append(f"{backend:<8} {geometry:<24} {anchor:<6} "
                     f"{hits:<6} {strategy.replacement}")
    lines.append("")
    header = f"{'primitive':<12}" + "".join(
        f" {backend:<9}" for backend in BACKENDS)
    lines.append(header)
    for drill in DRILLS:
        row = f"{drill:<12}" + "".join(
            f" {matrix[backend][drill].verdict:<9}"
            for backend in BACKENDS)
        lines.append(row.rstrip())
    lines.append("")
    lines.append("details:")
    for backend in BACKENDS:
        for drill in DRILLS:
            cell = matrix[backend][drill]
            lines.append(f"  {backend}/{drill}: {cell.verdict} — "
                         f"{cell.detail}")
    return "\n".join(lines)


@register_experiment("portability",
                     "attack x BTB-design survival matrix")
def summarize_portability(request: RunRequest) -> str:
    """Render the matrix.  Deliberately ignores ``request.fast`` and
    ``request.seed``: the drills are deterministic and fixed-size so
    the output can be diffed against the committed golden in every
    mode (``request.backend`` is ignored too — the matrix spans all
    backends by construction)."""
    del request
    return render_matrix(run_portability())
