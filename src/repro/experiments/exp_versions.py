"""Figure 13: fingerprint robustness across library versions and
compiler optimization levels.

Left plot: GCD from eight mbedTLS versions (2.5–3.1), each measured
and scored against each version's static reference.  The paper's
finding is a block structure — versions sharing source (2.5–2.15;
2.16+; 3.x) score high against each other and low across groups.

Right plot: GCD compiled at -O0/-O2/-O3, cross-scored.  Different
levels produce different binaries, so similarity degrades off the
diagonal — the paper's conclusion that the attacker must prepare
references per version *and* per compiler configuration.

Victim traces here use the corpus measurement model (ground truth +
the same fusion/noise artifacts NV-S exhibits); the full NV-S
extraction path is exercised end-to-end in exp_fingerprint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..fingerprint.measurement import measured_trace
from ..fingerprint.similarity import set_similarity
from ..lang import CompileOptions
from ..victims.gcd import GCD_VERSIONS, VERSION_GROUPS
from ..victims.library import VictimProgram, build_gcd_victim
from .common import RunRequest, register_experiment

DEFAULT_INPUTS = {"ta": 2 * 3 * 17 * 23 * 31, "tb": 2 * 3 * 29 * 41}


def _label_seed(label: str) -> int:
    """Noise seed of one matrix row, stable across processes (the
    builtin ``hash`` of a string is salted per interpreter)."""
    return zlib.crc32(label.encode("utf-8")) & 0xFFFF


def measured_function_pcs(victim: VictimProgram, inputs: dict, *,
                          function: Optional[str] = None,
                          error_rate: float = 0.01,
                          drop_rate: float = 0.01,
                          seed: int = 0) -> List[int]:
    """Measured (fusion+noise) relative PCs of one function's
    execution — own nesting level only."""
    function = function or victim.fingerprint_function
    info = victim.compiled.info(function)
    ground = victim.ground_truth(inputs)
    own_level = [pc for pc in ground.trace if info.contains(pc)]
    measured = measured_trace(
        own_level, victim.compiled.program.instructions,
        error_rate=error_rate, drop_rate=drop_rate, seed=seed)
    return [pc - info.entry for pc in measured]


def reference_pcs(victim: VictimProgram,
                  function: Optional[str] = None) -> List[int]:
    function = function or victim.fingerprint_function
    info = victim.compiled.info(function)
    return [pc - info.entry
            for pc in victim.compiled.static_pcs(function)
            if pc >= info.entry]


@dataclass
class SimilarityMatrix:
    labels: Tuple[str, ...]
    #: values[victim_label][reference_label]
    values: Dict[str, Dict[str, float]]

    def value(self, victim: str, reference: str) -> float:
        return self.values[victim][reference]

    def diagonal_min(self) -> float:
        return min(self.values[label][label] for label in self.labels)

    def off_diagonal_max(self, groups: Optional[
            Dict[str, Tuple[str, ...]]] = None) -> float:
        """Largest cross-*group* similarity (same-group pairs share
        source and legitimately score high)."""
        def same_group(a: str, b: str) -> bool:
            if groups is None:
                return a == b
            for members in groups.values():
                if a in members and b in members:
                    return True
            return False
        return max(
            self.values[v][r]
            for v in self.labels for r in self.labels
            if not same_group(v, r)
        )


def run_figure13_versions(*, inputs: Optional[dict] = None,
                          opt_level: int = 2,
                          nlimbs: int = 2,
                          versions: Sequence[str] = GCD_VERSIONS
                          ) -> SimilarityMatrix:
    """Left plot: version x version similarity matrix."""
    inputs = inputs if inputs is not None else DEFAULT_INPUTS
    victims = {
        version: build_gcd_victim(
            version, options=CompileOptions(opt_level=opt_level),
            nlimbs=nlimbs, with_yield=False)
        for version in versions
    }
    measured = {
        version: measured_function_pcs(victim, inputs,
                                       seed=_label_seed(version))
        for version, victim in victims.items()
    }
    references = {
        version: reference_pcs(victim)
        for version, victim in victims.items()
    }
    values = {
        v: {r: set_similarity(measured[v], references[r])
            for r in versions}
        for v in versions
    }
    return SimilarityMatrix(tuple(versions), values)


def run_figure13_optlevels(*, inputs: Optional[dict] = None,
                           version: str = "3.0",
                           nlimbs: int = 2,
                           levels: Sequence[int] = (0, 2, 3)
                           ) -> SimilarityMatrix:
    """Right plot: optimization-level cross-similarity matrix."""
    inputs = inputs if inputs is not None else DEFAULT_INPUTS
    victims = {
        f"O{level}": build_gcd_victim(
            version, options=CompileOptions(opt_level=level),
            nlimbs=nlimbs, with_yield=False)
        for level in levels
    }
    measured = {
        label: measured_function_pcs(victim, inputs,
                                     seed=_label_seed(label))
        for label, victim in victims.items()
    }
    references = {
        label: reference_pcs(victim)
        for label, victim in victims.items()
    }
    labels = tuple(victims)
    values = {
        v: {r: set_similarity(measured[v], references[r])
            for r in labels}
        for v in labels
    }
    return SimilarityMatrix(labels, values)


def version_groups() -> Dict[str, Tuple[str, ...]]:
    return dict(VERSION_GROUPS)


@register_experiment("versions", "Figure 13 — versions × opt levels")
def summarize_figure13(request: RunRequest) -> str:
    left = run_figure13_versions()
    right = run_figure13_optlevels()
    return (f"versions: within-group min "
            f"{left.diagonal_min():.2f} vs cross-group max "
            f"{left.off_diagonal_max(version_groups()):.2f}\n"
            f"opt levels: diagonal min {right.diagonal_min():.2f} vs "
            f"off-diagonal max {right.off_diagonal_max():.2f}")
