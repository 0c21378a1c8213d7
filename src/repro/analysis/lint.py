"""The ``repro lint`` engine: leakage + aliasing audit of the victims
library.

For every victim in the lint corpus this module recovers the CFG,
runs the secret-taint analysis seeded from the victim's declared
``secret_inputs``, computes the static BTB-aliasing summary, and
renders one deterministic findings report.  A finding in a function
outside the victim's ``leak_allowlist`` is **NEW** — the lint exits
non-zero, which is how CI catches an unannotated secret-dependent
branch sneaking into a victim.

The report is byte-stable across runs (no timestamps, sorted rows), so
CI diffs it against a committed golden copy (``reports/lint_golden.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..cpu.config import CpuGeneration, DEFAULT_GENERATION
from .aliasing import AliasMap, build_alias_map
from .cfg import CFG, CodeImage, linear_sweep, recover_module_cfg
from .report import ascii_table
from .taint import LeakFinding, Region, TaintReport, analyze_taint


@dataclass
class VictimLintResult:
    """Everything the lint derived for one victim."""

    name: str
    cfg: CFG
    taint: TaintReport
    alias_map: AliasMap
    allowlist: Tuple[str, ...]

    @property
    def new_findings(self) -> List[LeakFinding]:
        allowed = set(self.allowlist)
        return [f for f in self.taint.findings
                if f.function not in allowed]

    @property
    def known_findings(self) -> List[LeakFinding]:
        allowed = set(self.allowlist)
        return [f for f in self.taint.findings if f.function in allowed]


@dataclass
class LintReport:
    """Aggregated lint verdict over the corpus."""

    results: List[VictimLintResult] = field(default_factory=list)

    @property
    def new_findings(self) -> List[Tuple[str, LeakFinding]]:
        return [(result.name, finding)
                for result in self.results
                for finding in result.new_findings]

    @property
    def ok(self) -> bool:
        return not self.new_findings

    def render(self) -> str:
        return render_report(self)


def victim_regions(victim) -> List[Region]:
    """The taint regions of a victim's data layout."""
    return [Region(spec.name, spec.address, spec.size)
            for spec in victim.layout.arrays.values()]


def lint_victim(name: str, victim, *,
                generation: CpuGeneration = DEFAULT_GENERATION
                ) -> VictimLintResult:
    """Run CFG recovery, taint, and aliasing over one victim."""
    cfg = recover_module_cfg(victim.compiled)
    taint = analyze_taint(cfg, victim_regions(victim),
                          victim.secret_inputs)
    swept = linear_sweep(CodeImage.from_program(victim.compiled.program))
    swept.update(cfg.instrs)
    alias_map = build_alias_map(swept, generation)
    return VictimLintResult(name=name, cfg=cfg, taint=taint,
                            alias_map=alias_map,
                            allowlist=victim.leak_allowlist)


def lint_corpus() -> List[Tuple[str, object]]:
    """The victims the lint (and CI) audits, in report order."""
    from ..victims.library import (build_bignum_victim,
                                   build_bn_cmp_victim,
                                   build_gcd_victim)

    return [
        ("gcd-2.5", build_gcd_victim("2.5")),
        ("gcd-2.16", build_gcd_victim("2.16")),
        ("gcd-3.0", build_gcd_victim("3.0")),
        ("bn_cmp", build_bn_cmp_victim()),
        ("bignum", build_bignum_victim()),
    ]


def run_lint(corpus: Optional[List[Tuple[str, object]]] = None, *,
             generation: CpuGeneration = DEFAULT_GENERATION
             ) -> LintReport:
    corpus = corpus if corpus is not None else lint_corpus()
    report = LintReport()
    for name, victim in corpus:
        report.results.append(
            lint_victim(name, victim, generation=generation))
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_report(report: LintReport) -> str:
    lines: List[str] = []
    lines.append("repro lint — static victim audit")
    lines.append("================================")
    lines.append("")

    rows = []
    for result in report.results:
        cfg = result.cfg
        rows.append([
            result.name,
            str(len(cfg.blocks)),
            str(len(cfg.edges)),
            str(len(result.taint.findings)),
            str(len(result.new_findings)),
            str(result.alias_map.collision_count()),
            str(len(result.alias_map.false_hit_blocks)),
        ])
    lines.append(ascii_table(
        ["victim", "blocks", "edges", "findings", "new",
         "collisions", "false-hit sites"], rows))
    lines.append("")

    finding_rows = []
    for result in report.results:
        allowed = set(result.allowlist)
        for finding in result.taint.findings:
            status = ("known" if finding.function in allowed else "NEW")
            finding_rows.append([
                result.name,
                finding.function,
                f"{finding.pc:#x}",
                finding.mnemonic,
                finding.kind,
                status,
            ])
    if finding_rows:
        lines.append("leak findings")
        lines.append("-------------")
        lines.append(ascii_table(
            ["victim", "function", "pc", "mnemonic", "kind", "status"],
            finding_rows))
    else:
        lines.append("leak findings: none")
    lines.append("")

    warned = [(result.name, warning)
              for result in report.results
              for warning in result.taint.warnings]
    if warned:
        lines.append("analysis warnings")
        lines.append("-----------------")
        for name, warning in warned:
            lines.append(f"  {name}: {warning}")
        lines.append("")

    verdict = ("OK — every finding is annotated"
               if report.ok else
               f"FAIL — {len(report.new_findings)} unannotated "
               f"finding(s)")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"
