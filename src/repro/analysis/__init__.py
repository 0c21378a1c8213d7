"""Analysis toolbox: statistics, plain-text reporting, and the static
victim analyzer (CFG recovery, secret-taint lint, BTB-aliasing
prediction, analyzer-vs-simulator differential validation)."""

from .aliasing import (AliasMap, BranchSite, branch_sites,
                       build_alias_map, predicted_false_hits)
from .cfg import (CFG, BasicBlock, CodeImage, Edge, EdgeKind,
                  linear_sweep, recover_cfg, recover_module_cfg)
from .differential import (DifferentialReport, DynamicObservation,
                           observe_run, validate_victim)
from .lint import (LintReport, VictimLintResult, lint_corpus,
                   lint_victim, render_report, run_lint, victim_regions)
from .report import (ascii_table, campaign_block, degradation_block,
                     pct, series_block, spark)
from .stats import (
    accuracy,
    confidence_interval_95,
    mean,
    median,
    percentile,
    stdev,
    summarize,
)
from .taint import (AbsVal, LeakFinding, Region, TaintReport,
                    analyze_taint)

__all__ = [
    "AbsVal",
    "AliasMap",
    "BasicBlock",
    "BranchSite",
    "CFG",
    "CodeImage",
    "DifferentialReport",
    "DynamicObservation",
    "Edge",
    "EdgeKind",
    "LeakFinding",
    "LintReport",
    "Region",
    "TaintReport",
    "VictimLintResult",
    "accuracy",
    "analyze_taint",
    "ascii_table",
    "branch_sites",
    "build_alias_map",
    "campaign_block",
    "confidence_interval_95",
    "degradation_block",
    "lint_corpus",
    "lint_victim",
    "linear_sweep",
    "mean",
    "median",
    "observe_run",
    "pct",
    "percentile",
    "predicted_false_hits",
    "recover_cfg",
    "recover_module_cfg",
    "render_report",
    "run_lint",
    "series_block",
    "spark",
    "stdev",
    "summarize",
    "validate_victim",
    "victim_regions",
]
