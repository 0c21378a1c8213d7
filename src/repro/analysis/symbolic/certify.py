"""The ``repro certify`` engine: prove, refute, and repair leaks.

For every victim with a :class:`repro.victims.library.CertifySpec`
this module:

1. **explores** the victim symbolically over its declared input
   domain (:mod:`.executor`), collecting per-site direction/value
   traces for every feasible path;
2. **classifies** each function: ``PROVEN_LEAKY`` when two feasible
   paths disagree on some branch site's direction trace (the
   divergence predicate is satisfiable — both models are in hand),
   ``PROVEN_SAFE`` when exploration was exhaustive and every trace
   agrees, ``UNDECIDED`` when a budget ran out (sound degradation);
3. **replays** both witnesses of every proven leak on the
   instrumented core: the ordered BTB event streams must diverge, or
   the verdict is reported as a replay failure;
4. **repairs**: victims with proven leaks are re-built through the
   constant-time rewriter (:mod:`repro.lang.ctrewrite`), re-certified
   symbolically, and validated dynamically — the original witnesses
   must now produce bit-identical streams, and an exhaustive sweep of
   the (tiny) certified domain must preserve every result array.

Verdicts are **BTB-scoped**: a data-address difference (e.g. the
pointer-select the 2.16 rewrite introduces) never reaches the BTB and
is reported separately as a cache-channel residual, not as a leak.

The report is byte-stable (sorted rows, no timestamps); ``repro
certify --golden`` diffs it against a committed, enveloped golden
copy exactly like ``repro lint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..report import ascii_table
from .executor import ExploreBudget, Exploration, explore_victim
from .witness import (inputs_for_model, replay_btb_stream,
                      replay_result_arrays)

__all__ = ["PROVEN_LEAKY", "PROVEN_SAFE", "UNDECIDED",
           "CertifyBudget", "FunctionVerdict", "VictimCertification",
           "RewriteValidation", "CertifyReport", "certify_corpus",
           "certify_victim", "rewrite_victim", "run_certify",
           "render_certify_report"]

PROVEN_LEAKY = "PROVEN_LEAKY"
PROVEN_SAFE = "PROVEN_SAFE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class CertifyBudget:
    """Exploration bounds for one certification run.  The rewrite
    pass re-certifies masked straight-line code whose expression
    graphs are larger, hence the separate gate ceiling."""

    max_paths: int = 512
    max_steps: int = 600_000
    max_gates: int = 4_000_000
    rewrite_max_gates: int = 16_000_000
    solver_decisions: int = 100_000
    enum_limit: int = 8

    def explore(self, *, rewritten: bool = False) -> ExploreBudget:
        return ExploreBudget(
            max_paths=self.max_paths,
            max_steps=self.max_steps,
            max_gates=(self.rewrite_max_gates if rewritten
                       else self.max_gates),
            solver_decisions=self.solver_decisions,
            enum_limit=self.enum_limit)


@dataclass
class FunctionVerdict:
    """Certified classification of one compiled function."""

    function: str
    verdict: str
    expected: Optional[str]
    branch_sites: int
    leaky_sites: int
    #: sites whose streams differ only in trip count — inherited from
    #: a secret caller, not a secret direction of this function
    inherited_sites: int = 0
    #: lowest divergent branch pc (leaky verdicts only)
    divergent_pc: Optional[int] = None
    #: two concrete input maps proving the divergence
    witness_a: Optional[Dict[str, int]] = None
    witness_b: Optional[Dict[str, int]] = None
    #: did the replayed BTB streams of the two witnesses differ?
    streams_diverged: Optional[bool] = None

    @property
    def matches_expected(self) -> bool:
        return self.expected is None or self.verdict == self.expected


@dataclass
class VictimCertification:
    """Everything one victim's certification produced."""

    name: str
    victim: object
    exploration: Exploration
    verdicts: List[FunctionVerdict] = field(default_factory=list)
    #: enumerated data-address sites (cache channel, outside the BTB
    #: model): function -> site count
    access_residuals: Dict[str, int] = field(default_factory=dict)

    @property
    def leaky(self) -> List[FunctionVerdict]:
        return [v for v in self.verdicts if v.verdict == PROVEN_LEAKY]

    @property
    def undecided(self) -> List[FunctionVerdict]:
        return [v for v in self.verdicts if v.verdict == UNDECIDED]

    @property
    def new_leaks(self) -> List[FunctionVerdict]:
        allowed = set(self.victim.leak_allowlist)
        return [v for v in self.leaky if v.function not in allowed]

    @property
    def mismatches(self) -> List[FunctionVerdict]:
        return [v for v in self.verdicts if not v.matches_expected]


@dataclass
class RewriteValidation:
    """Symbolic + dynamic validation of one victim's CT rewrite."""

    name: str
    verdict: str                       # worst re-certified verdict
    #: per original leaky function: replayed streams bit-identical?
    streams_identical: bool
    #: result arrays preserved on every input in the domain
    functional_ok: bool
    domain_size: int
    residual_access_sites: int

    @property
    def ok(self) -> bool:
        return (self.verdict == PROVEN_SAFE and self.streams_identical
                and self.functional_ok)


@dataclass
class CertifyReport:
    certifications: List[VictimCertification] = field(
        default_factory=list)
    rewrites: List[RewriteValidation] = field(default_factory=list)

    @property
    def new_leaks(self) -> List[Tuple[str, FunctionVerdict]]:
        return [(c.name, v) for c in self.certifications
                for v in c.new_leaks]

    @property
    def failures(self) -> List[str]:
        """Everything that makes the run FAIL (exit 2)."""
        problems: List[str] = []
        for cert in self.certifications:
            for verdict in cert.new_leaks:
                problems.append(
                    f"{cert.name}: NEW leak in {verdict.function}")
            for verdict in cert.mismatches:
                problems.append(
                    f"{cert.name}: {verdict.function} certified "
                    f"{verdict.verdict}, expected {verdict.expected}")
            for verdict in cert.leaky:
                if verdict.streams_diverged is False:
                    problems.append(
                        f"{cert.name}: witnesses for "
                        f"{verdict.function} did not diverge on replay")
        for rewrite in self.rewrites:
            if not rewrite.ok:
                problems.append(f"{rewrite.name}: constant-time "
                                f"rewrite failed validation")
        return problems

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        return render_certify_report(self)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def _site_traces(exploration: Exploration, pc: int
                 ) -> List[Tuple[int, Tuple[int, ...]]]:
    """(path index, direction trace) per completed path; a path that
    never reached the site contributes the empty trace."""
    return [(path.index, path.branch_traces.get(pc, ()))
            for path in exploration.paths]


def _primary_divergence(first: Tuple[int, ...],
                        second: Tuple[int, ...]) -> bool:
    """A site leaks *primarily* when two paths disagree within their
    common prefix — the branch itself turned on the secret.  When one
    trace merely extends the other, every executed direction agreed
    and only the trip count differed: that divergence is inherited
    from whichever secret branch controls the caller, which is
    flagged at its own site."""
    return any(a != b for a, b in zip(first, second))


def _divergent_pair(exploration: Exploration, pc: int
                    ) -> Optional[Tuple[int, int]]:
    """First two path indices with a primary disagreement at ``pc``
    (deterministic: path order is DFS order, itself deterministic)."""
    traces = _site_traces(exploration, pc)
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            if _primary_divergence(traces[i][1], traces[j][1]):
                return traces[i][0], traces[j][0]
    return None


def _inherited_only(exploration: Exploration, pc: int) -> bool:
    """True when the site's traces differ across paths, but only by
    extension (secret trip count, never secret direction)."""
    traces = [trace for _, trace in _site_traces(exploration, pc)]
    return any(traces[i] != traces[j]
               for i in range(len(traces))
               for j in range(i + 1, len(traces)))


def certify_victim(name: str, victim, *,
                   budget: Optional[CertifyBudget] = None,
                   rewritten: bool = False) -> VictimCertification:
    """Symbolically certify one victim over its declared domain."""
    spec = victim.certify
    if spec is None:
        raise ValueError(f"victim {name!r} has no CertifySpec")
    budget = budget if budget is not None else CertifyBudget()
    exploration = explore_victim(
        victim, spec.domains, spec.template_inputs(),
        budget=budget.explore(rewritten=rewritten))
    cert = VictimCertification(name=name, victim=victim,
                               exploration=exploration)

    compiled = victim.compiled
    per_function: Dict[str, List[int]] = {}
    for pc in exploration.branch_sites():
        function = compiled.function_of(pc) or f"@{pc:#x}"
        per_function.setdefault(function, []).append(pc)
    for pc in exploration.access_sites():
        function = compiled.function_of(pc) or f"@{pc:#x}"
        cert.access_residuals[function] = (
            cert.access_residuals.get(function, 0) + 1)

    complete = exploration.complete
    named = set(per_function)
    # every compiled function gets a verdict; unexecuted ones are
    # vacuously safe over the domain when exploration was exhaustive
    for function in sorted(set(compiled.functions) | named):
        sites = per_function.get(function, [])
        divergent = [(pc, _divergent_pair(exploration, pc))
                     for pc in sites]
        leaky = [(pc, pair) for pc, pair in divergent
                 if pair is not None]
        inherited = sum(
            1 for pc, pair in divergent
            if pair is None and _inherited_only(exploration, pc))
        if leaky:
            pc, pair = leaky[0]
            first, second = pair
            model_a = exploration.paths[first].model
            model_b = exploration.paths[second].model
            verdict = FunctionVerdict(
                function=function, verdict=PROVEN_LEAKY,
                expected=spec.expected_verdict(function),
                branch_sites=len(sites), leaky_sites=len(leaky),
                inherited_sites=inherited, divergent_pc=pc,
                witness_a=inputs_for_model(
                    spec.domains, model_a, spec.template_inputs()),
                witness_b=inputs_for_model(
                    spec.domains, model_b, spec.template_inputs()))
        else:
            verdict = FunctionVerdict(
                function=function,
                verdict=PROVEN_SAFE if complete else UNDECIDED,
                expected=spec.expected_verdict(function),
                branch_sites=len(sites), leaky_sites=0,
                inherited_sites=inherited)
        cert.verdicts.append(verdict)
    return cert


# ----------------------------------------------------------------------
# the constant-time repair loop
# ----------------------------------------------------------------------
def rewrite_victim(victim):
    """Re-build ``victim`` through the constant-time rewriter."""
    from ...lang import Compiler, parse_module
    from ...lang.ctrewrite import rewrite_module

    if victim.source is None or victim.certify is None:
        raise ValueError("victim carries no source/CertifySpec; "
                         "cannot rewrite")
    module = parse_module(victim.source)
    rewritten = rewrite_module(module,
                               bound=victim.certify.ct_loop_bound)
    compiled = Compiler(victim.compiled.options).compile(
        rewritten, start=victim.main)
    clone = type(victim)(
        compiled, victim.layout, victim.nlimbs,
        secret_function=victim.secret_function,
        fingerprint_function=victim.fingerprint_function,
        then_arm_is_truth=victim.then_arm_is_truth,
        main=victim.main,
        secret_inputs=victim.secret_inputs,
        leak_allowlist=(),
        options=victim.compiled.options,
        certify=replace(victim.certify,
                        expected=(("*", PROVEN_SAFE),)))
    return clone


def _domain_inputs(spec) -> List[Dict[str, int]]:
    """Every concrete input map in the certified domain (exhaustive —
    the domains are deliberately tiny)."""
    combos: List[Dict[str, int]] = [spec.template_inputs()]
    for domain in spec.domains:
        expanded: List[Dict[str, int]] = []
        for base in combos:
            for value in range(1 << domain.bits):
                inputs = dict(base)
                inputs[domain.array] = (domain.forced_or
                                        | (value << domain.shift))
                expanded.append(inputs)
        combos = expanded
    return combos


def _validate_rewrite(name: str, victim, rewritten,
                      cert: VictimCertification,
                      recert: VictimCertification
                      ) -> RewriteValidation:
    worst = PROVEN_SAFE
    for verdict in recert.verdicts:
        if verdict.verdict == PROVEN_LEAKY:
            worst = PROVEN_LEAKY
            break
        if verdict.verdict == UNDECIDED:
            worst = UNDECIDED
    streams_identical = True
    for verdict in cert.leaky:
        if verdict.witness_a is None or verdict.witness_b is None:
            continue
        stream_a = replay_btb_stream(rewritten, verdict.witness_a)
        stream_b = replay_btb_stream(rewritten, verdict.witness_b)
        if stream_a != stream_b:
            streams_identical = False
    domain = _domain_inputs(victim.certify)
    functional_ok = True
    for inputs in domain:
        if (replay_result_arrays(victim, inputs)
                != replay_result_arrays(rewritten, inputs)):
            functional_ok = False
            break
    return RewriteValidation(
        name=name, verdict=worst,
        streams_identical=streams_identical,
        functional_ok=functional_ok,
        domain_size=len(domain),
        residual_access_sites=sum(
            recert.access_residuals.values()))


# ----------------------------------------------------------------------
# corpus driver
# ----------------------------------------------------------------------
def certify_corpus() -> List[Tuple[str, object]]:
    """Same victims, same order as ``repro lint``."""
    from ..lint import lint_corpus
    return lint_corpus()


def run_certify(corpus: Optional[List[Tuple[str, object]]] = None, *,
                budget: Optional[CertifyBudget] = None,
                replay: bool = True,
                rewrite: bool = True) -> CertifyReport:
    """Certify the corpus; replay witnesses; repair + re-validate."""
    corpus = corpus if corpus is not None else certify_corpus()
    budget = budget if budget is not None else CertifyBudget()
    report = CertifyReport()
    for name, victim in corpus:
        cert = certify_victim(name, victim, budget=budget)
        if replay:
            for verdict in cert.leaky:
                stream_a = replay_btb_stream(victim, verdict.witness_a)
                stream_b = replay_btb_stream(victim, verdict.witness_b)
                verdict.streams_diverged = stream_a != stream_b
        report.certifications.append(cert)
        if rewrite and cert.leaky:
            rewritten = rewrite_victim(victim)
            recert = certify_victim(name, rewritten, budget=budget,
                                    rewritten=True)
            report.rewrites.append(_validate_rewrite(
                name, victim, rewritten, cert, recert))
    return report


# ----------------------------------------------------------------------
# rendering (byte-stable)
# ----------------------------------------------------------------------
def _render_inputs(inputs: Optional[Dict[str, int]],
                   spec) -> str:
    if inputs is None:
        return "-"
    names = [domain.array for domain in spec.domains]
    return ",".join(f"{name}={inputs.get(name, 0)}" for name in names)


def render_certify_report(report: CertifyReport) -> str:
    lines: List[str] = []
    lines.append("repro certify — symbolic leakage certification")
    lines.append("==============================================")
    lines.append("")

    rows = []
    for cert in report.certifications:
        exploration = cert.exploration
        stats = exploration.stats
        rows.append([
            cert.name,
            str(len(exploration.paths)),
            str(exploration.forks),
            str(exploration.steps),
            f"{stats.calls}/{stats.sat}/{stats.unsat}",
            str(len(exploration.branch_sites())),
            str(len(exploration.access_sites())),
            "yes" if exploration.complete else "NO",
        ])
    lines.append(ascii_table(
        ["victim", "paths", "forks", "steps", "solver c/s/u",
         "branch sites", "access sites", "exhaustive"], rows))
    lines.append("")

    lines.append("function verdicts")
    lines.append("-----------------")
    verdict_rows = []
    for cert in report.certifications:
        spec = cert.victim.certify
        for verdict in cert.verdicts:
            if verdict.branch_sites == 0 \
                    and verdict.verdict == PROVEN_SAFE \
                    and verdict.matches_expected:
                continue               # keep the table to the action
            verdict_rows.append([
                cert.name,
                verdict.function,
                verdict.verdict,
                verdict.expected or "-",
                f"{verdict.leaky_sites}/{verdict.branch_sites}",
                str(verdict.inherited_sites),
                (f"{verdict.divergent_pc:#x}"
                 if verdict.divergent_pc is not None else "-"),
                "ok" if verdict.matches_expected else "MISMATCH",
            ])
    lines.append(ascii_table(
        ["victim", "function", "verdict", "expected",
         "leaky/sites", "inherited", "divergent pc", "status"],
        verdict_rows))
    lines.append("")

    witness_rows = []
    for cert in report.certifications:
        spec = cert.victim.certify
        for verdict in cert.leaky:
            if verdict.streams_diverged is None:
                outcome = "not replayed"
            elif verdict.streams_diverged:
                outcome = "diverge"
            else:
                outcome = "DID NOT DIVERGE"
            witness_rows.append([
                cert.name,
                verdict.function,
                _render_inputs(verdict.witness_a, spec),
                _render_inputs(verdict.witness_b, spec),
                outcome,
            ])
    if witness_rows:
        lines.append("leak witnesses (replayed BTB event streams)")
        lines.append("-------------------------------------------")
        lines.append(ascii_table(
            ["victim", "function", "witness A", "witness B",
             "streams"], witness_rows))
        lines.append("")

    if report.rewrites:
        lines.append("constant-time rewrite")
        lines.append("---------------------")
        rewrite_rows = []
        for rewrite in report.rewrites:
            rewrite_rows.append([
                rewrite.name,
                rewrite.verdict,
                ("bit-identical" if rewrite.streams_identical
                 else "DIVERGED"),
                (f"preserved ({rewrite.domain_size}/"
                 f"{rewrite.domain_size})"
                 if rewrite.functional_ok else "BROKEN"),
                str(rewrite.residual_access_sites),
            ])
        lines.append(ascii_table(
            ["victim", "re-verdict", "witness streams", "results",
             "access residuals"], rewrite_rows))
        lines.append("")

    residuals = [(cert.name, function, count)
                 for cert in report.certifications
                 for function, count in sorted(
                     cert.access_residuals.items())]
    if residuals:
        lines.append("access-channel residuals (outside the BTB "
                     "model: data addresses, not branch targets)")
        for name, function, count in residuals:
            lines.append(f"  {name}: {function} — {count} site(s)")
        lines.append("")

    failures = report.failures
    verdict = ("OK — every verdict proven and every rewrite validated"
               if not failures else
               f"FAIL — {len(failures)} problem(s): "
               + "; ".join(failures))
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"
