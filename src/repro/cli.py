"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every reproducible experiment with its paper artefact.
``run <experiment> [--fast] [--seed N] [--backend B] [--out DIR]``
    Run one experiment harness and print its findings.  ``--backend``
    re-runs it on a non-default BTB design family
    (intel/arm/sodor/orcs, see :mod:`repro.cpu.btb_backends`).
``demo``
    A 30-second tour: Takeaways 1 & 2 plus one NV-Core detection.
``campaign``
    Run the whole experiment suite through the crash-tolerant runner
    (:mod:`repro.runner`): subprocess-isolated workers, a heartbeat
    watchdog, retry with backoff, checkpointed ``--resume``, and the
    ``--chaos kill-worker`` failure drill.  ``--shards N`` partitions
    the jobs into N fault domains, each a process group of ``--jobs``
    workers; consecutive unreported failures quarantine a shard and
    move its jobs to a healthy one, and ``--chaos kill-shard`` /
    ``stall-shard`` SIGKILL / SIGSTOP a whole shard.  Prints the
    campaign digest.  Exits 0 COMPLETED, 1 FAILED, 3 INTERRUPTED
    (resumable), 4 DEGRADED (some job LOST with its shard).
``stats <experiment> [--fast] [--seed N] [--out PATH] [--timings]``
    Run one experiment inside a tracing telemetry session
    (:mod:`repro.telemetry`) and print the deterministic counter
    report with its digest.  ``--timings`` appends the wall-clock
    span section to the console (never to the ``--out`` artifact,
    which stays byte-stable under a fixed seed).
``trace <experiment> [--fast] [--seed N] [--out PATH]``
    Same run, but write the structured event trace as canonical JSON
    lines — byte-identical across runs with the same seed.  Default
    output path is ``TRACE_<experiment>.jsonl``; ``--out -`` streams
    to stdout.
``lint``
    Static leakage + BTB-aliasing audit of the victims library
    (:mod:`repro.analysis.lint`): CFG recovery, secret-taint dataflow
    seeded from each victim's declared secret inputs, and the
    collision/false-hit map.  Exits non-zero on findings outside a
    victim's ``leak_allowlist`` (or on golden-report drift with
    ``--golden``).
``portability``
    Run ``exp_portability``: the attack × BTB-design survival matrix
    (NV-Core deallocation, PW-range traversal and fingerprinting
    against the intel/arm/sodor/orcs backends).  The output is
    byte-stable; ``--golden`` diffs it against the committed report
    (exit 3 on drift), mirroring ``lint``/``certify``.
``certify``
    Symbolic leakage certification
    (:mod:`repro.analysis.symbolic`): path-sensitive bit-vector
    exploration proves every BTB-visible branch site
    ``PROVEN_LEAKY`` (with two synthesized witnesses whose replayed
    BTB event streams diverge) or ``PROVEN_SAFE``, then re-certifies
    and dynamically validates the constant-time auto-rewrite.  Exit 2
    on new leaks or failed validation, 3 on golden drift (including
    a missing or quarantined-corrupt golden).

``--seed`` is the single reproducibility knob: it reaches every
stochastic layer — RSA key generation, LBR timing noise, corpus
sampling, fault-injection schedules — so two invocations with the same
seed print identical numbers.  Experiments keep their per-experiment
default seeds when the flag is omitted.

The experiment registry itself lives in
:mod:`repro.experiments.common`; each ``exp_*`` module registers its
own summary runner, and this module (like the campaign workers) only
consumes the registry.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .analysis import ascii_table, campaign_block
from .errors import CampaignError, DiskFaultError
from .experiments.common import (EXPERIMENTS, RunRequest,
                                 run_experiment)


def _cmd_list() -> int:
    print(ascii_table(
        ("experiment", "paper artefact"),
        [(spec.name, spec.artefact)
         for spec in EXPERIMENTS.values()]))
    return 0


def _cmd_run(name: str, fast: bool, seed: Optional[int] = None,
             out: Optional[str] = None,
             backend: Optional[str] = None) -> int:
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {name!r}; known: {known}",
              file=sys.stderr)
        return 2
    spec = EXPERIMENTS[name]
    print(f"== {spec.artefact} ==")
    started = time.time()
    output = run_experiment(name, RunRequest(fast=fast, seed=seed,
                                             backend=backend))
    print(output)
    print(f"({time.time() - started:.1f}s)")
    if out is not None:
        from .storage import atomic_write_text
        path = atomic_write_text(f"{out}/{name}.txt", output + "\n")
        print(f"artifact written atomically to {path}")
    return 0


def _cmd_demo(seed: Optional[int] = None) -> int:
    for name in ("fig2", "fig4", "fig5"):
        _cmd_run(name, fast=True, seed=seed)
        print()
    return 0


def _campaign_summary(manifest) -> str:
    from .runner import JobStatus
    rows = []
    for record in manifest.records():
        result = (record.digest[:12]
                  if record.status is JobStatus.COMPLETED
                  else record.error)
        rows.append((record.job_id, record.shard, record.status.value,
                     record.attempts, record.duration_s, result))
    return campaign_block(manifest.campaign_id, manifest.status, rows,
                          digest=manifest.campaign_digest(),
                          lost=sorted(manifest.lost().items()))


_CAMPAIGN_EXIT = {"COMPLETED": 0, "FAILED": 1, "INTERRUPTED": 3,
                  "DEGRADED": 4}


def _cmd_campaign(args) -> int:
    from .faults import disk_chaos
    from .runner import ChaosMonkey, experiment_jobs, run_campaign
    injector = disk_chaos(args.chaos or "", seed=args.seed or 0,
                          strike_after=args.chaos_write)
    if injector is not None:
        # Storage drills perturb the atomic writer itself; the
        # campaign-level chaos slot is then clear for the runner.
        from .storage import install_disk_faults
        install_disk_faults(injector)
        args.chaos = None
    specs = []
    if args.resume is None:
        only = (args.only.split(",") if args.only else None)
        try:
            specs = experiment_jobs(
                fast=args.fast, seed=args.seed, plan=args.plan,
                plan_factor=args.plan_factor, timeout_s=args.timeout,
                max_attempts=args.retries + 1, only=only)
        except CampaignError as error:
            print(str(error), file=sys.stderr)
            return 2
    chaos = None
    if args.chaos is not None:
        chaos = ChaosMonkey(mode=args.chaos, kills=args.chaos_kills,
                            delay_s=args.chaos_delay,
                            seed=args.seed or 0)

    def on_event(job_id: str, message: str) -> None:
        print(f"[{job_id}] {message}")

    try:
        manifest = run_campaign(
            specs, args.runs_dir,
            campaign_id=args.resume or args.campaign_id,
            seed=args.seed, resume=args.resume is not None,
            shards=args.shards, max_workers=args.jobs,
            stall_timeout=args.stall_timeout, chaos=chaos,
            on_event=on_event if args.verbose else None)
    except DiskFaultError as error:
        print(f"storage fault: {error}", file=sys.stderr)
        print("campaign INTERRUPTED by storage fault; --resume "
              "recovers it (a corrupt manifest is quarantined and the "
              "campaign re-runs from its creation record)",
              file=sys.stderr)
        return 3
    except CampaignError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(_campaign_summary(manifest))
    print(f"manifest: {manifest.path}")
    return _CAMPAIGN_EXIT[manifest.status]


def _observe(name: str, fast: bool, seed: Optional[int],
             backend: Optional[str] = None):
    """Run ``name`` inside a tracing telemetry session; return the
    finalized sink (or None for an unknown experiment)."""
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {name!r}; known: {known}",
              file=sys.stderr)
        return None
    from . import telemetry
    with telemetry.session(trace=True) as sink:
        run_experiment(name, RunRequest(fast=fast, seed=seed,
                                        backend=backend))
    return sink


def _cmd_stats(name: str, fast: bool, seed: Optional[int] = None,
               out: Optional[str] = None, timings: bool = False,
               backend: Optional[str] = None) -> int:
    from . import telemetry
    sink = _observe(name, fast, seed, backend)
    if sink is None:
        return 2
    print(telemetry.render_stats(sink, timings=timings), end="")
    if out is not None:
        from .storage import atomic_write_text
        # The artifact always gets the deterministic rendering —
        # span timings are wall clock and would break byte-stability.
        path = atomic_write_text(out, telemetry.render_stats(sink))
        print(f"stats written atomically to {path}")
    return 0


def _cmd_trace(name: str, fast: bool, seed: Optional[int] = None,
               out: Optional[str] = None,
               backend: Optional[str] = None) -> int:
    from . import telemetry
    sink = _observe(name, fast, seed, backend)
    if sink is None:
        return 2
    rendered = telemetry.render_trace(sink)
    if out == "-":
        sys.stdout.write(rendered)
        return 0
    from .storage import atomic_write_text
    path = atomic_write_text(out if out is not None
                             else f"TRACE_{name}.jsonl", rendered)
    print(f"{len(sink.events)} event(s) traced")
    print(f"trace digest: {telemetry.trace_digest(sink)}")
    print(f"trace written atomically to {path}")
    return 0


#: envelope schema tag for the ``repro certify`` golden artifact
CERTIFY_GOLDEN_SCHEMA = "certify-report@1"


def _load_golden(tool: str, golden: str,
                 schema: Optional[str] = None) -> Optional[str]:
    """Load a committed golden report, or None when it cannot serve.

    A golden that is missing or corrupt is a *drift* condition — the
    caller exits 3 ("regenerate and commit"), never a stack trace and
    never exit 2 (which is reserved for real findings).  Corrupt
    goldens are quarantined aside (``<name>.corrupt``) so forensics
    survive and the next ``--out`` starts clean.  With ``schema`` the
    file must be an enveloped JSON document
    (:func:`repro.storage.load_document`) whose payload carries the
    report text; without it the file is legacy plain text.
    """
    import os

    from .errors import ArtifactCorrupt
    from .storage import load_document, quarantine_file

    if not os.path.exists(golden):
        print(f"{tool}: golden report missing at {golden} "
              f"(re-generate with `repro {tool} --out {golden}` "
              f"and commit)", file=sys.stderr)
        return None
    if schema is None:
        try:
            with open(golden, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as error:
            print(f"{tool}: cannot read golden report: {error}",
                  file=sys.stderr)
            return None
    try:
        payload = load_document(golden, schema)
        report = payload.get("report") if isinstance(payload, dict) \
            else None
        if not isinstance(report, str):
            raise ArtifactCorrupt("golden payload lacks a report body")
        return report
    except (OSError, ArtifactCorrupt) as error:
        destination = quarantine_file(golden)
        where = (f"; quarantined to {destination}"
                 if destination is not None else "")
        print(f"{tool}: golden report corrupt: {error}{where} "
              f"(re-generate with `repro {tool} --out {golden}` "
              f"and commit)", file=sys.stderr)
        return None


def _diff_golden(tool: str, rendered: str, golden: str,
                 expected: str) -> int:
    """Diff the fresh report against the golden text: 0 or 3."""
    if rendered == expected:
        print(f"golden report match: {golden}")
        return 0
    import difflib
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True),
        rendered.splitlines(keepends=True),
        fromfile=golden, tofile="current")
    sys.stderr.writelines(diff)
    print(f"{tool}: report drifted from the golden copy "
          f"(re-generate with `repro {tool} --out` and commit "
          f"if the change is intended)", file=sys.stderr)
    return 3


def _cmd_lint(out: Optional[str] = None,
              golden: Optional[str] = None) -> int:
    from .analysis.lint import run_lint

    report = run_lint()
    rendered = report.render()
    print(rendered, end="")
    if out is not None:
        from .storage import atomic_write_text
        path = atomic_write_text(out, rendered)
        print(f"report written atomically to {path}")
    status = 0
    if not report.ok:
        print(f"lint: {len(report.new_findings)} unannotated "
              f"finding(s)", file=sys.stderr)
        status = 2
    if golden is not None:
        expected = _load_golden("lint", golden)
        if expected is None:
            return status or 3
        status = status or _diff_golden("lint", rendered, golden,
                                        expected)
    return status


def _cmd_portability(out: Optional[str] = None,
                     golden: Optional[str] = None) -> int:
    from .experiments.exp_portability import (render_matrix,
                                              run_portability)

    rendered = render_matrix(run_portability()) + "\n"
    print(rendered, end="")
    if out is not None:
        from .storage import atomic_write_text
        path = atomic_write_text(out, rendered)
        print(f"report written atomically to {path}")
    if golden is not None:
        expected = _load_golden("portability", golden)
        if expected is None:
            return 3
        return _diff_golden("portability", rendered, golden, expected)
    return 0


def _cmd_certify(out: Optional[str] = None,
                 golden: Optional[str] = None,
                 no_rewrite: bool = False) -> int:
    from .analysis.symbolic import run_certify

    report = run_certify(rewrite=not no_rewrite)
    rendered = report.render()
    print(rendered, end="")
    if out is not None:
        from .storage import write_envelope
        path = write_envelope(out, {"report": rendered},
                              CERTIFY_GOLDEN_SCHEMA)
        print(f"report written atomically to {path}")
    status = 0
    if not report.ok:
        print(f"certify: {len(report.failures)} problem(s)",
              file=sys.stderr)
        status = 2
    if golden is not None:
        expected = _load_golden("certify", golden,
                                schema=CERTIFY_GOLDEN_SCHEMA)
        if expected is None:
            return status or 3
        status = status or _diff_golden("certify", rendered, golden,
                                        expected)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NightVision (ISCA 2023) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment")
    run.add_argument("--fast", action="store_true",
                     help="reduced parameters for a quick look")
    run.add_argument("--seed", type=int, default=None,
                     help="seed every RNG (keys, noise, faults); "
                          "omit for the experiment's default")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="also write the findings to DIR/<name>.txt "
                          "via the atomic artifact writer")
    run.add_argument("--backend", default=None,
                     choices=["intel", "arm", "sodor", "orcs"],
                     help="run on a non-default BTB design family "
                          "(default: each experiment's own config)")

    demo = sub.add_parser("demo", help="30-second tour")
    demo.add_argument("--seed", type=int, default=None,
                      help="seed every RNG in the demo experiments")

    campaign = sub.add_parser(
        "campaign",
        help="run the experiment suite through the crash-tolerant "
             "runner (checkpointed, resumable)")
    campaign.add_argument("--fast", action="store_true",
                          help="reduced parameters per experiment")
    campaign.add_argument("--seed", type=int, default=None,
                          help="campaign-wide seed for every job")
    campaign.add_argument("--only", default=None, metavar="A,B,...",
                          help="comma-separated experiment subset")
    campaign.add_argument("--jobs", "-j", type=int, default=2,
                          help="parallel workers (per shard with "
                               "--shards; default 2)")
    campaign.add_argument("--timeout", type=float, default=300.0,
                          metavar="S",
                          help="per-job wall-clock budget, seconds")
    campaign.add_argument("--stall-timeout", type=float, default=10.0,
                          metavar="S",
                          help="kill a worker whose heartbeat is older "
                               "than S seconds")
    campaign.add_argument("--retries", type=int, default=2,
                          help="retry budget per job on transient "
                               "failures; moving a job off a "
                               "quarantined shard costs one (default 2)")
    campaign.add_argument("--plan", default="",
                          help="fault-plan preset every job carries "
                               "(clean, acceptance, noisy-neighbour, "
                               "hostile)")
    campaign.add_argument("--plan-factor", type=float, default=1.0,
                          help="scale factor applied to --plan rates")
    campaign.add_argument("--campaign-id", default=None,
                          help="explicit campaign id (default: "
                               "generated timestamp id)")
    campaign.add_argument("--runs-dir", default="runs",
                          help="checkpoint root (default: runs/)")
    campaign.add_argument("--resume", default=None, metavar="ID",
                          help="resume campaign ID: skip COMPLETED "
                               "jobs, re-run the rest")
    campaign.add_argument("--chaos", default=None,
                          choices=["kill-worker", "kill-shard",
                                   "stall-shard", "torn-write",
                                   "bit-flip", "enospc"],
                          help="failure drill: kill-worker SIGKILLs "
                               "random workers then interrupts (prove "
                               "--resume converges); kill-shard / "
                               "stall-shard SIGKILL / SIGSTOP a whole "
                               "shard (the campaign must heal itself); "
                               "torn-write / bit-flip / enospc strike "
                               "a manifest write (--resume must "
                               "converge to the clean digest)")
    campaign.add_argument("--chaos-kills", type=int, default=1,
                          help="workers/shards to strike")
    campaign.add_argument("--chaos-write", type=int, default=0,
                          metavar="N",
                          help="storage chaos: strike the Nth "
                               "manifest write (default 0 = seeded "
                               "in [2, 6])")
    campaign.add_argument("--chaos-delay", type=float, default=0.2,
                          metavar="S",
                          help="minimum campaign age before the first "
                               "chaos kill")
    campaign.add_argument("--shards", type=int, default=0,
                          help="partition the jobs into N fault "
                               "domains, each a process group of --jobs "
                               "workers (default 0 = unsharded)")
    campaign.add_argument("--verbose", "-v", action="store_true",
                          help="print per-job lifecycle events")

    stats = sub.add_parser(
        "stats",
        help="run one experiment under telemetry and print the "
             "deterministic counter report")
    stats.add_argument("experiment")
    stats.add_argument("--fast", action="store_true",
                       help="reduced parameters for a quick look")
    stats.add_argument("--seed", type=int, default=None,
                       help="seed every RNG; omit for the "
                            "experiment's default")
    stats.add_argument("--out", default=None, metavar="PATH",
                       help="also write the (deterministic) report "
                            "to PATH via the atomic artifact writer")
    stats.add_argument("--timings", action="store_true",
                       help="append wall-clock span timings to the "
                            "console output (never to --out)")
    stats.add_argument("--backend", default=None,
                       choices=["intel", "arm", "sodor", "orcs"],
                       help="run on a non-default BTB design family")

    trace = sub.add_parser(
        "trace",
        help="run one experiment under telemetry and write the "
             "canonical JSONL event trace (byte-stable per seed)")
    trace.add_argument("experiment")
    trace.add_argument("--fast", action="store_true",
                       help="reduced parameters for a quick look")
    trace.add_argument("--seed", type=int, default=None,
                       help="seed every RNG; omit for the "
                            "experiment's default")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="trace path (default: "
                            "TRACE_<experiment>.jsonl; '-' for "
                            "stdout)")
    trace.add_argument("--backend", default=None,
                       choices=["intel", "arm", "sodor", "orcs"],
                       help="run on a non-default BTB design family")

    lint = sub.add_parser(
        "lint",
        help="static leakage + BTB-aliasing audit of the victims "
             "library; non-zero exit on unannotated findings")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the findings report to PATH "
                           "via the atomic artifact writer")
    lint.add_argument("--golden", default=None, metavar="PATH",
                      help="compare against a committed golden report; "
                           "non-zero exit on drift")

    portability = sub.add_parser(
        "portability",
        help="attack x BTB-design survival matrix across the "
             "intel/arm/sodor/orcs backends; byte-stable output, "
             "exit 3 on golden drift")
    portability.add_argument("--out", default=None, metavar="PATH",
                             help="also write the matrix report to "
                                  "PATH via the atomic artifact "
                                  "writer")
    portability.add_argument("--golden", default=None, metavar="PATH",
                             help="compare against a committed golden "
                                  "report; exit 3 on drift")

    certify = sub.add_parser(
        "certify",
        help="symbolic leakage certification: prove every victim "
             "PROVEN_LEAKY (with replayable witnesses) or "
             "PROVEN_SAFE, then validate the constant-time rewrite; "
             "exit 2 on new leaks, 3 on golden drift")
    certify.add_argument("--out", default=None, metavar="PATH",
                         help="also write the certification report "
                              "to PATH as an enveloped artifact")
    certify.add_argument("--golden", default=None, metavar="PATH",
                         help="compare against a committed golden "
                              "report; non-zero exit on drift")
    certify.add_argument("--no-rewrite", action="store_true",
                         help="skip the constant-time auto-rewrite "
                              "validation pass")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.fast, args.seed,
                        args.out, args.backend)
    if args.command == "demo":
        return _cmd_demo(args.seed)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "stats":
        return _cmd_stats(args.experiment, args.fast, args.seed,
                          args.out, args.timings, args.backend)
    if args.command == "trace":
        return _cmd_trace(args.experiment, args.fast, args.seed,
                          args.out, args.backend)
    if args.command == "lint":
        return _cmd_lint(args.out, args.golden)
    if args.command == "portability":
        return _cmd_portability(args.out, args.golden)
    if args.command == "certify":
        return _cmd_certify(args.out, args.golden, args.no_rewrite)
    return 2                                      # pragma: no cover


if __name__ == "__main__":                        # pragma: no cover
    sys.exit(main())
