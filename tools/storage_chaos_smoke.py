#!/usr/bin/env python
"""End-to-end smoke drill for the durable storage layer (CI gate).

Exercises the checkpoint durability contract through the real CLI,
failing loudly if any guarantee breaks:

1. **clean run** — a campaign completes; its per-job digests are the
   reference;
2. **torn-write chaos** — the seeded disk-fault injector tears the
   Nth manifest write mid-campaign (exit 3), leaving a truncated
   ``manifest.json`` beside an intact write-once creation record
   (``campaign.json``);
3. **resume convergence** — ``--resume`` quarantines the torn copy to
   ``*.corrupt``, re-runs the campaign from the creation record, and
   completes with per-job digests **byte-identical** to the clean run;
4. **external bit-flip** — one bit of the manifest of a completed
   sharded campaign is flipped from outside (bit rot); the envelope
   checksum catches it on resume, the campaign re-runs from its
   creation record, and the campaign digest still matches the clean
   sharded run;
5. **evidence** — every drill leaves its quarantined ``*.corrupt``
   files in place for upload; the runs tree is kept with ``--keep``.

Usage: ``python tools/storage_chaos_smoke.py [--runs-dir DIR] [--keep]``
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.errors import ArtifactCorrupt  # noqa: E402
from repro.runner import CREATION_RECORD_NAME, RunManifest  # noqa: E402
from repro.runner.manifest import SCHEMA_TAG  # noqa: E402
from repro.storage import load_document  # noqa: E402

#: small, fast experiment subset — the drill is about the checkpoints,
#: not the physics
EXPERIMENTS = "fig2,fig4,fig5"
SEED = 7


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _campaign(runs_dir: Path, *extra: str) -> int:
    command = [sys.executable, "-m", "repro", "campaign",
               "--runs-dir", str(runs_dir), *extra]
    print(f"  $ {' '.join(command[2:])}")
    return subprocess.call(
        command, cwd=str(REPO),
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})


def _job_digests(runs_dir: Path, campaign_id: str) -> dict:
    path = runs_dir / campaign_id / "manifest.json"
    manifest = json.loads(path.read_text())
    bad = {job_id: job["status"]
           for job_id, job in manifest["jobs"].items()
           if job["status"] != "COMPLETED"}
    if bad:
        _fail(f"{campaign_id}: non-COMPLETED jobs {bad}")
    return {job_id: job["digest"]
            for job_id, job in manifest["jobs"].items()}


def _campaign_digest(runs_dir: Path, campaign_id: str) -> str:
    return RunManifest.load(runs_dir, campaign_id).campaign_digest()


def _check_creation_record(runs_dir: Path, campaign_id: str) -> None:
    """The write-once creation record must load and hold every job
    PENDING — whatever happened to the manifest beside it."""
    path = runs_dir / campaign_id / CREATION_RECORD_NAME
    try:
        payload = load_document(path, SCHEMA_TAG)
    except (OSError, ArtifactCorrupt) as error:
        _fail(f"{campaign_id}: creation record not intact: {error}")
    statuses = {job["status"] for job in payload["jobs"].values()}
    if statuses != {"PENDING"}:
        _fail(f"{campaign_id}: creation record holds {statuses}")


def _corrupt_files(runs_dir: Path) -> list:
    return sorted(str(p.relative_to(runs_dir))
                  for p in runs_dir.rglob("*.corrupt*"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs-dir", default="runs-storage-chaos")
    parser.add_argument("--keep", action="store_true",
                        help="keep the runs dir for inspection")
    args = parser.parse_args(argv)
    runs_dir = Path(args.runs_dir).resolve()
    if runs_dir.exists():
        shutil.rmtree(runs_dir)
    runs_dir.mkdir(parents=True)

    # -------------------------------------------------------- clean
    print("== clean reference run")
    if _campaign(runs_dir, "--fast", "--only", EXPERIMENTS,
                 "--seed", str(SEED), "--campaign-id", "clean") != 0:
        _fail("clean campaign did not complete")
    clean = _job_digests(runs_dir, "clean")
    print(f"== clean run COMPLETED ({len(clean)} jobs)")

    # --------------------------------------------- torn-write chaos
    print("== torn-write chaos drill (expect exit 3)")
    code = _campaign(runs_dir, "--fast", "--only", EXPERIMENTS,
                     "--seed", str(SEED), "--campaign-id", "torn",
                     "--chaos", "torn-write", "--chaos-write", "3")
    if code != 3:
        _fail(f"expected exit 3 (interrupted by storage fault), "
              f"got {code}")
    torn_manifest = runs_dir / "torn" / "manifest.json"
    _check_creation_record(runs_dir, "torn")
    try:
        json.loads(torn_manifest.read_text())
        # a parseable torn manifest is possible (tear on a boundary)
        # but the envelope must still reject it on load — the resume
        # below proves that either way
    except (json.JSONDecodeError, OSError):
        pass
    print("== manifest torn mid-write, creation record intact")

    print("== resume after torn write")
    if _campaign(runs_dir, "--resume", "torn",
                 "--seed", str(SEED)) != 0:
        _fail("resume after torn write did not complete")
    if _job_digests(runs_dir, "torn") != clean:
        _fail("digests diverged after torn-write resume")
    _check_creation_record(runs_dir, "torn")
    quarantined = _corrupt_files(runs_dir)
    if not any(q.startswith("torn/") for q in quarantined):
        _fail(f"torn checkpoint was not quarantined: {quarantined}")
    print("== resume converged: digests byte-identical, torn copy "
          "quarantined")

    # ----------------------------------- external sharded bit-flip
    print("== sharded reference run")
    if _campaign(runs_dir, "--fast", "--only", EXPERIMENTS,
                 "--seed", str(SEED), "--campaign-id", "sharded",
                 "--shards", "2") != 0:
        _fail("sharded campaign did not complete")
    sharded_digest = _campaign_digest(runs_dir, "sharded")
    print(f"== sharded run COMPLETED, campaign digest "
          f"{sharded_digest[:16]}")

    victim = runs_dir / "sharded" / "manifest.json"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x08      # deterministic external bit rot
    victim.write_bytes(bytes(data))
    print(f"== flipped one bit of "
          f"{victim.relative_to(runs_dir)} from outside")

    print("== resume after bit-flip")
    if _campaign(runs_dir, "--resume", "sharded") != 0:
        _fail("resume after bit-flip did not complete")
    healed = _campaign_digest(runs_dir, "sharded")
    if healed != sharded_digest:
        _fail(f"campaign digest diverged after bit-flip heal: "
              f"{healed} != {sharded_digest}")
    quarantined = _corrupt_files(runs_dir)
    if not any(q.startswith("sharded/") for q in quarantined):
        _fail(f"flipped manifest was not quarantined: {quarantined}")
    _check_creation_record(runs_dir, "sharded")
    print("== bit-flip detected by envelope checksum, re-run from "
          "creation record, campaign digest unchanged")

    print(f"== quarantine evidence: {quarantined}")
    if not args.keep:
        shutil.rmtree(runs_dir, ignore_errors=True)
    print("STORAGE CHAOS SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
