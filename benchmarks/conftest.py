"""Shared benchmark infrastructure.

Every benchmark registers a human-readable findings report via
:func:`report`; a terminal-summary hook prints them all at the end of
the run, so ``pytest benchmarks/ --benchmark-only | tee ...`` captures
both the timing table and the reproduced paper numbers.

Set ``NV_REPORT_JSON=<path>`` to additionally export the findings as
JSON — written through the campaign runner's atomic writer, so a
killed benchmark run never leaves a truncated file behind.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Tuple

_REPORTS: List[Tuple[str, str]] = []


def report(title: str, body: str) -> None:
    """Record a findings block to print after the run."""
    _REPORTS.append((title, body))


def corpus_size(default: int = 2000) -> int:
    """Benchmark corpus size; override with NV_CORPUS_SIZE
    (paper: 175,168)."""
    return int(os.environ.get("NV_CORPUS_SIZE", str(default)))


def _export_json(path: str) -> None:
    from repro.storage import atomic_write_json
    payload = {
        "reports": [
            {
                "title": title,
                "body": body,
                "digest": hashlib.sha256(body.encode()).hexdigest(),
            }
            for title, body in _REPORTS
        ],
    }
    atomic_write_json(path, payload)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    json_path = os.environ.get("NV_REPORT_JSON")
    if json_path:
        _export_json(json_path)
        terminalreporter.write_line(
            f"findings JSON written atomically to {json_path}")
    write = terminalreporter.write_line
    write("")
    write("=" * 70)
    write("NightVision reproduction — experiment findings")
    write("=" * 70)
    for title, body in _REPORTS:
        write("")
        write(f"--- {title} ---")
        for line in body.splitlines():
            write(line)
