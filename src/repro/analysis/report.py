"""Plain-text rendering of experiment results (benches print these)."""

from __future__ import annotations

from typing import Sequence, Tuple

_BARS = " ▁▂▃▄▅▆▇█"


def ascii_table(headers: Sequence[str],
                rows: Sequence[Sequence[object]]) -> str:
    """Render a simple fixed-width table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    def line(row: Sequence[str]) -> str:
        return "  ".join(value.ljust(width)
                         for value, width in zip(row, widths)).rstrip()
    separator = "  ".join("-" * width for width in widths)
    out = [line(headers), separator]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def spark(values: Sequence[float]) -> str:
    """One-line sparkline of a numeric series."""
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low or 1.0
    return "".join(
        _BARS[int((value - low) / span * (len(_BARS) - 1))]
        for value in values
    )


def series_block(label: str, xs: Sequence[object],
                 ys: Sequence[float], unit: str = "") -> str:
    """A labelled series with sparkline and range, for figure benches."""
    suffix = f" {unit}" if unit else ""
    return (f"{label}: {spark(ys)}  "
            f"[{min(ys):.1f}..{max(ys):.1f}]{suffix} "
            f"({len(ys)} points, x={xs[0]}..{xs[-1]})")


def degradation_block(label: str, xs: Sequence[object],
                      series: Sequence[Tuple[str, Sequence[float]]]
                      ) -> str:
    """Render degradation curves (metric vs stress level) for several
    configurations side by side — one sparkline per series plus a
    point-by-point table (the robustness-ablation figures)."""
    lines = [label]
    for name, ys in series:
        if ys:
            lines.append(f"  {name:<12} {spark(ys)}  "
                         f"[{min(ys):.3f}..{max(ys):.3f}]")
        else:
            lines.append(f"  {name:<12} (no data)")
    headers = ["x"] + [name for name, _ in series]
    rows = [
        [x] + [f"{ys[index]:.3f}" if index < len(ys) else "-"
               for _, ys in series]
        for index, x in enumerate(xs)
    ]
    lines.append(ascii_table(headers, rows))
    return "\n".join(lines)


def campaign_block(campaign_id: str, status: str,
                   jobs: Sequence[Tuple[str, str, str, int, float, str]],
                   *, digest: str,
                   lost: Sequence[Tuple[str, Sequence[str]]] = ()
                   ) -> str:
    """Render a campaign manifest summary.

    ``jobs`` rows are ``(job_id, shard, status, attempts, duration_s,
    digest_or_error)`` and ``lost`` rows ``(shard, job_ids)`` — the
    renderer stays decoupled from :mod:`repro.runner` by taking plain
    tuples.
    """
    table = ascii_table(
        ("job", "shard", "status", "attempts", "duration", "result"),
        [(job_id, shard or "-", status_, attempts,
          f"{duration:.2f}s" if duration else "-",
          result or "-")
         for job_id, shard, status_, attempts, duration, result
         in jobs])
    counts: dict = {}
    for _, _, status_, *_rest in jobs:
        counts[status_] = counts.get(status_, 0) + 1
    tally = ", ".join(f"{count} {status_}"
                      for status_, count in sorted(counts.items()))
    lines = [f"campaign {campaign_id}: {status} ({tally})",
             f"campaign digest: {digest}"]
    for shard, job_ids in lost:
        lines.append(f"LOST from {shard}: " + ", ".join(job_ids))
    if status == "INTERRUPTED":
        lines.append("campaign INTERRUPTED — resume with "
                     f"`repro campaign --resume {campaign_id}`")
    lines.append(table)
    return "\n".join(lines)


def pct(value: float) -> str:
    return f"{100 * value:.1f}%"
