"""Text reporting helpers shared by the benches and examples."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's aggregate metric for speedups."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def pct(ratio: float) -> str:
    """Format a speedup ratio as a signed percentage."""
    return f"{(ratio - 1) * 100:+.1f}%"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with right-padded columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows))
        if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in str_rows)
    return "\n".join(lines)


def format_manifest(manifest, top: int = 5) -> str:
    """Human-readable run manifest for one experiment matrix.

    Shows the run/hit split and the *top* slowest simulated cells — the
    cells worth caching, sharding, or shrinking first.
    """
    lines = [
        f"matrix: {manifest.total} cells — {manifest.simulated} simulated, "
        f"{manifest.cache_hits} cache hits ({manifest.hit_rate:.0%}), "
        f"jobs={manifest.jobs}, wall {manifest.wall_time:.2f}s"
    ]
    ran = sorted(
        (c for c in manifest.cells if c.source == "run"),
        key=lambda c: c.wall_time,
        reverse=True,
    )
    for cell in ran[:top]:
        lines.append(
            f"  {cell.wall_time:6.2f}s  {cell.workload} × {cell.config}"
        )
    return "\n".join(lines)


def summarize_session(summary) -> str:
    """One-line aggregate over every matrix submitted this session
    (a :class:`~repro.harness.parallel.SessionSummary`)."""
    total = summary.total
    if not total:
        return "matrix summary: no cells submitted"
    hits = summary.cache_hits
    line = (
        f"matrix summary: {total} cells — {summary.simulated} simulated, "
        f"{hits} cache hits ({hits / total:.0%}), "
        f"wall {summary.wall_time:.2f}s"
    )
    if summary.artifacts:
        line += "\nartifacts: " + ", ".join(summary.artifacts)
    return line


def per_category(
    speedups: Mapping[str, float], categories: Mapping[str, str]
) -> Dict[str, float]:
    """Geomean speedup per workload category (the Fig. 6 bars)."""
    buckets: Dict[str, List[float]] = {}
    for name, ratio in speedups.items():
        buckets.setdefault(categories.get(name, "?"), []).append(ratio)
    return {cat: geomean(vals) for cat, vals in sorted(buckets.items())}
