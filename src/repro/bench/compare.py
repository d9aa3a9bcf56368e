"""Baseline comparison: per-run and per-group cycles/sec deltas.

Runs are matched by their stable target name; the headline number is the
geometric mean of per-run ``cycles_per_s`` ratios (new / baseline), per
group and overall.  A ratio above 1.0 means the new tree is faster.

The regression gate is deliberately generous: wall-clock numbers move with
the host, so CI compares with a wide threshold (default 1.5×) and only
fails on an overall slowdown *past* it — enough headroom for runner noise,
tight enough to catch a real hot-loop regression.

The table's ``gc`` column shows each new run's ``gc_collections`` (``-``
for reports that predate the field).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.schema import runs_by_name


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


@dataclass
class CompareResult:
    """Outcome of comparing a new report against a baseline report."""

    #: (name, baseline cycles/s, new cycles/s, ratio new/baseline)
    rows: List[Tuple[str, float, float, float]] = field(default_factory=list)
    #: group → geomean ratio over that group's matched runs
    per_group: Dict[str, float] = field(default_factory=dict)
    #: geomean ratio over every matched run
    overall: float = 0.0
    #: target names present in only one of the two reports
    only_in_baseline: List[str] = field(default_factory=list)
    only_in_new: List[str] = field(default_factory=list)
    #: matched names whose simulation windows differ (rates not comparable)
    window_mismatch: List[str] = field(default_factory=list)
    #: name → the new run's cyclic-GC collections (None: not recorded)
    gc_collections: Dict[str, Optional[int]] = field(default_factory=dict)

    def regressed(self, threshold: float) -> bool:
        """True when the new tree is more than *threshold*× slower overall."""
        return bool(self.rows) and self.overall < 1.0 / threshold


def compare_reports(baseline: Dict[str, Any], new: Dict[str, Any]) -> CompareResult:
    """Match runs by name and compute throughput ratios."""
    base_runs = runs_by_name(baseline)
    new_runs = runs_by_name(new)
    result = CompareResult()
    result.only_in_baseline = sorted(set(base_runs) - set(new_runs))
    result.only_in_new = sorted(set(new_runs) - set(base_runs))

    group_ratios: Dict[str, List[float]] = {}
    for name in sorted(set(base_runs) & set(new_runs)):
        old, cur = base_runs[name], new_runs[name]
        if (old["warmup"], old["measure"]) != (cur["warmup"], cur["measure"]):
            result.window_mismatch.append(name)
            continue
        ratio = cur["cycles_per_s"] / old["cycles_per_s"]
        result.rows.append((name, old["cycles_per_s"], cur["cycles_per_s"], ratio))
        result.gc_collections[name] = cur.get("gc_collections")
        group_ratios.setdefault(cur["group"], []).append(ratio)

    result.per_group = {g: _geomean(rs) for g, rs in sorted(group_ratios.items())}
    result.overall = _geomean([row[3] for row in result.rows])
    return result


def format_compare(result: CompareResult, baseline_tag: str = "baseline") -> str:
    """Human-readable comparison table."""
    lines = [
        f"{'target':36s} {'base c/s':>12s} {'new c/s':>12s} {'speedup':>8s} "
        f"{'gc':>5s}"
    ]
    for name, old, new, ratio in result.rows:
        collections = result.gc_collections.get(name)
        gc_cell = "-" if collections is None else str(collections)
        lines.append(
            f"{name:36s} {old:12,.0f} {new:12,.0f} {ratio:7.2f}x {gc_cell:>5s}"
        )
    lines.append("")
    for group, ratio in result.per_group.items():
        lines.append(f"geomean [{group}]: {ratio:.2f}x")
    lines.append(f"geomean [overall vs {baseline_tag}]: {result.overall:.2f}x")
    for name in result.window_mismatch:
        lines.append(f"warning: {name}: simulation windows differ — skipped")
    if result.only_in_baseline:
        lines.append("only in baseline: " + ", ".join(result.only_in_baseline))
    if result.only_in_new:
        lines.append("only in new run: " + ", ".join(result.only_in_new))
    return "\n".join(lines)
