"""Collect everything the dashboard renders, as plain data.

One pass over the experiment database (and the ``BENCH_<tag>.json``
reports next to it) produces a :class:`DashboardData` — the renderer in
:mod:`repro.dashboard.render` is a pure function of this object, which is
what the structural tests assert against.  The store is opened in
tolerant mode: a missing or corrupt database renders an empty dashboard
instead of failing.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Stored runs whose config equals this are the speedup denominator.
BASELINE_CONFIG = "baseline"

#: Most-mispredicting branch PCs shown in the per-branch table.
TOP_BRANCHES = 12

#: Occurrence marks drawn per branch in a timeline strip.
TIMELINE_MARKS = 160


@dataclass
class DashboardData:
    """Everything the single-file dashboard shows."""

    title: str = "repro dashboard"
    db_path: str = ""
    schema: Dict[str, Any] = field(default_factory=dict)
    runs: List[Dict[str, Any]] = field(default_factory=list)
    jobs: List[Dict[str, Any]] = field(default_factory=list)
    lease_counts: Dict[str, int] = field(default_factory=dict)
    leases: List[Dict[str, Any]] = field(default_factory=list)
    #: per non-baseline config: geomean speedup vs baseline across the
    #: matrix groups where both sides exist
    speedups: List[Dict[str, Any]] = field(default_factory=list)
    #: top mispredicting branch PCs aggregated over the stored runs
    branches: List[Dict[str, Any]] = field(default_factory=list)
    #: parsed per-branch timeline artifacts (repro trace --formats timeline)
    timelines: List[Dict[str, Any]] = field(default_factory=list)
    #: bench trajectory: group -> [{tag, created, cycles_per_s}] in
    #: report-creation order (the sparkline series)
    bench: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    bench_reports: int = 0


def geomean(values: List[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


# ----------------------------------------------------------------------
# store-side collection
# ----------------------------------------------------------------------
def _collect_runs(store, limit: int) -> List[Dict[str, Any]]:
    runs = []
    for summary in store.query_runs(limit=limit):
        record = store.get_run(summary["run_id"])
        if record is None:
            continue
        summary = dict(summary)
        summary["stats"] = record["stats"]
        runs.append(summary)
    return runs


def _speedups(runs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Geomean speedup vs ``baseline`` per scheme, newest run per cell.

    Cells group on (workload, core_scale, predictor, warmup, measure) so a
    config is only compared against the baseline simulated under the
    *same* window — never across windows.
    """
    newest: Dict[tuple, Dict[str, Any]] = {}
    for run in runs:  # query_runs is newest-first; keep the first seen
        cell = (run["workload"], run["core_scale"], run["predictor"],
                run["warmup"], run["measure"], run["config"])
        newest.setdefault(cell, run)
    by_config: Dict[str, List[Dict[str, Any]]] = {}
    for (workload, scale, predictor, warmup, measure, config), run \
            in newest.items():
        if config == BASELINE_CONFIG:
            continue
        base = newest.get(
            (workload, scale, predictor, warmup, measure, BASELINE_CONFIG)
        )
        if base is None:
            continue
        cycles = run["stats"].get("cycles", 0)
        base_cycles = base["stats"].get("cycles", 0)
        if not cycles or not base_cycles:
            continue
        by_config.setdefault(config, []).append({
            "workload": workload,
            "speedup": base_cycles / cycles,
        })
    out = []
    for config, rows in by_config.items():
        rows.sort(key=lambda r: r["speedup"], reverse=True)
        out.append({
            "config": config,
            "geomean": geomean([r["speedup"] for r in rows]),
            "count": len(rows),
            "per_workload": rows,
        })
    out.sort(key=lambda r: r["geomean"], reverse=True)
    return out


def _branches(runs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Top mispredicting PCs across the stored runs (newest run wins)."""
    seen: Dict[tuple, Dict[str, Any]] = {}
    for run in runs:
        for pc, stats in (run["stats"].get("per_branch") or {}).items():
            key = (run["workload"], run["config"], pc)
            if key in seen:
                continue
            executed = stats.get("executed", 0)
            seen[key] = {
                "workload": run["workload"],
                "config": run["config"],
                "pc": int(pc),
                "executed": executed,
                "mispredicted": stats.get("mispredicted", 0),
                "predicated": stats.get("predicated", 0),
                "rate": (stats.get("mispredicted", 0) / executed
                         if executed else 0.0),
            }
    rows = sorted(seen.values(),
                  key=lambda r: (r["mispredicted"], r["rate"]), reverse=True)
    return rows[:TOP_BRANCHES]


# ----------------------------------------------------------------------
# timeline artifacts (repro trace --formats timeline)
# ----------------------------------------------------------------------
_BRANCH_RE = re.compile(
    r"^branch pc=(\d+): (\d+) occurrences in window "
    r"\((\d+) mispredicted, (\d+) predicated\)"
)
_OCCURRENCE_RE = re.compile(
    r"^\s+cycle\s+(\d+)\s+seq=\d+\s+pred=\S+\s+actual=\S+\s+(.*\S)"
)


def parse_timeline(text: str) -> List[Dict[str, Any]]:
    """Parse a per-branch timeline artifact into plottable occurrences."""
    branches: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    for line in text.splitlines():
        header = _BRANCH_RE.match(line)
        if header:
            current = {
                "pc": int(header.group(1)),
                "occurrences_total": int(header.group(2)),
                "mispredicted": int(header.group(3)),
                "predicated": int(header.group(4)),
                "occurrences": [],
            }
            branches.append(current)
            continue
        if current is None:
            continue
        mark = _OCCURRENCE_RE.match(line)
        if mark:
            current["occurrences"].append({
                "cycle": int(mark.group(1)),
                "outcome": mark.group(2).strip(),
            })
    for branch in branches:
        branch["occurrences"] = branch["occurrences"][-TIMELINE_MARKS:]
    return branches


def _timelines(store) -> List[Dict[str, Any]]:
    out = []
    for job in store.list_jobs(limit=50):
        for artifact in store.artifacts_for(job["job_id"]):
            if artifact.get("format") != "timeline":
                continue
            path = artifact.get("path", "")
            try:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                continue
            branches = parse_timeline(text)
            if branches:
                out.append({
                    "name": artifact.get("name", os.path.basename(path)),
                    "job_id": job["job_id"],
                    "branches": branches,
                })
    return out


# ----------------------------------------------------------------------
# bench trajectory (BENCH_<tag>.json files)
# ----------------------------------------------------------------------
def _bench_series(bench_dir: str) -> tuple:
    reports = []
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        try:
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            continue
        if not isinstance(report, dict) or "runs" not in report:
            continue
        reports.append(report)
    reports.sort(key=lambda r: str(r.get("created", "")))
    series: Dict[str, List[Dict[str, Any]]] = {}
    for report in reports:
        by_group: Dict[str, List[float]] = {}
        for run in report.get("runs", []):
            rate = run.get("cycles_per_s", 0) or 0
            if rate > 0:
                by_group.setdefault(str(run.get("group", "?")), []).append(rate)
        for group, rates in by_group.items():
            series.setdefault(group, []).append({
                "tag": str(report.get("tag", "?")),
                "created": str(report.get("created", "")),
                "cycles_per_s": geomean(rates),
            })
    return series, len(reports)


# ----------------------------------------------------------------------
def collect(
    db_path: Optional[str] = None,
    bench_dir: str = ".",
    limit: int = 500,
    title: Optional[str] = None,
) -> DashboardData:
    """Read the store and bench reports into one :class:`DashboardData`."""
    from repro.service.store import ExperimentStore

    store = ExperimentStore(db_path, strict=False)
    data = DashboardData(
        title=title or "repro dashboard — ACB (ISCA 2020) reproduction",
        db_path=str(store.path),
    )
    try:
        data.schema = store.schema_info()
        data.runs = _collect_runs(store, limit)
        data.jobs = store.list_jobs(limit=50)
        data.lease_counts = store.lease_counts()
        data.leases = store.list_leases(limit=200)
        data.timelines = _timelines(store)
    finally:
        store.close()
    data.speedups = _speedups(data.runs)
    data.branches = _branches(data.runs)
    data.bench, data.bench_reports = _bench_series(bench_dir)
    return data
