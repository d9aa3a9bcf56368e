"""Traced-run driver shared by the CLI and the service layer.

``python -m repro trace`` and ``POST /api/v1/trace`` both mean the same
thing: re-simulate one workload with the trace collector armed and write
the exported artifacts somewhere.  This module is the single
implementation — run the window, export the requested formats, report
what was written — so the two surfaces cannot drift apart.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core import Core
from repro.core.stats import SimStats
from repro.harness.runner import prepare_run, resolve_workload
from repro.trace.chrome import export_chrome
from repro.trace.config import TraceConfig
from repro.trace.konata import export_konata
from repro.trace.timeline import format_acb_log, format_branch_timeline

#: The exportable artifact formats, in emission order.
TRACE_FORMATS = ("konata", "chrome", "log", "timeline")


@dataclass
class TraceArtifact:
    """One exported file: its format, where it went, and a count detail."""

    format: str      # konata | chrome | log | timeline
    path: str
    detail: str      # human-readable, e.g. "8123 uops"


@dataclass
class TracedRun:
    """Everything a traced simulation produced."""

    workload: str
    config: str
    stats: SimStats
    artifacts: List[TraceArtifact]
    trace_summary: str
    truncated_uops: int
    truncated_acb: int
    wall_time: float

    @property
    def paths(self) -> List[str]:
        return [a.path for a in self.artifacts]


def run_traced(
    workload_ref: str,
    config: str = "acb",
    *,
    out_dir: Optional[str] = None,
    formats: Optional[Sequence[str]] = None,
    warmup: int = 3000,
    measure: int = 2000,
    scale: int = 1,
    pc: Optional[int] = None,
    uop_capacity: int = 1 << 16,
    acb_capacity: int = 1 << 14,
) -> TracedRun:
    """Simulate *workload_ref* with tracing on; export *formats* to *out_dir*.

    Raises ``ValueError`` for an unknown format and lets workload/config
    resolution errors propagate — callers validate their own surface.
    """
    formats = list(dict.fromkeys(formats)) if formats else list(TRACE_FORMATS)
    for fmt in formats:
        if fmt not in TRACE_FORMATS:
            raise ValueError(
                f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}"
            )

    workload = resolve_workload(workload_ref)
    trace_cfg = TraceConfig(uop_capacity=uop_capacity, acb_capacity=acb_capacity)
    core_cfg, scheme, predictor = prepare_run(workload, config, core_scale=scale)
    core_cfg = replace(core_cfg, trace=trace_cfg)

    started = time.perf_counter()
    core = Core(workload, core_cfg, scheme=scheme, predictor=predictor)
    stats = core.run_window(warmup, measure)
    core.trace.finish(core.cycle)
    wall_time = time.perf_counter() - started

    slug = workload_ref.replace(":", "_").replace("/", "_")
    out_dir = out_dir or os.path.join(".repro_traces", f"{slug}-{config}")
    os.makedirs(out_dir, exist_ok=True)

    artifacts: List[TraceArtifact] = []
    if "konata" in formats:
        path = os.path.join(out_dir, "trace.konata")
        count = export_konata(core.trace, path)
        artifacts.append(TraceArtifact(
            "konata", path, f"{count} uops (open with the Konata pipeline viewer)"
        ))
    if "chrome" in formats:
        path = os.path.join(out_dir, "trace.json")
        count = export_chrome(core.trace, path)
        artifacts.append(TraceArtifact(
            "chrome", path, f"{count} events (load at https://ui.perfetto.dev)"
        ))
    if "log" in formats:
        path = os.path.join(out_dir, "acb_log.txt")
        with open(path, "w") as handle:
            handle.write(format_acb_log(core.trace))
        artifacts.append(TraceArtifact(
            "log", path, f"{core.trace.acb_seen} ACB decision events"
        ))
    if "timeline" in formats:
        path = os.path.join(out_dir, "timeline.txt")
        with open(path, "w") as handle:
            handle.write(format_branch_timeline(core.trace, pc=pc))
        artifacts.append(TraceArtifact("timeline", path, "per-branch timeline"))

    return TracedRun(
        workload=workload_ref,
        config=config,
        stats=stats,
        artifacts=artifacts,
        trace_summary=core.trace.summary(),
        truncated_uops=core.trace.truncated_uops,
        truncated_acb=core.trace.truncated_acb,
        wall_time=wall_time,
    )
