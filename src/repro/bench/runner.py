"""Timed bench execution and the opt-in cProfile stage breakdown.

Each target is simulated in-process with a fresh :class:`~repro.core.Core`
(never through the experiment store — the point is to *time* the simulator),
and the wall clock covers core construction plus the full warmup+measure
window.  Throughput is reported as simulated cycles and fetched micro-ops
per wall second; the simulation outputs themselves (cycles, instructions,
IPC) ride along so a report doubles as a coarse cross-machine sanity check.
Each record also counts the cyclic-GC collections inside the timed region.
The engine's micro-ops die by reference count, so on a healthy tree only
building the core's tables triggers collections; a count that climbs
means some change re-formed reference cycles.

``profile=True`` wraps the whole matrix in :mod:`cProfile` and attaches a
per-function breakdown (engine stages, predictor lookups, the memory
hierarchy, the functional executor) to the report — the first tool to reach
for when ``--compare`` shows a slowdown (see docs/performance.md).
"""

from __future__ import annotations

import gc
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.schema import SCHEMA_NAME, SCHEMA_VERSION
from repro.bench.targets import BenchTarget, bench_targets

#: Source files whose functions the profile breakdown keeps (everything the
#: hot loop can touch); the rest of the profile is aggregated as "other".
_PROFILE_FILES = (
    "core/engine.py",
    "isa/dyninst.py",
    "isa/instruction.py",
    "branch/",
    "memory/",
    "workloads/workload.py",
    "workloads/behaviors.py",
)


def _gc_collections() -> int:
    """Cyclic-GC collections so far in this process, over all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def _run_matrix_target(target: BenchTarget) -> Dict[str, Any]:
    """Time one end-to-end ``run_matrix`` invocation (group ``matrix``).

    The experiment store is detached and the in-process memo cleared on
    both sides of the run, so the target simulates all its cells from
    scratch.  ``jobs=1`` keeps the worker pool out of the measurement.
    """
    from repro.harness.cache import set_active_store
    from repro.harness.parallel import RunRequest, run_matrix
    from repro.harness.runner import clear_memo

    requests = [
        RunRequest(workload, config,
                   warmup=target.warmup, measure=target.measure)
        for workload in target.matrix_workloads
        for config in target.matrix_configs
    ]
    saved_store = set_active_store(None)
    clear_memo()
    try:
        collections = _gc_collections()
        started = time.perf_counter()
        results = run_matrix(requests, jobs=1)
        wall = time.perf_counter() - started
        collections = _gc_collections() - collections
    finally:
        clear_memo()
        set_active_store(saved_store)

    cycles = sum(r.stats.cycles for r in results)
    uops = sum(r.stats.retired_uops for r in results)
    instructions = sum(r.stats.instructions for r in results)
    return {
        "name": target.name,
        "group": target.group,
        "workload": target.workload,
        "config": target.config,
        "warmup": target.warmup,
        "measure": target.measure,
        "wall_s": round(wall, 6),
        "cycles": cycles,
        "uops": uops,
        "instructions": instructions,
        "cycles_per_s": round(cycles / wall, 1),
        "uops_per_s": round(uops / wall, 1),
        "ipc": round(instructions / cycles if cycles else 0.0, 4),
        "cells": len(requests),
        "cells_per_s": round(len(requests) / wall, 3),
        "gc_collections": collections,
    }


def _run_target(target: BenchTarget) -> Dict[str, Any]:
    from repro.core import Core
    from repro.harness.runner import prepare_run
    from repro.workloads import load_suite

    if target.matrix_workloads:
        return _run_matrix_target(target)
    if target.factory is not None:
        workload = target.factory()
    else:
        (workload,) = load_suite([target.workload])
    cfg, scheme, predictor = prepare_run(workload, target.config)

    collections = _gc_collections()
    started = time.perf_counter()
    core = Core(workload, cfg, scheme=scheme, predictor=predictor)
    stats = core.run_window(target.warmup, target.measure)
    wall = time.perf_counter() - started
    collections = _gc_collections() - collections

    return {
        "name": target.name,
        "group": target.group,
        "workload": target.workload,
        "config": target.config,
        "warmup": target.warmup,
        "measure": target.measure,
        "wall_s": round(wall, 6),
        "cycles": core.cycle,
        "uops": core._seq,
        "instructions": core.func.instr_count,
        "cycles_per_s": round(core.cycle / wall, 1),
        "uops_per_s": round(core._seq / wall, 1),
        "ipc": round(stats.ipc, 4),
        "gc_collections": collections,
    }


def _profile_breakdown(profiler) -> Dict[str, Any]:
    """Aggregate a cProfile run into a JSON-friendly per-function table."""
    import pstats

    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    total = 0.0
    for (filename, _lineno, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        total += tottime
        norm = filename.replace("\\", "/")
        for marker in _PROFILE_FILES:
            if marker in norm:
                tail = norm.split("repro/", 1)[-1]
                rows.append({
                    "function": f"{tail}:{func}",
                    "calls": int(ncalls),
                    "tottime_s": round(tottime, 4),
                    "cumtime_s": round(cumtime, 4),
                })
                break
    rows.sort(key=lambda r: r["tottime_s"], reverse=True)
    accounted = sum(r["tottime_s"] for r in rows)
    return {
        "total_s": round(total, 4),
        "other_s": round(total - accounted, 4),
        "functions": rows[:40],
    }


def run_bench(
    quick: bool = False,
    tag: str = "local",
    groups: Optional[Sequence[str]] = None,
    profile: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the pinned target matrix and return a schema-valid report."""
    targets = bench_targets(quick=quick)
    if groups:
        wanted = set(groups)
        unknown = wanted - {t.group for t in targets}
        if unknown:
            raise ValueError(
                f"unknown bench group(s) {sorted(unknown)}; "
                f"have {sorted({t.group for t in targets})}"
            )
        targets = [t for t in targets if t.group in wanted]

    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    runs: List[Dict[str, Any]] = []
    for target in targets:
        record = _run_target(target)
        runs.append(record)
        if progress is not None:
            progress(
                f"{record['name']}: {record['wall_s']:.2f}s  "
                f"{record['cycles_per_s']:,.0f} cycles/s  "
                f"gc {record['gc_collections']}"
            )

    breakdown = None
    if profiler is not None:
        profiler.disable()
        breakdown = _profile_breakdown(profiler)

    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "quick": quick,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
        "runs": runs,
        "profile": breakdown,
    }
