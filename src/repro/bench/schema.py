"""Bench report schema and validation.

A report is plain JSON so other tooling (CI artifact diffing, plotting)
can consume it without this package.  ``schema_version`` gates evolution:
consumers must reject reports with a *newer* major version than they know.

Top level::

    {
      "schema": "repro-bench",
      "schema_version": 1,
      "tag": "baseline",            # free-form label (--tag)
      "quick": true,                # CI-sized matrix vs the full one
      "created": "2026-08-06T12:00:00Z",
      "python": "3.12.3",
      "platform": "Linux-...",
      "runs": [ <run>, ... ],       # one record per bench target
      "profile": { ... } | null     # cProfile breakdown (--profile only)
    }

Each run record::

    {
      "name": "fig6:lammps:acb",    # stable target name (compare key)
      "group": "fig6",              # fig6 | scheme | micro | trace
      "workload": "lammps",
      "config": "acb",
      "warmup": 16000, "measure": 12000,
      "wall_s": 0.71,               # wall-clock seconds for the whole run
      "cycles": 36256,              # simulated cycles (warmup + window)
      "uops": 48210,                # micro-ops fetched
      "instructions": 28000,        # architectural instructions executed
      "cycles_per_s": 51064.8,      # cycles / wall_s   (throughput metrics)
      "uops_per_s": 67900.0,
      "ipc": 0.754                  # measurement-window IPC (sanity anchor)
    }

Version 2 adds *matrix* run records (group ``"matrix"``): one record times
an end-to-end ``run_matrix`` invocation rather than a single core.  Matrix
records carry two extra keys::

    {
      ...,
      "cells": 8,                   # matrix cells simulated
      "cells_per_s": 6.5            # cells / wall_s (matrix throughput)
    }

and their ``cycles``/``uops``/``instructions`` are sums over the matrix's
measurement windows.  The extra keys are optional per run record, so a v2
tool accepts v1 reports unchanged (and v1 baselines simply have no matrix
records to match).

The ``cycles``/``uops``/``instructions``/``ipc`` fields are *simulation*
results and must be machine-independent: two runs of the same tree on any
host agree exactly (the bit-identical-stats invariant).  Only ``wall_s``
and the derived ``*_per_s`` rates vary across machines.
"""

from __future__ import annotations

from typing import Any, Dict, List

SCHEMA_NAME = "repro-bench"
SCHEMA_VERSION = 2

_TOP_REQUIRED = {
    "schema": str,
    "schema_version": int,
    "tag": str,
    "quick": bool,
    "created": str,
    "python": str,
    "platform": str,
    "runs": list,
}

_NUMERIC = (int, float)

_RUN_REQUIRED = {
    "name": str,
    "group": str,
    "workload": str,
    "config": str,
    "warmup": int,
    "measure": int,
    "wall_s": _NUMERIC,
    "cycles": int,
    "uops": int,
    "instructions": int,
    "cycles_per_s": _NUMERIC,
    "uops_per_s": _NUMERIC,
    "ipc": _NUMERIC,
}

#: schema-v2 matrix-record keys; validated when present (v1 reports omit
#: them, which stays valid).
_RUN_OPTIONAL = {
    "cells": int,
    "cells_per_s": _NUMERIC,
}


def validate_report(report: Any) -> List[str]:
    """Return a list of schema violations (empty when the report is valid)."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return [f"report must be a JSON object, got {type(report).__name__}"]
    for key, expected in _TOP_REQUIRED.items():
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
        elif not isinstance(report[key], expected):
            problems.append(
                f"top-level {key!r} must be {expected}, "
                f"got {type(report[key]).__name__}"
            )
    if problems:
        return problems
    if report["schema"] != SCHEMA_NAME:
        problems.append(f"schema must be {SCHEMA_NAME!r}, got {report['schema']!r}")
    if report["schema_version"] > SCHEMA_VERSION:
        problems.append(
            f"schema_version {report['schema_version']} is newer than this "
            f"tool understands ({SCHEMA_VERSION})"
        )
    if not report["runs"]:
        problems.append("report contains no runs")
    seen = set()
    for i, run in enumerate(report["runs"]):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: must be an object")
            continue
        for key, expected in _RUN_REQUIRED.items():
            if key not in run:
                problems.append(f"{where}: missing key {key!r}")
            elif not isinstance(run[key], expected) or isinstance(run[key], bool):
                problems.append(
                    f"{where}: {key!r} has wrong type {type(run[key]).__name__}"
                )
        for key, expected in _RUN_OPTIONAL.items():
            if key in run and (
                not isinstance(run[key], expected) or isinstance(run[key], bool)
            ):
                problems.append(
                    f"{where}: {key!r} has wrong type {type(run[key]).__name__}"
                )
        name = run.get("name")
        if name in seen:
            problems.append(f"{where}: duplicate run name {name!r}")
        seen.add(name)
        wall = run.get("wall_s")
        if isinstance(wall, _NUMERIC) and not isinstance(wall, bool) and wall <= 0:
            problems.append(f"{where}: wall_s must be positive")
    return problems


def runs_by_name(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Index a validated report's runs by their stable target name."""
    return {run["name"]: run for run in report["runs"]}
