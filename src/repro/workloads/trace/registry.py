"""Naming and lookup for trace workloads.

Trace workloads are addressed as ``trace:<name-or-path>`` everywhere a
suite workload name is accepted (``repro run``, ``repro trace``, the
harness matrix, experiment drivers):

* ``trace:h2p_loop`` — a *registered* mini-trace: ``<name>.rbt.gz`` or
  ``<name>.cbp.gz`` found in the trace directory (``tests/traces/`` in a
  checkout, overridable via ``REPRO_TRACE_DIR``);
* ``trace:path/to/file.rbt.gz`` — any trace file on disk, native or
  CBP-style text.

Because a trace file's *content* defines the simulation, run identity
comes from a digest of the bytes (:func:`trace_content_digest`) — the
harness folds it into the memo/store key so editing a trace in place can
never serve stale results.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
from typing import Dict, Optional

from repro.workloads.trace.format import load_branch_trace
from repro.workloads.trace.replay import TraceReplayWorkload, build_trace_workload

TRACE_PREFIX = "trace:"

ENV_TRACE_DIR = "REPRO_TRACE_DIR"

#: suffixes the trace directory scan registers (native and CBP-style text)
REGISTERED_SUFFIXES = (".rbt.gz", ".cbp.gz")


def is_trace_name(name: object) -> bool:
    """Is *name* a ``trace:``-addressed workload?"""
    return isinstance(name, str) and name.startswith(TRACE_PREFIX)


def trace_dir() -> Optional[pathlib.Path]:
    """Directory holding the registered mini-traces, if one exists."""
    env = os.environ.get(ENV_TRACE_DIR)
    if env:
        path = pathlib.Path(env)
        return path if path.is_dir() else None
    here = pathlib.Path(__file__).resolve()
    candidates = []
    if len(here.parents) >= 5:
        candidates.append(here.parents[4] / "tests" / "traces")
    candidates.append(pathlib.Path.cwd() / "tests" / "traces")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    return None


def registered_traces() -> Dict[str, str]:
    """``{name: path}`` of the committed mini-traces."""
    directory = trace_dir()
    if directory is None:
        return {}
    out: Dict[str, str] = {}
    for entry in sorted(directory.iterdir()):
        for suffix in REGISTERED_SUFFIXES:
            if entry.name.endswith(suffix):
                out.setdefault(entry.name[: -len(suffix)], str(entry))
                break
    return out


def trace_workload_names() -> list:
    """Addressable names of all registered traces (``trace:<name>``)."""
    return [TRACE_PREFIX + name for name in registered_traces()]


def resolve_trace_path(name: str) -> str:
    """Map a ``trace:`` workload name to a trace file path."""
    ref = name[len(TRACE_PREFIX):] if is_trace_name(name) else name
    if not ref:
        raise KeyError("empty trace reference; use trace:<name> or trace:<path>")
    registered = registered_traces()
    if ref in registered:
        return registered[ref]
    if os.path.exists(ref):
        return ref
    known = ", ".join(sorted(registered)) or "none found"
    raise KeyError(
        f"unknown trace {ref!r}: not a registered mini-trace ({known}) "
        f"and no such file"
    )


def trace_content_digest(path: str) -> str:
    """Stable digest of a trace file's bytes (cache-key component)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def load_trace_workload(name: str) -> TraceReplayWorkload:
    """Load and reconstruct the trace workload addressed by *name*."""
    path = resolve_trace_path(name)
    meta, records = load_branch_trace(path)
    canonical = TRACE_PREFIX + (
        name[len(TRACE_PREFIX):] if is_trace_name(name) else name
    )
    return build_trace_workload(meta, records, name=canonical)
