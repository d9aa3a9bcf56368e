"""Parallel fan-out over the experiment matrix.

Every figure driver ultimately evaluates a matrix of independent
(workload × configuration × scale) simulation cells.  This module is the
single submission point for such matrices: it deduplicates cells against
the in-process memo and the durable experiment store
(:mod:`repro.harness.cache`), fans the remaining cells out over a
``ProcessPoolExecutor``, and records a per-matrix *run manifest* (cells
simulated vs. memo/store hits, wall-time per cell).

Worker count comes from the ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``.  ``REPRO_JOBS=1`` — and any
request that cannot be pickled, e.g. an ad-hoc :class:`Workload` subclass
defined in a test body — falls back to serial in-process execution, which
is bit-identical because the simulator is deterministic and each cell is
independently seeded.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from repro.acb import AcbConfig
from repro.core import CoreConfig
from repro.harness.cache import set_active_store
from repro.harness.runner import (
    RunResult,
    _relabel,
    lookup_cached,
    normalized_run_key,
    run_workload,
    store_result,
)
from repro.workloads import Workload

__all__ = [
    "BACKENDS",
    "CellRecord",
    "MatrixManifest",
    "RunRequest",
    "SessionSummary",
    "default_jobs",
    "last_manifest",
    "reset_manifests",
    "resolve_backend",
    "run_matrix",
    "run_tasks",
    "session_summary",
    "shutdown_pool",
]

#: Matrix dispatch backends (``--backend`` / ``REPRO_BACKEND``):
#: serial       in-process, one cell at a time (the default with jobs=1)
#: pool         ProcessPoolExecutor cell fan-out (the default with jobs>1)
#: distributed  lease-based workers over the service HTTP API
#:              (repro.harness.distributed)
BACKENDS = ("serial", "pool", "distributed")

ENV_BACKEND = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize the backend choice: argument, else ``REPRO_BACKEND``.

    Returns ``""`` when nothing was requested — ``run_matrix`` then picks
    serial or pool from ``jobs``.
    """
    value = (backend if backend is not None
             else os.environ.get(ENV_BACKEND, "")).strip().lower()
    if not value:
        return ""
    if value not in BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(BACKENDS)}, got {value!r}"
        )
    return value


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunRequest:
    """One cell of an experiment matrix (the arguments of ``run_workload``)."""

    workload: Union[str, Workload]
    config: str = "baseline"
    core_scale: int = 1
    predictor: Optional[str] = None
    warmup: Optional[int] = None
    measure: Optional[int] = None
    acb_config: Optional[AcbConfig] = None
    core_config: Optional[CoreConfig] = None

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    def memo_key(self) -> Optional[tuple]:
        """Normalized run key, or ``None`` for unkeyable ad-hoc cells."""
        if not isinstance(self.workload, str):
            return None
        if self.acb_config is not None or self.core_config is not None:
            return None
        return normalized_run_key(
            self.workload,
            self.config,
            self.core_scale,
            self.predictor,
            self.warmup,
            self.measure,
        )

    def kwargs(self) -> Dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "core_scale": self.core_scale,
            "predictor": self.predictor,
            "warmup": self.warmup,
            "measure": self.measure,
            "acb_config": self.acb_config,
            "core_config": self.core_config,
        }


@dataclass
class CellRecord:
    """How one matrix cell was satisfied."""

    workload: str
    config: str
    source: str          # "run" | "memo" | "store" | "dedup"
    wall_time: float = 0.0
    #: distributed dispatch only: the worker that executed the cell.
    worker: str = ""


@dataclass
class MatrixManifest:
    """Accounting for one ``run_matrix`` invocation."""

    jobs: int = 1
    wall_time: float = 0.0
    #: resolved dispatch backend — see :data:`BACKENDS`.
    backend: str = "serial"
    cells: List[CellRecord] = field(default_factory=list)
    #: files written alongside the runs (trace exports, decision logs).
    artifacts: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def simulated(self) -> int:
        return sum(1 for c in self.cells if c.source == "run")

    @property
    def cache_hits(self) -> int:
        return sum(
            1 for c in self.cells
            if c.source in ("memo", "store", "dedup")
        )

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.cells else 0.0


@dataclass
class SessionSummary:
    """Running totals over every matrix submitted in this process.

    Kept instead of the manifests themselves, so a long-lived process (a
    service, a benchmark loop) does not hold one record per cell it ever
    ran.
    """

    matrices: int = 0
    total: int = 0
    simulated: int = 0
    cache_hits: int = 0
    wall_time: float = 0.0
    artifacts: List[str] = field(default_factory=list)


_SESSION = SessionSummary()
_SESSION_LOCK = threading.Lock()
#: each thread's most recent manifest: concurrent callers (the service's
#: job queue next to request handlers) never see each other's
_LAST = threading.local()


def _record(manifest: MatrixManifest) -> None:
    _LAST.manifest = manifest
    with _SESSION_LOCK:
        _SESSION.matrices += 1
        _SESSION.total += manifest.total
        _SESSION.simulated += manifest.simulated
        _SESSION.cache_hits += manifest.cache_hits
        _SESSION.wall_time += manifest.wall_time
        _SESSION.artifacts.extend(manifest.artifacts)


def last_manifest() -> Optional[MatrixManifest]:
    """The manifest of this thread's most recent matrix."""
    return getattr(_LAST, "manifest", None)


def session_summary() -> SessionSummary:
    """A copy of this process's running matrix totals."""
    with _SESSION_LOCK:
        return replace(_SESSION, artifacts=list(_SESSION.artifacts))


def reset_manifests() -> None:
    """Forget the session totals and this thread's last manifest."""
    global _SESSION
    _LAST.manifest = None
    with _SESSION_LOCK:
        _SESSION = SessionSummary()


def record_artifacts(paths, workload: str = "", config: str = "",
                     wall_time: float = 0.0) -> MatrixManifest:
    """Register files written by a tracing/diagnostic run.

    Creates a one-cell manifest so artifact paths show up in the
    end-of-session summary next to the simulation accounting.
    """
    manifest = MatrixManifest(jobs=1, wall_time=wall_time)
    if workload:
        manifest.cells.append(
            CellRecord(workload=workload, config=config, source="run",
                       wall_time=wall_time)
        )
    manifest.artifacts.extend(str(p) for p in paths)
    _record(manifest)
    return manifest


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _execute_cell(request: RunRequest):
    """Simulate one cell, reporting its wall time; failures name the cell."""
    start = time.monotonic()
    try:
        result = run_workload(**request.kwargs())
    except Exception as exc:
        raise _cell_error(request, exc) from exc
    return result, time.monotonic() - start


def _pool_cell(request: RunRequest):
    """Pool worker: ``(result, wall time, source)`` for one cell.

    Store lookups and writes happen in the parent (which already probed
    the store before submitting); detaching also keeps forked workers
    from using a stale inherited handle.  A long-lived worker keeps its
    own run memo, so a cell the parent no longer remembers may still be
    answered from it — reported as ``"memo"``, not as a simulation.
    """
    previous = set_active_store(None)
    try:
        key = request.memo_key()
        if key is not None:
            cached, source = lookup_cached(key)
            if cached is not None:
                return _relabel(cached, request.config), 0.0, source
        return (*_execute_cell(request), "run")
    finally:
        set_active_store(previous)


def _cell_error(request: RunRequest, exc: BaseException) -> RuntimeError:
    return RuntimeError(
        f"simulation cell {request.workload_name!r} × {request.config!r} "
        f"failed: {type(exc).__name__}: {exc}"
    )


# ----------------------------------------------------------------------
# a lazily-created, reusable worker pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS: int = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_JOBS
    if _POOL is None or _POOL_JOBS != jobs:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(max_workers=jobs)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests; end of process)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_JOBS = 0


# the pool is module-global so matrices reuse warm workers, which means
# nothing ever shut it down: a process that exited right after a matrix
# left worker processes to be reaped by the interpreter's own teardown.
# Register an explicit atexit hook so workers are joined deterministically.
atexit.register(shutdown_pool)
_ATEXIT_REGISTERED = True


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def run_matrix(
    requests: List[RunRequest],
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[RunResult]:
    """Evaluate a full experiment matrix, results in request order.

    Cells already satisfied by the memo or the experiment store are not
    re-simulated; duplicate cells within one matrix are simulated once.
    The accounting becomes this thread's :func:`last_manifest` and is
    added to the :func:`session_summary`.

    ``backend`` (default ``REPRO_BACKEND``, else serial with one job and
    pool with more) picks how pending cells are simulated: in-process,
    over the worker pool, or — ``distributed`` — on lease-based workers
    over the service HTTP API (:mod:`repro.harness.distributed`).
    SimStats are bit-identical under every backend.
    """
    backend = resolve_backend(backend)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if backend == "serial":
        jobs = 1
    resolved = backend or ("serial" if jobs <= 1 else "pool")
    manifest = MatrixManifest(jobs=jobs, backend=resolved)
    started = time.monotonic()

    results: List[Optional[RunResult]] = [None] * len(requests)
    records: List[Optional[CellRecord]] = [None] * len(requests)
    pending: List[int] = []
    first_for_key: Dict[tuple, int] = {}

    for i, request in enumerate(requests):
        key = request.memo_key()
        if key is not None:
            owner = first_for_key.setdefault(key, i)
            if owner != i:
                records[i] = CellRecord(
                    request.workload_name, request.config, "dedup"
                )
                continue
            cached, source = lookup_cached(key)
            if cached is not None:
                results[i] = _relabel(cached, request.config)
                records[i] = CellRecord(
                    request.workload_name, request.config, source
                )
                continue
        pending.append(i)

    if backend == "distributed":
        _run_distributed(requests, pending, results, records)
    elif jobs <= 1 or len(pending) <= 1:
        _run_serial(requests, pending, results, records)
    else:
        _run_pool(requests, pending, results, records, jobs)

    # duplicate cells inherit the owner's result under their own label
    for i, request in enumerate(requests):
        if results[i] is None and records[i] is not None and records[i].source == "dedup":
            owner = first_for_key[request.memo_key()]
            results[i] = _relabel(results[owner], request.config)

    manifest.cells = [r for r in records if r is not None]
    manifest.wall_time = time.monotonic() - started
    _record(manifest)
    return results  # type: ignore[return-value]


def run_tasks(fn, items, jobs: Optional[int] = None) -> List:
    """Fan a picklable ``fn(item)`` out over the shared worker pool.

    A generic sibling of :func:`run_matrix` for non-matrix work (e.g. the
    differential fuzzer's one-cell-per-seed sweep): no caching, no
    manifests — just ordered results.  Falls back to in-process serial
    execution when ``jobs <= 1``, when there is a single item, or when
    ``fn``/an item cannot be pickled.  The first task exception propagates
    to the caller.
    """
    items = list(items)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if jobs > 1 and len(items) > 1:
        try:
            pickle.dumps(fn)
            for item in items:
                pickle.dumps(item)
        except Exception:
            jobs = 1
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _get_pool(jobs)
    try:
        futures = [pool.submit(fn, item) for item in items]
    except BrokenProcessPool as exc:
        shutdown_pool()
        raise RuntimeError(f"worker pool died while submitting tasks: {exc}") from exc
    results = []
    error: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BrokenProcessPool as exc:
            shutdown_pool()
            raise RuntimeError(f"worker pool died mid-task: {exc}") from exc
        except Exception as exc:
            if error is None:
                error = exc
                for other in futures:
                    other.cancel()
    if error is not None:
        raise error
    return results


def _is_picklable(request: RunRequest) -> bool:
    try:
        pickle.dumps(request)
        return True
    except Exception:
        return False


def _run_distributed(requests, ids, results, records) -> None:
    """Distributed dispatch: ship leasable cells out, run the rest here.

    Cells without a memo key (ad-hoc Workload objects, explicit config
    overrides) cannot travel over HTTP; they fall back to in-process
    serial execution, which is bit-identical.  Write-through to the local
    store happens *here*, after the embedded service (which swaps
    the active store for its own temporary database) has shut down.
    """
    from repro.harness.distributed import dispatch_cells

    remote = [i for i in ids if requests[i].memo_key() is not None]
    local = [i for i in ids if requests[i].memo_key() is None]
    outcomes = dispatch_cells(requests, remote)
    for i in remote:
        outcome = outcomes[i]
        results[i] = outcome["result"]
        records[i] = CellRecord(
            requests[i].workload_name, requests[i].config, "run",
            outcome["wall_time"], worker=outcome.get("worker") or "",
        )
        store_result(requests[i].memo_key(), outcome["result"])
    _run_serial(requests, local, results, records)


def _run_serial(requests, ids, results, records) -> None:
    for i in ids:
        results[i], elapsed = _execute_cell(requests[i])
        records[i] = CellRecord(
            requests[i].workload_name, requests[i].config, "run", elapsed
        )


def _run_pool(requests, ids, results, records, jobs) -> None:
    """Fan picklable cells out over the pool; the rest run in-process."""
    remote, local = [], []
    for i in ids:
        (remote if _is_picklable(requests[i]) else local).append(i)
    outcomes = run_tasks(_pool_cell, [requests[i] for i in remote], jobs)
    for i, (result, elapsed, source) in zip(remote, outcomes):
        results[i] = result
        records[i] = CellRecord(
            requests[i].workload_name, requests[i].config, source, elapsed
        )
        key = requests[i].memo_key()
        if key is not None:
            store_result(key, result)
    _run_serial(requests, local, results, records)
