"""Background job queue: submitted matrices → ``run_matrix`` → the store.

A *job* is one submitted :class:`~repro.harness.parallel.RunRequest`
matrix.  The queue executes jobs one at a time on a worker thread — the
parallelism lives *inside* each job, which fans its cells out over the
shared process pool via :func:`~repro.harness.parallel.run_matrix` — and
reports per-cell progress events as chunks complete, so the HTTP layer
can stream them.

Every completed cell lands in the experiment store under its normalized
config-hash ``run_id`` (idempotent), whether it was freshly simulated or
served from the memo or the store — so the durable database converges on
the union of everything any client ever ran.  A simulated cell is written
once, by the harness's write-through, and its row names the job that
simulated it.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.stats import SimStats
from repro.harness.cache import get_active_store
from repro.harness.parallel import (
    RunRequest,
    last_manifest,
    resolve_backend,
    run_matrix,
)
from repro.harness.runner import RunResult
from repro.service.store import ExperimentStore, run_id_for, utcnow

#: Job lifecycle.  queued → running → done | failed.
JOB_STATES = ("queued", "running", "done", "failed")

#: Longest a lease request waits on an empty queue (seconds).  Kept well
#: below the 30 s default HTTP timeout of
#: :class:`~repro.service.client.ServiceClient`, so an idle worker's
#: request always returns before its client gives up on it.
LEASE_WAIT_CAP = 20.0

#: Extra time a waiting lease request allows past a lease deadline before
#: it requeues: ``requeue_expired`` frees only leases strictly past due.
_REQUEUE_SLACK = 0.01

#: How many terminal jobs the queue keeps in memory (the newest); older
#: ones are answered from the store (``GET /jobs/<id>`` and its sub-routes).
FINISHED_JOBS_KEPT = 100


@dataclass
class JobCell:
    """One matrix cell and how the job satisfied it."""

    index: int
    request: RunRequest
    run_id: str
    source: Optional[str] = None   # run | memo | store | dedup
    wall_time: float = 0.0
    #: distributed dispatch only: the worker that acked this cell.
    worker: Optional[str] = None
    result: Optional[RunResult] = None

    def summary(self) -> Dict[str, Any]:
        out = {
            "index": self.index,
            "run_id": self.run_id,
            "workload": self.request.workload_name,
            "config": self.request.config,
        }
        if self.source is not None:
            out["source"] = self.source
            out["wall_time"] = round(self.wall_time, 4)
        if self.worker is not None:
            out["worker"] = self.worker
        return out


@dataclass
class Job:
    """One submitted matrix working its way through the queue."""

    job_id: str
    cells: List[JobCell]
    request: Dict[str, Any]
    #: "local": executed by this server's queue thread via ``run_matrix``;
    #: "distributed": cells are leased to pull-based workers over HTTP.
    backend: str = "local"
    status: str = "queued"
    error: Optional[str] = None
    submitted: str = field(default_factory=utcnow)
    started: Optional[str] = None
    finished: Optional[str] = None
    wall_time: float = 0.0
    events: List[Dict[str, Any]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        #: notified on every appended event, the terminal one included
        self._changed = threading.Condition(self._lock)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def done_cells(self) -> int:
        return sum(1 for c in self.cells if c.source is not None)

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
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def add_event(self, event: str, **payload: Any) -> None:
        with self._lock:
            self._append(event, payload)

    def _append(self, event: str, payload: Dict[str, Any]) -> None:
        """Append one event and wake its waiters; the caller holds the lock."""
        self.events.append(
            {"seq": len(self.events) + 1, "event": event, **payload}
        )
        self._changed.notify_all()

    def events_since(self, since: int = 0) -> List[Dict[str, Any]]:
        with self._lock:
            return [e for e in self.events if e["seq"] > since]

    def wait_events(self, since: int, timeout: float) -> None:
        """Block until an event after *since* exists or the job is
        terminal, for at most *timeout* seconds."""
        with self._changed:
            self._changed.wait_for(
                lambda: len(self.events) > since or self.terminal, timeout
            )

    def wait_terminal(self, timeout: float) -> bool:
        """Block until the job is done or failed; False on timeout."""
        with self._changed:
            return self._changed.wait_for(lambda: self.terminal, timeout)

    def status_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": "matrix",
            "backend": self.backend,
            "status": self.status,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "total": self.total,
            "done": self.done_cells,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "wall_time": round(self.wall_time, 4),
            "error": self.error,
            "events": len(self.events),
        }

    def manifest_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "backend": self.backend,
            "wall_time": round(self.wall_time, 4),
            "cells": [c.summary() for c in self.cells],
        }


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


def request_fields(request: RunRequest) -> Dict[str, Any]:
    """The wire form of a cell: exactly the fields a worker re-runs from."""
    return {
        "workload": request.workload_name,
        "config": request.config,
        "core_scale": request.core_scale,
        "predictor": request.predictor,
        "warmup": request.warmup,
        "measure": request.measure,
    }


def request_from_fields(fields: Dict[str, Any]) -> RunRequest:
    return RunRequest(
        workload=fields["workload"],
        config=fields.get("config", "baseline"),
        core_scale=fields.get("core_scale") or 1,
        predictor=fields.get("predictor"),
        warmup=fields.get("warmup"),
        measure=fields.get("measure"),
    )


class JobQueue:
    """Worker thread executing submitted matrices through ``run_matrix``.

    *jobs* is the process-pool width each matrix fans out over (``None``:
    ``REPRO_JOBS``, else all cores).  Cells execute in chunks of the pool
    width so progress events fire as the matrix advances rather than only
    at the end.
    """

    def __init__(self, store: ExperimentStore, jobs: Optional[int] = None):
        self.store = store
        self.jobs = jobs
        self._jobs: Dict[str, Job] = {}
        #: ids of terminal jobs still in ``_jobs``, oldest first
        self._finished: Deque[str] = deque()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.Lock()
        #: distributed jobs: job_id -> monotonic submit time (wall clock)
        self._started_at: Dict[str, float] = {}
        #: wakes lease requests waiting on an empty queue; the generation
        #: counts enqueues, so a wake-up between a lease's empty claim and
        #: its wait is not lost
        self._leasable = threading.Condition()
        self._enqueued = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._work, name="repro-job-queue", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, requests: List[RunRequest],
               backend: Optional[str] = None) -> Job:
        """Enqueue a matrix; returns the (still queued) job immediately.

        *backend* ``"distributed"`` skips the local queue thread entirely:
        the cells become pending rows in the store's lease table, and the
        job completes as pull-based workers lease, execute, and ack them
        (see docs/distributed.md).  Anything else executes locally.
        """
        cells = []
        for i, request in enumerate(requests):
            key = request.memo_key()
            if key is None:
                raise ValueError(
                    f"cell {i} ({request.workload_name!r} × "
                    f"{request.config!r}) is not addressable by a config "
                    f"hash; the service accepts suite/frontier/trace "
                    f"workloads by name with default core/ACB config"
                )
            cells.append(JobCell(index=i, request=request, run_id=run_id_for(key)))
        backend = backend or "local"
        job = Job(
            job_id=new_job_id(),
            cells=cells,
            request={"cells": [c.summary() for c in cells], "backend": backend},
            backend=backend,
        )
        job.add_event("queued", total=job.total)
        if backend == "distributed":
            return self._submit_distributed(job)
        self.store.record_job(
            job.job_id, "queued", job.request, submitted=job.submitted
        )
        with self._lock:
            self._jobs[job.job_id] = job
        self._queue.put(job)
        return job

    def _submit_distributed(self, job: Job) -> Job:
        """Distributed path: cells become leasable rows, job runs at once.

        The job row, its start and its lease rows commit in one
        transaction, so the store never holds a running job without cells.
        """
        job.status = "running"
        job.started = utcnow()
        self._started_at[job.job_id] = time.monotonic()
        job.add_event("running", total=job.total, backend="distributed")
        # registered before its cells commit: a worker may ack one at once
        with self._lock:
            self._jobs[job.job_id] = job
        try:
            with self.store.transaction():
                self.store.record_job(
                    job.job_id, "running", job.request, submitted=job.submitted
                )
                self.store.update_job(job.job_id, started=job.started)
                self.store.enqueue_cells(
                    job.job_id,
                    [
                        {
                            "index": cell.index,
                            "run_id": cell.run_id,
                            "request": request_fields(cell.request),
                        }
                        for cell in job.cells
                    ],
                )
        except BaseException:
            with self._lock:
                del self._jobs[job.job_id]
            self._started_at.pop(job.job_id, None)
            raise
        with self._leasable:
            self._enqueued += 1
            self._leasable.notify_all()
        return job

    def lease(self, worker: str, ttl: float,
              wait: float = 0.0) -> Optional[Dict[str, Any]]:
        """Claim the oldest pending distributed cell for *worker*.

        Expired leases are requeued first.  On an empty queue the request
        waits up to *wait* seconds (capped at :data:`LEASE_WAIT_CAP`) for
        a submit to enqueue cells, waking at the earliest live lease
        deadline to requeue a dead worker's cell.  Returns ``None`` when
        nothing turned up, or at once when the queue is closed.
        """
        end = time.monotonic() + min(max(wait, 0.0), LEASE_WAIT_CAP)
        while True:
            with self._leasable:
                seen = self._enqueued
            with self.store.transaction():
                requeued = self.store.requeue_expired()
                lease = self.store.lease_next(worker, ttl=ttl)
            for row in requeued:
                self.note_requeue(
                    row["job_id"], row["cell_index"], row["worker"]
                )
            remaining = end - time.monotonic()
            if lease is not None or remaining <= 0 or self._closed:
                return lease
            deadline = self.store.next_deadline()
            if deadline is not None:
                remaining = min(
                    remaining, deadline - time.time() + _REQUEUE_SLACK
                )
            with self._leasable:
                if self._enqueued == seen and not self._closed:
                    self._leasable.wait(max(remaining, 0.0))
                if self._closed:
                    return None

    # ------------------------------------------------------------------
    # distributed-cell completion (called by the worker ack route)
    # ------------------------------------------------------------------
    def note_requeue(self, job_id: str, cell_index: int,
                     worker: Optional[str]) -> None:
        """Surface an expired-lease requeue in the job's event feed."""
        job = self.get(job_id)
        if job is not None:
            job.add_event("requeue", index=cell_index, worker=worker)

    def complete_cell(
        self,
        lease_id: str,
        stats: SimStats,
        wall_time: float,
        worker: Optional[str] = None,
        category: str = "",
        paper_tag: str = "",
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, int]]]:
        """Ack one distributed cell; finalize the job when drained.

        The lease moves to ``done`` and the result lands in the store in
        one transaction: a failed ack leaves the lease ``leased`` (it
        requeues at its deadline) and no run row.  The run key is
        recomputed *server-side* from the leased request fields, so
        workers never get to choose where a result lands.  Returns the
        acked lease row and the job's lease counts, or ``None`` when the
        lease is not live (acked already, or expired and reassigned).
        """
        with self.store.transaction():
            lease = self.store.ack_lease(lease_id, wall_time=wall_time)
            if lease is None:
                return None
            fields = lease["request"]
            result = RunResult(
                workload=fields["workload"], category=category,
                paper_tag=paper_tag, config=fields["config"], stats=stats,
            )
            key = request_from_fields(fields).memo_key()
            if key is not None:
                self.store.put(key, result, job_id=lease["job_id"])
        job_id = lease["job_id"]
        worker = worker or lease["worker"]
        job = self.get(job_id)
        if job is not None and 0 <= lease["cell_index"] < len(job.cells):
            cell = job.cells[lease["cell_index"]]
            cell.result = result
            cell.source = "run"
            cell.wall_time = wall_time
            cell.worker = worker
            job.add_event(
                "cell", done=job.done_cells, total=job.total, **cell.summary()
            )
        counts = self.store.lease_counts(job_id)
        if counts["pending"] == 0 and counts["leased"] == 0:
            self._finalize_distributed(job_id, job)
        return lease, counts

    def _finalize_distributed(self, job_id: str, job: Optional[Job]) -> None:
        if job is not None:
            started = self._started_at.get(job_id)
            # two acks can race on the last cell: _finish lets one win
            if self._finish(job, "done", wall_time=(
                time.monotonic() - started if started is not None else 0.0
            )):
                self._started_at.pop(job_id, None)
            return
        # post-restart: the in-memory job is gone, finish from store rows
        stored = self.store.get_job(job_id)
        if stored is None or stored.get("status") == "done":
            return
        by_index = {
            row["cell_index"]: row for row in self.store.list_leases(job_id)
        }
        cells = []
        for cell in stored.get("request", {}).get("cells", []):
            row = by_index.get(cell.get("index"))
            cells.append({
                **cell,
                "source": "run",
                "wall_time": round(row["wall_time"], 4) if row else 0.0,
                "worker": row["worker"] if row else None,
            })
        self.store.update_job(
            job_id, status="done", finished=utcnow(),
            manifest={"job_id": job_id, "backend": "distributed",
                      "wall_time": 0.0, "cells": cells},
        )

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float = 300.0) -> Optional[Job]:
        """Block until *job_id* reaches a terminal state (tests, CLI)."""
        job = self.get(job_id)
        if job is not None:
            job.wait_terminal(timeout)
        return job

    def close(self) -> None:
        """Release waiting lease requests, finish the in-flight job, then
        stop the worker thread."""
        with self._leasable:
            self._closed = True
            self._leasable.notify_all()
        self._queue.put(None)
        self._worker.join(timeout=60)

    def _finish(self, job: Job, status: str, **fields: Any) -> bool:
        """Make *job* terminal: set *fields*, append the terminal event and
        flip the status in one critical section, so a reader that sees the
        job terminal always finds the terminal event in its feed.

        Returns False (and changes nothing) when the job already was
        terminal.
        """
        # make room first: a reader that sees this job terminal must not
        # find more than FINISHED_JOBS_KEPT finished jobs in memory
        with self._lock:
            while self._finished and len(self._finished) >= FINISHED_JOBS_KEPT:
                del self._jobs[self._finished.popleft()]
        with job._lock:
            if job.terminal:
                return False
            for name, value in fields.items():
                setattr(job, name, value)
            job.finished = utcnow()
            if status == "done":
                job._append("done", {
                    "total": job.total,
                    "simulated": job.simulated,
                    "cache_hits": job.cache_hits,
                    "wall_time": round(job.wall_time, 4),
                })
                record = {"manifest": job.manifest_dict()}
            else:
                job._append(status, {"error": job.error})
                record = {"error": job.error}
            job.status = status
        self.store.update_job(
            job.job_id, status=status, finished=job.finished, **record
        )
        # evicted only once the store can answer for it
        with self._lock:
            self._finished.append(job.job_id)
            while len(self._finished) > FINISHED_JOBS_KEPT:
                del self._jobs[self._finished.popleft()]
        return True

    # ------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._execute(job)
            except Exception as exc:  # a failed job must not kill the queue
                self._finish(
                    job, "failed", error=f"{type(exc).__name__}: {exc}"
                )

    def _execute(self, job: Job) -> None:
        job.status = "running"
        job.started = utcnow()
        job.add_event("running", total=job.total)
        self.store.update_job(job.job_id, status="running", started=job.started)
        started = time.monotonic()
        # progress granularity: one pool-width of cells per run_matrix call
        chunk = max(1, self.jobs or 1)
        # a local job must never recurse into distributed dispatch, even
        # when the server itself runs under REPRO_BACKEND=distributed
        backend = resolve_backend(None)
        backend = "pool" if backend == "distributed" else (backend or None)
        # with this store installed, run_matrix's write-through already
        # persisted every simulated cell, owned by this job
        writes_through = get_active_store() is self.store
        for lo in range(0, job.total, chunk):
            cells = job.cells[lo:lo + chunk]
            with self.store.owned_by(job.job_id):
                results = run_matrix(
                    [c.request for c in cells], jobs=self.jobs, backend=backend,
                )
            # this thread's own manifest: run_matrix records it per thread
            records = last_manifest().cells
            for cell, result, record in zip(cells, results, records):
                cell.result = result
                cell.source = record.source
                cell.wall_time = record.wall_time
                if not writes_through or record.source != "run":
                    self.store.put(
                        cell.request.memo_key(), result, job_id=job.job_id
                    )
                job.add_event(
                    "cell",
                    done=job.done_cells,
                    total=job.total,
                    **cell.summary(),
                )
        self._finish(job, "done", wall_time=time.monotonic() - started)
