"""Distributed matrix dispatch: pull-based workers over the service API.

``run_matrix`` tops out at one machine's process pool.  This module is
the scale-out backend (``--backend distributed`` / ``REPRO_BACKEND``):
matrix cells become *leases* in the service's SQLite experiment store,
and workers — plain ``python -m repro worker`` processes, spawned locally
via subprocess or on other hosts via SSH — pull cells over HTTP, execute
them through the exact same :func:`~repro.harness.runner.run_workload`
path the serial driver uses, and post the stats back.

The protocol is three POSTs (see docs/distributed.md):

``/api/v1/workers/lease``
    claim the oldest pending cell; the response carries the RunRequest
    fields, a ``lease_id``, and a deadline ``ttl`` seconds out.  On an
    empty queue the server holds the reply up to ``wait`` seconds until
    a submit enqueues cells, so an idle worker neither sleeps nor spins.
``/api/v1/workers/heartbeat``
    renew the deadline while the cell simulates (a daemon thread here).
``/api/v1/workers/ack``
    post ``SimStats.to_dict()``; the server recomputes the run key
    *server-side* and writes the store row.  A 410 means the lease
    expired and was handed to someone else — the zombie's result is
    dropped, which is harmless because the simulator is deterministic.

Determinism is the whole contract: a distributed run of any matrix is
bit-identical to serial ``run_matrix`` because every cell is executed by
the same engine from the same normalized request, and ``run_id`` digests
are machine-independent, so results merged from many hosts join exactly.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.runner import run_workload

__all__ = [
    "DEFAULT_WORKER_TTL",
    "ENV_DIST_URL",
    "ENV_DIST_WORKERS",
    "dispatch_cells",
    "resolve_dist_workers",
    "run_worker",
    "spawn_local_workers",
    "worker_command",
]

#: Default lease TTL a worker asks for.  Generous relative to one cell's
#: wall time; the heartbeat thread renews at ttl/3 so only a *dead*
#: worker lets its cell expire.
DEFAULT_WORKER_TTL = 15.0

#: Point matrix dispatch at an already-running service instead of booting
#: an embedded one (``--backend distributed`` honors this).
ENV_DIST_URL = "REPRO_DIST_URL"

#: Subprocess workers an embedded distributed dispatch spawns (default 2).
ENV_DIST_WORKERS = "REPRO_DIST_WORKERS"


def resolve_dist_workers(workers: Optional[int] = None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(ENV_DIST_WORKERS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{ENV_DIST_WORKERS} must be an integer, got {env!r}"
            ) from None
    return 2


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


# ----------------------------------------------------------------------
# the worker loop (``python -m repro worker``)
# ----------------------------------------------------------------------
def _heartbeat_loop(client, lease_id: str, ttl: float,
                    stop: threading.Event) -> None:
    from repro.service.client import ServiceError

    interval = max(ttl / 3.0, 0.05)
    while not stop.wait(interval):
        try:
            client.heartbeat(lease_id, ttl=ttl)
        except ServiceError:
            return  # 410: the lease is gone; the ack will be told the same


def run_worker(
    url: Optional[str] = None,
    worker_id: Optional[str] = None,
    ttl: float = DEFAULT_WORKER_TTL,
    max_idle: Optional[float] = None,
    once: bool = False,
    progress=None,
) -> int:
    """Pull-execute-ack until the queue stays empty; returns cells done.

    *max_idle* bounds how long the worker waits on an empty queue after
    its last cell (``0`` exits on the first empty lease — drain-and-stop,
    used by the docs walkthrough and tests); ``None`` waits forever.
    Each lease asks the server to hold an empty reply for the rest of
    that idle time, at most ``LEASE_WAIT_CAP`` per request.  *once* exits
    after a single completed cell.  A stale ack (the lease expired
    mid-run and the cell was re-leased) is dropped and not counted.
    """
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobs import LEASE_WAIT_CAP

    client = ServiceClient(url)
    worker_id = worker_id or default_worker_id()
    completed = 0
    idle_until: Optional[float] = None
    while True:
        if max_idle is not None and idle_until is None:
            idle_until = time.monotonic() + max_idle
        wait = LEASE_WAIT_CAP if idle_until is None else min(
            LEASE_WAIT_CAP, max(0.0, idle_until - time.monotonic())
        )
        lease = client.lease(worker_id, ttl=ttl, wait=wait)
        cell = lease.get("cell")
        if cell is None:
            if idle_until is not None and time.monotonic() >= idle_until:
                return completed
            continue
        idle_until = None
        lease_id = lease["lease_id"]
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop, args=(client, lease_id, ttl, stop),
            name=f"repro-heartbeat-{worker_id}", daemon=True,
        )
        beat.start()
        start = time.monotonic()
        try:
            result = run_workload(
                workload=cell["workload"],
                config=cell.get("config", "baseline"),
                core_scale=cell.get("core_scale") or 1,
                predictor=cell.get("predictor"),
                warmup=cell.get("warmup"),
                measure=cell.get("measure"),
            )
        finally:
            stop.set()
        wall = time.monotonic() - start
        try:
            client.ack(
                lease_id, worker_id,
                stats=result.stats.to_dict(),
                category=result.category,
                paper_tag=result.paper_tag,
                wall_time=wall,
            )
        except ServiceError as exc:
            if exc.status != 410:
                raise
            continue  # zombie: the cell was re-leased while we ran it
        completed += 1
        if progress is not None:
            progress(f"{worker_id}: {cell['workload']} × "
                     f"{cell.get('config', 'baseline')} "
                     f"({wall:.2f}s, run_id {cell['run_id']})")
        if once:
            return completed


# ----------------------------------------------------------------------
# spawning workers (subprocess now, SSH as a command recipe)
# ----------------------------------------------------------------------
def worker_command(
    url: str,
    worker_id: Optional[str] = None,
    ttl: float = DEFAULT_WORKER_TTL,
    max_idle: Optional[float] = None,
    python: Optional[str] = None,
    ssh_host: Optional[str] = None,
) -> List[str]:
    """The argv that starts one worker — locally, or via ``ssh_host``.

    The SSH form assumes the remote host has this repository importable
    by its ``python3`` (same checkout, same traces); run IDs are
    machine-independent, so its acks merge exactly.
    """
    cmd = [
        python or (sys.executable if ssh_host is None else "python3"),
        "-m", "repro", "worker", "--url", url, "--ttl", str(ttl),
    ]
    if worker_id is not None:
        cmd += ["--id", worker_id]
    if max_idle is not None:
        cmd += ["--max-idle", str(max_idle)]
    if ssh_host is not None:
        cmd = ["ssh", ssh_host] + cmd
    return cmd


def spawn_local_workers(
    url: str,
    count: int,
    ttl: float = DEFAULT_WORKER_TTL,
    max_idle: Optional[float] = 10.0,
) -> List[subprocess.Popen]:
    """Start *count* subprocess workers pulling from *url*.

    Workers inherit the environment with ``src/`` prepended to
    ``PYTHONPATH`` and no local experiment store (``REPRO_CACHE=0``) —
    every cell a worker acks was actually simulated, so distributed
    accounting stays honest.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE"] = "0"
    procs = []
    for i in range(count):
        cmd = worker_command(
            url, worker_id=f"{default_worker_id()}-w{i}", ttl=ttl,
            max_idle=max_idle,
        )
        procs.append(subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL,
        ))
    return procs


# ----------------------------------------------------------------------
# matrix-side dispatch (the ``backend="distributed"`` arm of run_matrix)
# ----------------------------------------------------------------------
@contextmanager
def _embedded_service():
    """A throwaway service for one matrix: temp database, ephemeral port."""
    from repro.service.app import background_server

    with tempfile.TemporaryDirectory(prefix="repro-dist-") as tmp:
        with background_server(
            db_path=os.path.join(tmp, "dist.sqlite"),
            artifact_dir=os.path.join(tmp, "artifacts"),
            jobs=1,
        ) as url:
            yield url


def dispatch_cells(
    requests: Sequence,
    ids: List[int],
    url: Optional[str] = None,
    workers: Optional[int] = None,
    ttl: float = DEFAULT_WORKER_TTL,
    timeout: Optional[float] = None,
) -> Dict[int, Dict[str, Any]]:
    """Execute the pending cells *ids* of *requests* on workers.

    With no *url* (and no ``REPRO_DIST_URL``), boots an embedded service
    on an ephemeral port with a temporary database and spawns *workers*
    local subprocess workers for the duration of the matrix.  Returns
    ``{cell index: {"result": RunResult, "wall_time", "worker"}}``.
    """
    from repro.core.stats import SimStats
    from repro.harness.runner import RunResult
    from repro.service.client import ServiceClient
    from repro.service.jobs import request_fields

    if not ids:
        return {}
    url = url or os.environ.get(ENV_DIST_URL, "").strip() or None
    count = resolve_dist_workers(workers)
    if timeout is None:
        timeout = max(600.0, 60.0 * len(ids))

    outcomes: Dict[int, Dict[str, Any]] = {}
    with ExitStack() as stack:
        if url is None:
            url = stack.enter_context(_embedded_service())
        client = ServiceClient(url)
        job = client.submit(
            cells=[request_fields(requests[i]) for i in ids],
            backend="distributed",
        )
        procs = spawn_local_workers(url, count, ttl=ttl)
        try:
            client.wait(job["job_id"], timeout=timeout)
            payload = client.results(job["job_id"])
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        manifest = client.manifest(job["job_id"])
        workers_by_index = {
            cell["index"]: cell.get("worker")
            for cell in manifest.get("cells", [])
        }
        for entry in payload:
            i = ids[entry["index"]]
            outcomes[i] = {
                "result": RunResult(
                    workload=requests[i].workload_name,
                    category=entry.get("category", ""),
                    paper_tag=entry.get("paper_tag", ""),
                    config=requests[i].config,
                    stats=SimStats.from_dict(entry["stats"]),
                ),
                "wall_time": entry.get("wall_time", 0.0),
                "worker": workers_by_index.get(entry["index"], ""),
            }
    missing = [i for i in ids if i not in outcomes]
    if missing:
        raise RuntimeError(
            f"distributed dispatch returned no result for "
            f"{len(missing)}/{len(ids)} cells (first missing: "
            f"{requests[missing[0]].workload_name!r})"
        )
    return outcomes
