"""service_mix: a closed-loop mix of small jobs and reads against the service.

Set-up (three times, median reported): fill a fresh ``ExperimentStore``
with real results of 24 seeded tiny-window cells, plus ten rows per cell
under longer windows for the queries to filter; start ``python -m repro
serve`` on it and one ``python -m repro worker``; finish one local and
one distributed warm-up job.  The third set-up stays up for the run.

Load: one client process, two threads, each with at most one open
connection (2 = nproc), in a closed loop: each waits for its reply before
sending the next request, the read thread after a 20 ms think time (with
none it saturates the server and the job latencies follow the scheduler).

* the job thread submits a job, follows ``events?follow=1`` until the
  ``done`` event, then fetches the results.  A job simulates one
  workload under ``baseline`` and ``acb``; a local job adds one stored
  cell.  A third of the suite runs its jobs on the ``distributed``
  backend, the rest on the local queue.  Fresh cells never repeat within
  a run, so every one is really simulated.
* the read thread loops over a filtered ``runs`` query, ``runs/<run_id>``
  of a stored cell and the status of the latest job.

Every job result is checked against the pinned digests.  The traced run
hosts the service in this process through ``background_server`` so the
store, queue and request handler can be wrapped; the worker stays a
separate process.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.parse
from typing import Dict, List, Optional

import common
from common import FIG6_CONFIGS, SERVICE_MEASURE, SERVICE_WARMUPS

SETUP_REPEATS = 3
STORED_CELLS = 24
#: query-body rows per stored cell, under these (warm-up, measure) windows
FILLER_WINDOWS = tuple((1_000 * i, 12_000) for i in range(1, 11))
#: traced runs do a fixed number of jobs, a third of them distributed
TRACE_JOBS = 24
#: the server's event stream checks for new events this often; the job
#: client attaches to the stream at a seeded offset within one period, so
#: completions are seen at every phase of the server's poll and the
#: latency distribution is not bunched at multiples of it
STREAM_POLL_S = 0.05
#: the read client's think time between a reply and its next request
READ_THINK_S = 0.02
START_TIMEOUT_S = 60
JOB_TIMEOUT_S = 60


class Inputs:
    """Everything drawn from the seed, plus the real stats of stored cells."""

    def __init__(self, seed: int, smoke: bool):
        from repro.harness.runner import clear_memo, normalized_run_key, run_workload
        from repro.service.store import run_id_for
        from repro.workloads import suite_names

        # Jobs come in rounds: each round is a seeded order of every suite
        # workload, each at the next of its windows, and a job simulates
        # its workload under both configs.  Whether a workload's jobs run
        # local or distributed is fixed by its place in the suite, so every
        # seed runs the same mix of jobs and the seed cannot pick a cheap
        # or an expensive run.  The last round's windows give the stored
        # and warm-up cells.
        rng = random.Random(seed)
        names = sorted(suite_names())
        self.distributed = set(names[2::3])
        offset = {w: rng.randrange(len(SERVICE_WARMUPS)) for w in names}
        rounds = [[(w, SERVICE_WARMUPS[(offset[w] + r) % len(SERVICE_WARMUPS)])
                   for w in rng.sample(names, len(names))]
                  for r in range(len(SERVICE_WARMUPS))]
        n_stored = 2 if smoke else STORED_CELLS // len(FIG6_CONFIGS)
        last = [(w, c, wu, SERVICE_MEASURE) for w, wu in rounds[-1]
                for c in FIG6_CONFIGS]
        self.stored = last[:2 * n_stored]
        self.warmup_cells = last[2 * n_stored:2 * n_stored + 2]
        self.jobs = [job for jobs in rounds[:-1] for job in jobs]
        self.pins = common.load_pins("service_cells")
        self.rows = []
        self.bad: List[str] = []
        self.stored_run_ids = []
        for workload, config, warmup, measure in self.stored:
            result = run_workload(workload, config, warmup=warmup, measure=measure)
            cid = common.cell_id(workload, config, warmup, measure)
            if self.pins.get(cid) != common.stats_digest(result.stats.to_dict()):
                self.bad.append(cid)
            key = normalized_run_key(workload, config, 1, None, warmup, measure)
            self.rows.append((key, result))
            self.stored_run_ids.append(run_id_for(key))
            for fw, fm in FILLER_WINDOWS[:1] if smoke else FILLER_WINDOWS:
                filler = normalized_run_key(workload, config, 1, None, fw, fm)
                self.rows.append((filler, result))
        clear_memo()
        self.seed = seed

    def fill(self, path: str) -> None:
        from repro.service.store import ExperimentStore

        store = ExperimentStore(path, strict=True)
        for key, result in self.rows:
            store.put(key, result)


def _cell_body(cell) -> Dict:
    workload, config, warmup, measure = cell
    return {"workload": workload, "config": config,
            "warmup": warmup, "measure": measure}


class Client:
    """The closed-loop client: one job thread, one read thread."""

    def __init__(self, url: str, inputs: Inputs):
        from repro.service.client import ServiceClient

        parsed = urllib.parse.urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.api = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        self.inputs = inputs
        self.pending = iter(inputs.jobs)
        self.job_rng = random.Random(inputs.seed + 1)
        self.read_rng = random.Random(inputs.seed + 2)
        self.phase_rng = random.Random(inputs.seed + 3)
        self.latest_job: Optional[str] = None
        self.stop = threading.Event()
        self.lock = threading.Lock()
        self.jobs: List[Dict] = []
        self.reads: Dict[str, List[float]] = {"runs": [], "run_detail": [],
                                              "status": []}
        self.errors: List[str] = []
        self.attempted = 0

    def _fail(self, what: str) -> None:
        with self.lock:
            self.errors.append(what)

    # -- jobs --------------------------------------------------------------
    def job(self, cells, distributed: bool) -> Dict:
        from repro.service.client import ServiceError

        with self.lock:
            self.attempted += 1
        record = {"distributed": distributed, "cells": len(cells)}
        t0 = time.perf_counter()
        try:
            reply = self.api.submit(cells=[_cell_body(c) for c in cells],
                                    backend="distributed" if distributed else None)
        except ServiceError as exc:
            self._fail(f"submit: {exc}")
            return record
        record["submit_s"] = time.perf_counter() - t0
        job_id = reply["job_id"]
        with self.lock:
            self.latest_job = job_id
        time.sleep(self.phase_rng.uniform(0.0, STREAM_POLL_S))
        events = self._follow(job_id, t0)
        record.update(events)
        if events["requeues"]:
            self._fail(f"job {job_id}: {events['requeues']} requeue(s)")
        if events.get("status") != "done":
            self._fail(f"job {job_id} ended {events.get('status')}")
            return record
        try:
            results = self.api.results(job_id)
        except ServiceError as exc:
            self._fail(f"results: {exc}")
            return record
        by_index = {r["index"]: r for r in results}
        walls = []
        for index, cell in enumerate(cells):
            got = by_index.get(index)
            cid = common.cell_id(*cell)
            pinned = self.inputs.pins.get(cid)
            if got is None or common.stats_digest(got["stats"]) != pinned:
                self._fail(f"mismatch {cid}")
                continue
            if got.get("source") == "run":
                walls.append(got.get("wall_time", 0.0))
        record["cell_walls"] = walls
        record["ok"] = True
        return record

    def _follow(self, job_id: str, t0: float) -> Dict:
        """Read the NDJSON event stream until the job is terminal.

        The server can close the stream after the job turned terminal but
        before its last event was sent (see README "Program issues"); the
        client then reconnects from its cursor, as a stream client would,
        and counts the reconnect.
        """
        out: Dict = {"requeues": 0, "reconnects": 0}
        cursor = 0
        while "status" not in out:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=JOB_TIMEOUT_S)
            try:
                conn.request("GET", f"/api/v1/jobs/{job_id}/events?follow=1"
                                    f"&since={cursor}&timeout={JOB_TIMEOUT_S}")
                response = conn.getresponse()
                if response.status != 200:
                    out["status"] = f"http {response.status}"
                    break
                for raw in response:
                    event = json.loads(raw)
                    cursor = event["seq"]
                    kind = event.get("event")
                    now = time.perf_counter() - t0
                    if kind == "running" and "running_s" not in out:
                        out["running_s"] = now
                    elif kind == "requeue":
                        out["requeues"] += 1
                    elif kind in ("done", "failed"):
                        out["status"] = kind
                        out["latency_s"] = now
                        break
            except (OSError, http.client.HTTPException, ValueError) as exc:
                out["status"] = f"stream error {exc}"
            finally:
                conn.close()
            if "status" not in out:
                out["reconnects"] += 1
                if out["reconnects"] > 3:
                    out["status"] = "stream ended early"
        return out

    def job_loop(self, max_jobs: Optional[int]) -> None:
        try:
            while not self.stop.is_set() and (max_jobs is None or
                                              len(self.jobs) < max_jobs):
                workload, warmup = next(self.pending)
                distributed = workload in self.inputs.distributed
                cells = [(workload, config, warmup, SERVICE_MEASURE)
                         for config in FIG6_CONFIGS]
                if not distributed:
                    cells.append(self.job_rng.choice(self.inputs.stored))
                record = self.job(cells, distributed)
                with self.lock:
                    self.jobs.append(record)
        except StopIteration:
            self._fail("ran out of jobs")
        except Exception as exc:  # the run must end and report it
            self._fail(f"job thread: {type(exc).__name__}: {exc}")
        finally:
            self.stop.set()

    # -- reads -------------------------------------------------------------
    def read_loop(self) -> None:
        from repro.service.client import ServiceError

        stored = self.inputs.stored
        run_ids = self.inputs.stored_run_ids
        turn = 0
        while not self.stop.wait(READ_THINK_S):
            kind = ("runs", "run_detail", "status")[turn % 3]
            turn += 1
            with self.lock:
                job_id = self.latest_job
                self.attempted += 1
            t0 = time.perf_counter()
            try:
                if kind == "runs":
                    workload, config = self.read_rng.choice(stored)[:2]
                    self.api.runs(workload=workload, config=config, limit=20)
                elif kind == "run_detail":
                    self.api.run(self.read_rng.choice(run_ids))
                else:
                    self.api.job(job_id)
            except ServiceError as exc:
                self._fail(f"{kind}: {exc}")
                continue
            except Exception as exc:
                self._fail(f"read thread: {type(exc).__name__}: {exc}")
                self.stop.set()
                return
            self.reads[kind].append(time.perf_counter() - t0)

    def run(self, seconds: Optional[float], max_jobs: Optional[int]) -> float:
        """Drive both threads; returns the measured wall time."""
        threads = [threading.Thread(target=self.job_loop, args=(max_jobs,)),
                   threading.Thread(target=self.read_loop)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        if seconds is not None:
            self.stop.wait(seconds)
            self.stop.set()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
class Deployment:
    """``repro serve`` plus one ``repro worker``, as separate processes."""

    def __init__(self, tmp: str, index: int, db: str):
        self.port = common.free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.logs = []
        self.server = self._spawn(tmp, f"server{index}", [
            "--no-cache", "--jobs", "1", "serve", "--port", str(self.port),
            "--db", db])
        self.worker = None
        try:
            _wait_healthy(self.url)
            self.worker = self._spawn(tmp, f"worker{index}", [
                "--no-cache", "worker", "--url", self.url,
                "--id", f"perfbench-{index}"])
        except BaseException:
            self.close()
            raise

    def _spawn(self, tmp: str, name: str, args: List[str]) -> subprocess.Popen:
        log = open(os.path.join(tmp, f"{name}.log"), "w")
        self.logs.append(log)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args], stdout=log,
            stderr=subprocess.STDOUT, env=common.scrubbed_env(), cwd=common.ROOT,
        )

    def peak_rss_mb(self) -> float:
        return sum(common.peak_rss_mb_of(p.pid) for p in (self.server, self.worker)
                   if p is not None)

    def close(self) -> None:
        for proc in (self.worker, self.server):
            if proc is None or proc.poll() is not None:
                continue
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()


def _wait_healthy(url: str) -> None:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=2)
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.monotonic() > deadline:
                raise RuntimeError(f"service at {url} did not come up")
            time.sleep(0.02)


def _warm(client: Client) -> None:
    """One local and one distributed job: the worker is up and polling,
    and the client has a job whose status it can read."""
    for cell, distributed in zip(client.inputs.warmup_cells, (False, True)):
        record = client.job([cell], distributed)
        if not record.get("ok"):
            raise RuntimeError(f"warm-up job failed: {client.errors[-1:]}")
    client.errors.clear()
    client.attempted = 0


def _setup(inputs: Inputs, tmp: str, index: int):
    t0 = time.perf_counter()
    db = os.path.join(tmp, f"service{index}.sqlite")
    inputs.fill(db)
    deployment = Deployment(tmp, index, db)
    try:
        client = Client(deployment.url, inputs)
        _warm(client)
    except BaseException:
        deployment.close()
        raise
    return deployment, client, time.perf_counter() - t0


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, smoke: bool):
    inputs = Inputs(seed, smoke)
    tmp = common.make_tmpdir("service_")
    try:
        if trace:
            client, metrics = _traced(inputs, tmp, 4 if smoke else TRACE_JOBS)
            notes = {}
        else:
            setups = []
            for index in range(SETUP_REPEATS):
                deployment, client, elapsed = _setup(inputs, tmp, index)
                setups.append(elapsed)
                if index < SETUP_REPEATS - 1:
                    deployment.close()
            try:
                wall = client.run(seconds, None)
                rss = deployment.peak_rss_mb()
            finally:
                deployment.close()
            metrics, notes = _end_to_end(client, wall, setups, rss)
    finally:
        common.remove_tmpdir(tmp)
    failed = len(inputs.bad) + len(client.errors)
    attempted = len(inputs.stored) + client.attempted
    if client.errors or inputs.bad:
        notes["errors"] = "; ".join((inputs.bad + client.errors)[:5])
    return not failed, attempted, failed, metrics, notes


def _ok_jobs(client: Client, distributed: Optional[bool] = None) -> List[Dict]:
    return [j for j in client.jobs if j.get("ok")
            and (distributed is None or j["distributed"] == distributed)]


def _end_to_end(client: Client, wall: float, setups, rss: float):
    jobs = _ok_jobs(client)
    latencies = [j["latency_s"] * 1e3 for j in jobs]
    reads = [s * 1e3 for values in client.reads.values() for s in values]
    job_tail, job_pct, job_n = common.tail(latencies)
    read_tail, read_pct, read_n = common.tail(reads)
    metrics = {
        "setup_s": common.p50(setups),
        "cells_per_s": sum(j["cells"] for j in jobs) / wall,
        "request_p50_ms": common.p50(latencies),
        "request_tail_ms": job_tail,
        "peak_rss_mb": rss,
    }
    notes = {
        "jobs": f"{len(jobs)} ({len(_ok_jobs(client, True))} distributed)",
        "request_tail_ms": f"p{job_pct:.1f} of {job_n} job latencies",
        "job_p50_ms local/distributed": "%.2f / %.2f" % (
            common.p50([j["latency_s"] * 1e3 for j in _ok_jobs(client, False)]),
            common.p50([j["latency_s"] * 1e3 for j in _ok_jobs(client, True)])),
        "query_p50_ms": round(common.p50(reads), 3),
        "stream_reconnects": sum(j.get("reconnects", 0) for j in client.jobs),
        "query_tail_ms": f"{read_tail:.3f} (p{read_pct:.1f} of {read_n} reads)",
    }
    return metrics, notes


def _traced(inputs: Inputs, tmp: str, jobs: int):
    """Reference and traced phases against an in-process service.

    Spans cover the request handler (minus the follow stream, which
    waits on the job), the store and the harness entry points; the queue
    thread's job executions run under ``cProfile`` for the engine and
    harness layers.  The worker is a separate process and is not traced.
    """
    import cProfile
    import pstats

    from repro.harness.runner import clear_memo
    from repro.service import app, jobs as jobs_module
    from repro.service.store import ExperimentStore
    from tracing import (
        LAYERS,
        Tracer,
        harness_metrics,
        install_harness_spans,
        profile_metrics,
    )

    db = os.path.join(tmp, "traced.sqlite")
    inputs.fill(db)
    with app.background_server(db_path=db, jobs=1) as url:
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "--no-cache", "worker", "--url", url,
             "--id", "perfbench-traced"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=common.scrubbed_env(), cwd=common.ROOT,
        )
        try:
            reference = Client(url, inputs)
            _warm(reference)
            reference_wall = reference.run(None, jobs)
            clear_memo()

            profiles: List[cProfile.Profile] = []
            execute = jobs_module.JobQueue._execute

            def profiled_execute(queue, job):
                profile = cProfile.Profile()
                try:
                    return profile.runcall(execute, queue, job)
                finally:
                    profiles.append(profile)

            tracer = Tracer()
            tracer.patch(jobs_module.JobQueue, "_execute", profiled_execute)
            hits = install_harness_spans(tracer)
            tracer.wrap_attr(app.ServiceHandler, "_dispatch", "app.dispatch")
            tracer.wrap_attr(app.ServiceHandler, "job_events", "app.stream")
            for method in ("get", "put", "query_runs", "get_run"):
                tracer.wrap_attr(ExperimentStore, method, f"store.{method}")
            traced = Client(url, inputs)
            traced.pending = reference.pending
            traced.latest_job = reference.latest_job
            try:
                traced_wall = traced.run(None, jobs)
            finally:
                tracer.restore()
        finally:
            worker.terminate()
            worker.wait(timeout=10)

    merged = pstats.Stats(profiles[0]) if profiles else None
    for profile in profiles[1:]:
        merged.add(profile)
    profiled = [layer for layer in LAYERS
                if layer not in ("service.app", "service.store")]
    out, attributed = profile_metrics(merged.stats if merged else {}, profiled)
    out.update(harness_metrics(tracer, hits))
    totals = tracer.totals()
    zero = (0, 0.0, 0.0)
    out["service.app.self_s"] = totals.get("app.dispatch", zero)[2]
    out["service.store.self_s"] = sum(
        totals.get(f"store.{m}", zero)[2]
        for m in ("get", "put", "query_runs", "get_run"))
    attributed += out["service.app.self_s"] + out["service.store.self_s"]

    local, dist = _ok_jobs(traced, False), _ok_jobs(traced, True)
    client_busy = sum(j.get("latency_s", 0.0) for j in traced.jobs) + sum(
        s for values in traced.reads.values() for s in values)
    gets, puts = tracer.durations("store.get"), tracer.durations("store.put")
    out.update({
        "service.app.submit_ms_p50":
            common.p50([j["submit_s"] * 1e3 for j in local + dist]),
        "service.app.runs_ms_p50": common.p50(traced.reads["runs"]) * 1e3,
        "service.app.run_detail_ms_p50":
            common.p50(traced.reads["run_detail"]) * 1e3,
        "service.app.status_ms_p50": common.p50(traced.reads["status"]) * 1e3,
        "service.jobs.queue_wait_ms_p50":
            common.p50([j["running_s"] * 1e3 for j in local]),
        "service.jobs.cell_ms_p50":
            common.p50([w * 1e3 for j in local + dist for w in j["cell_walls"]]),
        "service.store.query_ms_p50":
            common.p50(tracer.durations("store.query_runs")) * 1e3,
        "service.store.get_us_p50": common.p50(gets) * 1e6,
        "service.store.get_us_tail": common.tail(gets)[0] * 1e6,
        "service.store.put_us_p50": common.p50(puts) * 1e6,
        "service.store.put_us_tail": common.tail(puts)[0] * 1e6,
        "service.store.db_mb": os.path.getsize(db) / 1e6,
        "harness.distributed.overhead_ms_per_cell": common.p50(
            [(j["latency_s"] - sum(j["cell_walls"])) * 1e3 / j["cells"]
             for j in dist]),
        "harness.distributed.requeues":
            sum(j.get("requeues", 0) for j in traced.jobs),
        "unattributed_s": max(0.0, client_busy - attributed),
        "trace_overhead_ratio": traced_wall / reference_wall,
    })
    traced.errors.extend(reference.errors)
    traced.attempted += reference.attempted
    return traced, out
