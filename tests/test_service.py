"""The HTTP service end to end: parity, durability, errors, client CLI.

The load-bearing guarantees:

* **parity** — SimStats fetched over HTTP are bit-identical to a direct
  ``run_matrix`` call for the same matrix;
* **durability** — with the memo cleared (as after a server restart),
  resubmitting a matrix is answered entirely by the experiment database
  (``source == "store"``, zero simulations);
* **validation** — malformed matrices are rejected up front with a 400
  and a complete ``problems`` list.

The server under test is real (``ThreadingHTTPServer`` on an ephemeral
port); only its lifetime is managed in-process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.harness.parallel import RunRequest, run_matrix
from repro.harness.runner import clear_memo
from repro.service import jobs as jobs_module
from repro.service.app import ROUTES, BadRequest, background_server, parse_matrix
from repro.service.client import ServiceClient, ServiceError

# Small but non-trivial windows; distinct from other tests' cells so this
# module controls its own memo hits.
WARMUP, MEASURE = 700, 900


@pytest.fixture
def service(tmp_path):
    db = tmp_path / "exp.sqlite"
    with background_server(db_path=str(db), jobs=1) as url:
        yield ServiceClient(url)


# ----------------------------------------------------------------------
# request validation (no server needed)
# ----------------------------------------------------------------------
def test_parse_matrix_product_and_cells():
    product = parse_matrix({
        "workloads": ["lammps", "gcc"], "configs": ["baseline", "acb"],
        "warmup": WARMUP, "measure": MEASURE,
    })
    assert len(product) == 4
    assert all(r.warmup == WARMUP and r.measure == MEASURE for r in product)
    explicit = parse_matrix({
        "cells": [{"workload": "lammps", "config": "acb", "measure": 500}],
        "measure": MEASURE,
    })
    assert explicit[0].measure == 500  # cell overrides the default


def test_parse_matrix_collects_every_problem():
    with pytest.raises(BadRequest) as exc:
        parse_matrix({
            "workloads": ["lammps", "no-such-workload"],
            "configs": ["baseline", "no-such-config"],
            "warmup": -3,
        })
    problems = exc.value.problems
    assert any("no-such-workload" in p for p in problems)
    assert any("no-such-config" in p for p in problems)
    assert any("warmup" in p for p in problems)


# ----------------------------------------------------------------------
# the HTTP surface
# ----------------------------------------------------------------------
def test_health(service):
    health = service.health()
    assert health["status"] == "ok"
    assert health["schema"] == "repro-store"
    assert (health["journal_mode"], health["synchronous"]) == ("wal", 2)


def test_submit_results_match_run_matrix_bit_for_bit(service):
    matrix = {"workloads": ["lammps"], "configs": ["baseline", "acb"],
              "warmup": WARMUP, "measure": MEASURE}
    job = service.submit(**matrix)
    assert job["status"] == "queued" or job["status"] == "running"
    assert len(job["cells"]) == 2
    service.wait(job["job_id"], timeout=300)

    direct = run_matrix(
        [RunRequest("lammps", c, warmup=WARMUP, measure=MEASURE)
         for c in ("baseline", "acb")],
        jobs=1,
    )
    fetched = service.results(job["job_id"])
    assert [r["config"] for r in fetched] == ["baseline", "acb"]
    for http_row, local in zip(fetched, direct):
        assert http_row["stats"] == local.stats.to_dict()

    # the manifest accounts for every cell
    manifest = service.manifest(job["job_id"])
    assert len(manifest["cells"]) == 2
    assert all("source" in cell for cell in manifest["cells"])


def test_resubmission_served_from_experiment_store(service):
    matrix = {"workloads": ["lammps"], "configs": ["baseline"],
              "warmup": WARMUP + 1, "measure": MEASURE}
    first = service.submit(**matrix)
    service.wait(first["job_id"], timeout=300)
    baseline = service.results(first["job_id"])[0]["stats"]

    # a server restart would clear the in-process memo; simulate exactly
    # that, so the only possible source below is the SQLite store
    clear_memo()
    again = service.submit(**matrix)
    done = service.wait(again["job_id"], timeout=300)
    assert done["simulated"] == 0
    assert done["cache_hits"] == 1
    rows = service.results(again["job_id"])
    assert rows[0]["source"] == "store"
    assert rows[0]["stats"] == baseline  # durable and bit-identical


def test_stored_run_names_the_job_that_simulated_it(service):
    matrix = {"workloads": ["lammps"], "configs": ["baseline"],
              "warmup": WARMUP + 2, "measure": MEASURE}
    clear_memo()  # the first job must simulate the cell itself
    first = service.submit(**matrix)
    assert service.wait(first["job_id"], timeout=300)["simulated"] == 1
    run_id = first["cells"][0]["run_id"]

    def owner():
        rows = service.runs(workload="lammps", config="baseline", limit=1000)
        return next(r["job_id"] for r in rows if r["run_id"] == run_id)

    assert owner() == first["job_id"]

    # served from the store, the row keeps naming the job that simulated it
    clear_memo()
    again = service.submit(**matrix)
    service.wait(again["job_id"], timeout=300)
    assert service.results(again["job_id"])[0]["source"] == "store"
    assert owner() == first["job_id"]


def test_event_feed_cursor(service):
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    service.wait(job["job_id"], timeout=300)
    feed = service.events(job["job_id"], since=0)
    kinds = [e["event"] for e in feed["events"]]
    assert kinds[0] == "queued"
    assert kinds[-1] == "done"
    assert "cell" in kinds
    seqs = [e["seq"] for e in feed["events"]]
    assert seqs == sorted(seqs)
    # the cursor excludes everything at or before `since`
    rest = service.events(job["job_id"], since=seqs[-2])
    assert [e["seq"] for e in rest["events"]] == [seqs[-1]]


def test_finished_jobs_beyond_the_cap_are_answered_from_the_store(
        service, monkeypatch):
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 2)
    job_ids = []
    for _ in range(4):
        job = service.submit(workloads=["lammps"], configs=["baseline"],
                             warmup=WARMUP, measure=MEASURE)
        service.wait(job["job_id"], timeout=300)
        job_ids.append(job["job_id"])
        # health counts the jobs the queue holds in memory
        assert sum(service.health()["jobs"].values()) <= 2

    evicted = job_ids[0]
    status = service.job(evicted)
    assert status["status"] == "done"
    assert "events" not in status  # the stored row, not the live job
    assert service.events(evicted) == {"events": [], "next": 0,
                                       "status": "done"}
    manifest = service.manifest(evicted)
    assert manifest["job_id"] == evicted
    assert [c["workload"] for c in manifest["cells"]] == ["lammps"]
    assert len(service.results(evicted)) == 1
    assert service.wait(evicted, timeout=30)["status"] == "done"


def test_run_query_and_detail(service):
    job = service.submit(workloads=["lammps"], configs=["acb"],
                         warmup=WARMUP, measure=MEASURE)
    service.wait(job["job_id"], timeout=300)
    rows = service.runs(workload="lammps", config="acb")
    assert rows and rows[0]["run_id"] == job["cells"][0]["run_id"]
    detail = service.run(rows[0]["run_id"])
    assert detail["stats"]["cycles"] > 0
    assert detail["run_key"][0] == "lammps"


def test_error_statuses(service):
    # 400: invalid matrix, every problem reported
    with pytest.raises(ServiceError) as exc:
        service.submit(workloads=["nope"], configs=["baseline"])
    assert exc.value.status == 400
    assert any("nope" in p for p in exc.value.payload["problems"])
    # 404: unknown job, unknown run, unknown route
    for call in (lambda: service.job("feedfacecafe"),
                 lambda: service.run("feedfacecafe"),
                 lambda: service.request("GET", "/api/v1/nonsense")):
        with pytest.raises(ServiceError) as exc:
            call()
        assert exc.value.status == 404
    # 405: wrong method on a real route
    with pytest.raises(ServiceError) as exc:
        service.request("POST", "/api/v1/health", body={})
    assert exc.value.status == 405


def test_results_conflict_while_running(service):
    # a fresh window nothing else has cached, so the job takes real time
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=16_000, measure=12_000)
    try:
        with pytest.raises(ServiceError) as exc:
            service.results(job["job_id"])
        assert exc.value.status == 409
    finally:
        service.wait(job["job_id"], timeout=300)


def test_trace_job_and_artifact_download(service, tmp_path):
    traced = service.trace("lammps", "acb", warmup=500, measure=400,
                           formats=["timeline", "log"])
    assert traced["stats"]["cycles"] > 0
    artifacts = {a["format"]: a for a in traced["artifacts"]}
    assert set(artifacts) == {"timeline", "log"}
    body = service.artifact(artifacts["timeline"]["artifact_id"])
    assert len(body) == artifacts["timeline"]["bytes"]
    # artifact listing via the job route agrees
    listed = service.artifacts(traced["job_id"])
    assert {a["artifact_id"] for a in listed} == {
        a["artifact_id"] for a in traced["artifacts"]
    }
    with pytest.raises(ServiceError) as exc:
        service.artifact(999_999)
    assert exc.value.status == 404


def test_follow_streams_ndjson(service):
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    url = f"{service.url}/api/v1/jobs/{job['job_id']}/events?follow=1&timeout=60"
    with urllib.request.urlopen(url, timeout=90) as resp:
        lines = [json.loads(line) for line in resp.read().splitlines()]
    assert lines[0]["event"] == "queued"
    assert lines[-1]["event"] in ("done", "failed")


def test_follow_stream_never_closes_before_the_terminal_event(
        service, monkeypatch):
    """A deterministic interleaving: the stream snapshots the feed, then
    the job finishes completely before the stream decides to close.  The
    stream must still send the ``done`` event."""
    from repro.harness.distributed import run_worker
    from repro.service.jobs import Job

    snapshot_taken, finished = threading.Event(), threading.Event()
    original = Job.events_since
    calls = []

    def gated(self, since=0):
        events = original(self, since)
        calls.append(since)
        if len(calls) == 1:  # the stream's first read of the feed
            snapshot_taken.set()
            assert finished.wait(30)
        return events

    monkeypatch.setattr(Job, "events_since", gated)
    job = service.submit(cells=[{"workload": "lammps", "config": "baseline",
                                 "warmup": WARMUP + 3, "measure": MEASURE}],
                         backend="distributed")
    lines = []

    def follow():
        url = (f"{service.url}/api/v1/jobs/{job['job_id']}/events"
               f"?follow=1&timeout=60")
        with urllib.request.urlopen(url, timeout=90) as resp:
            lines.extend(json.loads(line) for line in resp.read().splitlines())

    reader = threading.Thread(target=follow)
    reader.start()
    try:
        assert snapshot_taken.wait(30)
        assert run_worker(service.url, worker_id="t-race", max_idle=0) == 1
    finally:
        finished.set()
        reader.join(60)
    assert [e["event"] for e in lines] == ["queued", "running", "cell", "done"]


def test_client_wait_follows_the_stream(service):
    seen = []
    job = service.submit(workloads=["lammps"], configs=["baseline", "acb"],
                         warmup=WARMUP, measure=MEASURE)
    status = service.wait(job["job_id"], timeout=300, on_event=seen.append)
    assert status["status"] == "done"
    assert [e["event"] for e in seen] == \
        ["queued", "running", "cell", "cell", "done"]
    with pytest.raises(ServiceError) as exc:
        service.wait("feedfacecafe", timeout=5)
    assert exc.value.status == 404


def test_client_wait_times_out_on_a_job_nobody_runs(service):
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE,
                         backend="distributed")  # no worker will lease it
    with pytest.raises(ServiceError, match="still running after"):
        ServiceClient(service.url, timeout=0.4).wait(job["job_id"],
                                                     timeout=0.5)


def test_route_table_is_complete():
    """Every handler named in ROUTES exists on the handler class."""
    from repro.service.app import ServiceHandler

    for route in ROUTES:
        assert callable(getattr(ServiceHandler, route.handler))


# ----------------------------------------------------------------------
# the client CLI, end to end
# ----------------------------------------------------------------------
def test_cli_submit_and_runs(service):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
        REPRO_CACHE="0",
    )
    submit = subprocess.run(
        [sys.executable, "-m", "repro", "submit", "lammps",
         "--configs", "baseline", "--warmup", str(WARMUP),
         "--measure", str(MEASURE), "--url", service.url],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert submit.returncode == 0, submit.stderr
    assert "lammps" in submit.stdout and "baseline" in submit.stdout

    runs = subprocess.run(
        [sys.executable, "-m", "repro", "runs", "--url", service.url,
         "--workload", "lammps", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert runs.returncode == 0, runs.stderr
    rows = json.loads(runs.stdout)
    assert any(row["workload"] == "lammps" for row in rows)
