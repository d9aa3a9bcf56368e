"""urllib-only client for the service API (``repro submit`` / ``repro runs``).

No third-party HTTP stack: the client the CLI, the tests, and the CI
``service-smoke`` job all use is ~anything a user could paste from
``docs/service.md`` with ``urllib.request``.  Base URL resolution:
explicit argument, else the ``REPRO_SERVICE_URL`` environment variable,
else ``http://127.0.0.1:8321``.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Dict, List, Optional

#: Environment override for the service base URL.
ENV_SERVICE_URL = "REPRO_SERVICE_URL"

DEFAULT_URL = "http://127.0.0.1:8321"


def service_url(url: Optional[str] = None) -> str:
    return (url or os.environ.get(ENV_SERVICE_URL, "").strip()
            or DEFAULT_URL).rstrip("/")


def _decode(raw: bytes) -> Any:
    """An error body: JSON when it parses, else text."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw.decode(errors="replace")


class ServiceError(RuntimeError):
    """Non-2xx response; carries the HTTP status and decoded error body."""

    def __init__(self, status: int, payload: Any):
        detail = payload.get("error") if isinstance(payload, dict) else payload
        problems = payload.get("problems") if isinstance(payload, dict) else None
        message = f"HTTP {status}: {detail}"
        if problems:
            message += " (" + "; ".join(problems) + ")"
        super().__init__(message)
        self.status = status
        self.payload = payload


class ServiceClient:
    """Thin JSON client over one service base URL."""

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0):
        self.url = service_url(url)
        self.timeout = timeout

    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Any:
        url = self.url + path
        if query:
            pruned = {k: v for k, v in query.items() if v is not None}
            if pruned:
                url += "?" + urllib.parse.urlencode(pruned)
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, _decode(exc.read())) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.url}: {exc.reason}"
            ) from None
        return json.loads(raw) if raw else None

    # ------------------------------------------------------------------
    def health(self) -> Dict:
        return self.request("GET", "/api/v1/health")

    def submit(
        self,
        cells: Optional[List[Dict]] = None,
        workloads: Optional[List[str]] = None,
        configs: Optional[List[str]] = None,
        backend: Optional[str] = None,
        **defaults: Any,
    ) -> Dict:
        """Submit a matrix; returns the 202 body (``job_id``, cells).

        *defaults* become top-level body fields each cell may override —
        ``warmup``/``measure``/``core_scale``/``predictor``.
        *backend* ``"distributed"`` queues the cells for pull-based
        workers instead of the server's local job queue
        (docs/distributed.md).
        """
        body: Dict[str, Any] = dict(defaults)
        if backend is not None:
            body["backend"] = backend
        if cells is not None:
            body["cells"] = cells
        if workloads is not None:
            body["workloads"] = workloads
        if configs is not None:
            body["configs"] = configs
        return self.request("POST", "/api/v1/jobs", body=body)

    def job(self, job_id: str) -> Dict:
        return self.request("GET", f"/api/v1/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0) -> Dict:
        return self.request(
            "GET", f"/api/v1/jobs/{job_id}/events", query={"since": since}
        )

    def results(self, job_id: str) -> List[Dict]:
        return self.request(
            "GET", f"/api/v1/jobs/{job_id}/results"
        )["results"]

    def manifest(self, job_id: str) -> Dict:
        return self.request("GET", f"/api/v1/jobs/{job_id}/manifest")

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        on_event: Optional[Callable[[Dict], None]] = None,
    ) -> Dict:
        """Follow the job's event stream until it is terminal; returns its
        final status dict.

        *on_event* receives each progress event as the server sends it.
        Each stream is held at most half the HTTP timeout, then resumed
        from the last event seen.  Raises :class:`ServiceError` on job
        failure or timeout.
        """
        deadline = time.monotonic() + timeout
        cursor = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                status = self.job(job_id)["status"]
                raise ServiceError(
                    0, f"job {job_id} still {status} after {timeout:.0f}s"
                )
            for event in self._follow(job_id, cursor,
                                      min(remaining, self.timeout / 2)):
                cursor = event["seq"]
                if on_event is not None:
                    on_event(event)
            # the stream ended: at the terminal event, or at its hold
            status = self.job(job_id)
            if status["status"] == "failed":
                raise ServiceError(500, {"error": status.get("error")
                                         or "job failed"})
            if status["status"] == "done":
                return status

    def _follow(self, job_id: str, since: int, hold: float):
        """Events after *since* from one ``?follow=1`` stream, held open
        at most *hold* seconds.

        A job from before a server restart has no stream: it yields no
        events, and raises when its stored status is not terminal, since
        nothing on this server will move it.
        """
        query = urllib.parse.urlencode(
            {"follow": 1, "since": since, "timeout": round(hold, 3)}
        )
        url = f"{self.url}/api/v1/jobs/{job_id}/events?{query}"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                if resp.headers.get_content_type() == "application/x-ndjson":
                    for line in resp:
                        yield json.loads(line)
                    return
                status = json.loads(resp.read())["status"]
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, _decode(exc.read())) from None
        except OSError as exc:
            raise ServiceError(
                0, f"cannot reach {self.url}: "
                f"{getattr(exc, 'reason', None) or exc}"
            ) from None
        if status not in ("done", "failed"):
            raise ServiceError(0, (
                f"job {job_id} is {status} in the store but not live on "
                f"this server, so nothing will finish it"
            ))

    def runs(
        self,
        workload: Optional[str] = None,
        config: Optional[str] = None,
        limit: int = 100,
    ) -> List[Dict]:
        return self.request(
            "GET", "/api/v1/runs",
            query={"workload": workload, "config": config, "limit": limit},
        )["runs"]

    def run(self, run_id: str) -> Dict:
        return self.request("GET", f"/api/v1/runs/{run_id}")

    def trace(self, workload: str, config: str = "acb", **options: Any) -> Dict:
        return self.request(
            "POST", "/api/v1/trace",
            body={"workload": workload, "config": config, **options},
        )

    # ------------------------------------------------------------------
    # distributed-worker surface (docs/distributed.md)
    # ------------------------------------------------------------------
    def lease(self, worker: str, ttl: Optional[float] = None,
              wait: Optional[float] = None) -> Dict:
        """Claim the oldest pending distributed cell, or ``cell: None``.

        *wait* lets the server hold an empty reply that many seconds
        (capped server-side) until cells are enqueued.
        """
        body: Dict[str, Any] = {"worker": worker}
        if ttl is not None:
            body["ttl"] = ttl
        if wait is not None:
            body["wait"] = wait
        return self.request("POST", "/api/v1/workers/lease", body=body)

    def heartbeat(self, lease_id: str, ttl: Optional[float] = None) -> Dict:
        """Renew a live lease; raises ``ServiceError`` (410) when gone."""
        body: Dict[str, Any] = {"lease_id": lease_id}
        if ttl is not None:
            body["ttl"] = ttl
        return self.request("POST", "/api/v1/workers/heartbeat", body=body)

    def ack(
        self,
        lease_id: str,
        worker: str,
        stats: Dict,
        category: str = "",
        paper_tag: str = "",
        wall_time: float = 0.0,
    ) -> Dict:
        """Post one executed cell's ``SimStats.to_dict()`` back."""
        return self.request("POST", "/api/v1/workers/ack", body={
            "lease_id": lease_id,
            "worker": worker,
            "stats": stats,
            "category": category,
            "paper_tag": paper_tag,
            "wall_time": wall_time,
        })

    def workers(self) -> Dict:
        return self.request("GET", "/api/v1/workers")

    def artifacts(self, job_id: str) -> List[Dict]:
        return self.request(
            "GET", f"/api/v1/jobs/{job_id}/artifacts"
        )["artifacts"]

    def artifact(self, artifact_id: int) -> bytes:
        url = f"{self.url}/api/v1/artifacts/{artifact_id}"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, exc.read().decode(errors="replace")
                               ) from None
