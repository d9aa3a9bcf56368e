"""Simulation-as-a-service: HTTP API, job queue, experiment database.

The service layer turns the experiment harness into a long-lived process
that other tools talk to over HTTP (see ``docs/service.md``):

``store``
    :class:`ExperimentStore` — a schema-versioned SQLite database of every
    run ever executed, keyed by the same normalized config-hash digests as
    the in-process run memo it backs.
``jobs``
    :class:`JobQueue` — a background worker that executes submitted
    :class:`~repro.harness.parallel.RunRequest` matrices through
    ``run_matrix`` (process-pool fan-out, dedup, manifests) and records
    per-cell progress events.
``app``
    The stdlib HTTP server (``python -m repro serve``) exposing the route
    table in :data:`repro.service.app.ROUTES`.
``client``
    :class:`ServiceClient` — a urllib-only client used by ``repro submit``
    / ``repro runs``, the tests, and the CI ``service-smoke`` job.
"""

from repro.service.jobs import Job, JobCell, JobQueue
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    ExperimentStore,
    StoreSchemaError,
)

__all__ = [
    "ExperimentStore",
    "Job",
    "JobCell",
    "JobQueue",
    "STORE_SCHEMA_VERSION",
    "StoreSchemaError",
]
