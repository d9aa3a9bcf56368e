"""The experiment database: a durable, queryable store of every run.

The only result layer behind the in-process run memo: a single SQLite
file that keeps every :class:`RunResult` ever executed, plus the jobs that
produced them and any trace artifacts they exported, queryable by config
hash (``repro runs``, ``GET /api/v1/runs``).  The CLI attaches one by
default (:meth:`ExperimentStore.from_env`); the service opens its own.

Key discipline — **key parity**: a run's ``run_id`` is
:func:`repro.harness.cache.key_digest` over the *same* normalized run key
the memo uses, so bumping ``CACHE_SCHEMA_VERSION`` (the invalidation story
for simulator-visible changes) re-keys new runs while old rows remain as
queryable history.

Schema evolution: the ``meta`` table records ``schema_version``.  Opening
a database written by a *newer* schema raises :class:`StoreSchemaError`;
an *older* database is migrated in place when a migration is registered
in :data:`_MIGRATIONS`, and refused otherwise.  See ``docs/service.md``
for the DDL and the migration policy.

Robustness: constructed with ``strict=False`` (the harness attach path),
a corrupt or locked database degrades to warnings — reads miss, writes
drop — so a broken store can never fail a run that simulated fine.  The
service itself opens ``strict=True`` and refuses loudly.

Durability: the database runs in SQLite's write-ahead-log mode with
``synchronous=FULL`` on every connection, so each commit costs one fsync
of the log and a committed row survives a crash or power loss.  A
service operation that writes more than once does so inside one
:meth:`ExperimentStore.transaction`, so a failure leaves none of its
writes behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional
from warnings import warn

from repro.harness.cache import RunKey, key_digest

#: Bump on any change to the table layout below; register a migration for
#: upgrades that can be applied in place.
STORE_SCHEMA_VERSION = 2

SCHEMA_NAME = "repro-store"

DEFAULT_STORE_DIR = ".repro_store"
DEFAULT_STORE_NAME = "experiments.sqlite"

#: Environment override for the database path (CLI ``--store``/``--db``
#: take precedence).
ENV_STORE = "REPRO_STORE"

#: ``"0"``/``"off"``/``"no"``/``"false"`` detach the durable layer
#: (:meth:`ExperimentStore.from_env`); the CLI's ``--no-cache`` does the same.
ENV_CACHE = "REPRO_CACHE"

#: Lease states a distributed matrix cell moves through.
LEASE_STATES = ("pending", "leased", "done")

#: Default seconds a worker's lease (and each heartbeat renewal) lasts.
DEFAULT_LEASE_TTL = 30.0

#: The version-2 addition: lease bookkeeping for distributed matrix cells.
#: Kept as its own script so the 1 -> 2 migration and the fresh-database
#: DDL cannot drift apart.
_DDL_LEASES = """
CREATE TABLE IF NOT EXISTS leases (
    job_id     TEXT NOT NULL,
    cell_index INTEGER NOT NULL,
    run_id     TEXT NOT NULL,
    request    TEXT NOT NULL,      -- RunRequest fields as JSON
    state      TEXT NOT NULL DEFAULT 'pending',  -- pending | leased | done
    worker     TEXT,
    lease_id   TEXT,
    deadline   REAL,               -- time.time() when the lease expires
    attempts   INTEGER NOT NULL DEFAULT 0,
    wall_time  REAL NOT NULL DEFAULT 0.0,
    created    TEXT NOT NULL,
    updated    TEXT NOT NULL,
    PRIMARY KEY (job_id, cell_index)
);
CREATE INDEX IF NOT EXISTS idx_leases_state ON leases(state);
"""


def _upgrade_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: add the distributed-dispatch lease table."""
    conn.executescript(_DDL_LEASES)


#: ``old_version -> upgrade(connection)`` hooks, applied in sequence until
#: the database reaches STORE_SCHEMA_VERSION.
_MIGRATIONS: Dict[int, Any] = {1: _upgrade_v1_to_v2}

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,   -- key_digest(normalized run key)
    run_key    TEXT NOT NULL,      -- the normalized key itself, as JSON
    workload   TEXT NOT NULL,
    config     TEXT NOT NULL,
    core_scale INTEGER NOT NULL,
    predictor  TEXT,
    warmup     INTEGER NOT NULL,
    measure    INTEGER NOT NULL,
    category   TEXT NOT NULL,
    paper_tag  TEXT NOT NULL,
    stats      TEXT NOT NULL,      -- SimStats.to_dict() as JSON
    created    TEXT NOT NULL,
    job_id     TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_workload ON runs(workload);
CREATE INDEX IF NOT EXISTS idx_runs_config   ON runs(config);
CREATE TABLE IF NOT EXISTS jobs (
    job_id    TEXT PRIMARY KEY,
    kind      TEXT NOT NULL,       -- "matrix" | "trace"
    status    TEXT NOT NULL,       -- queued | running | done | failed
    submitted TEXT NOT NULL,
    started   TEXT,
    finished  TEXT,
    request   TEXT NOT NULL,       -- the submitted matrix, as JSON
    manifest  TEXT,                -- per-cell sources + wall times, as JSON
    error     TEXT
);
CREATE TABLE IF NOT EXISTS artifacts (
    artifact_id INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id      TEXT NOT NULL,
    name        TEXT NOT NULL,
    format      TEXT NOT NULL,
    path        TEXT NOT NULL,
    bytes       INTEGER NOT NULL,
    created     TEXT NOT NULL
);
""" + _DDL_LEASES


class StoreSchemaError(RuntimeError):
    """The database speaks a schema this code cannot (newer, or corrupt)."""


def utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run_id_for(key: RunKey) -> str:
    """The run's durable identity: the digest of its normalized run key."""
    return key_digest(key)


@dataclass
class StoreCounters:
    """Hit/miss accounting for one :class:`ExperimentStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


class ExperimentStore:
    """SQLite experiment database rooted at *path*.

    Each thread keeps its own connection, so one instance is safe to
    share across threads, and concurrent writers from separate
    processes serialize on SQLite's file lock (``timeout`` seconds before
    giving up).  Writes of the same ``run_id`` are idempotent
    (``INSERT OR IGNORE`` — identical keys serialize identical payloads),
    so a row keeps the ``job_id`` of whichever job first wrote it.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        strict: bool = True,
        timeout: float = 5.0,
    ):
        self.path = pathlib.Path(
            path
            or os.environ.get(ENV_STORE, "").strip()
            or os.path.join(DEFAULT_STORE_DIR, DEFAULT_STORE_NAME)
        )
        self.strict = strict
        self.timeout = timeout
        self.counters = StoreCounters()
        self._ready = False
        self._broken = False
        self._lock = threading.Lock()
        self._owner = threading.local()
        self._local = threading.local()

    @classmethod
    def from_env(cls, path: Optional[str] = None) -> Optional["ExperimentStore"]:
        """The CLI's tolerant store, or ``None`` when ``REPRO_CACHE`` is off.

        *path* falls back to ``REPRO_STORE``, else the default location.
        Opened ``strict=False``: a broken database degrades to warnings.
        """
        if os.environ.get(ENV_CACHE, "1").strip().lower() in (
            "0", "off", "no", "false",
        ):
            return None
        return cls(path, strict=False)

    @contextmanager
    def owned_by(self, job_id: str):
        """Attribute rows this thread writes without a ``job_id`` to *job_id*.

        The job queue wraps ``run_matrix`` in this, so the harness's own
        write-through records which job simulated each cell.
        """
        previous = getattr(self._owner, "job_id", None)
        self._owner.job_id = job_id
        try:
            yield
        finally:
            self._owner.job_id = previous

    # ------------------------------------------------------------------
    # connection / schema lifecycle
    # ------------------------------------------------------------------
    @contextmanager
    def _connect(self):
        """This thread's connection, inside one transaction.

        Each thread keeps one connection for the life of the thread (in a
        ``threading.local``, so it goes when the thread does); a forked
        process opens its own instead of sharing the parent's handle.
        After any SQLite error the connection is dropped, and the next
        call reconnects.  Inside :meth:`transaction` the enclosing
        transaction commits or rolls back instead.
        """
        local = self._local
        if getattr(local, "txn", False):
            yield local.conn
            return
        conn = getattr(local, "conn", None)
        if conn is None or local.pid != os.getpid():
            if conn is not None:
                # inherited across fork: never close the parent's handle
                local.inherited = conn
            conn = sqlite3.connect(str(self.path), timeout=self.timeout)
            conn.row_factory = sqlite3.Row
            # SQLite's default, stated because builds may lower it for WAL:
            # FULL syncs the log on every commit, so commits survive power loss
            conn.execute("PRAGMA synchronous=FULL")
            local.conn, local.pid = conn, os.getpid()
        try:
            with conn:
                yield conn
        except sqlite3.Error:
            local.conn = None
            conn.close()
            raise

    @contextmanager
    def transaction(self):
        """Run every call this thread makes on the store inside the block
        as one SQLite transaction: their writes commit together when the
        block ends, and none of them does if it raises.

        The write lock is taken up front (``BEGIN IMMEDIATE``), so a read
        inside the block is never invalidated by another writer.  Inside
        the block a failed call always raises, strict or not, so a
        partial transaction cannot commit.  Nested blocks join the
        outermost one.
        """
        local = self._local
        if getattr(local, "txn", False) or not self._ensure():
            yield
            return
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            local.txn = True
            try:
                yield
            finally:
                local.txn = False

    def _ensure(self) -> bool:
        """Create or migrate the schema once; False when degraded."""
        with self._lock:
            if self._ready:
                return True
            if self._broken:
                return False
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self._connect() as conn:
                    # the journal mode is stored in the file: set it once
                    if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                        conn.execute("PRAGMA journal_mode=WAL")
                    self._ensure_schema(conn)
            except StoreSchemaError:
                raise
            except (sqlite3.Error, OSError) as exc:
                if self.strict:
                    raise StoreSchemaError(
                        f"cannot open experiment store {self.path}: {exc}"
                    ) from exc
                warn(
                    f"experiment store {self.path} unusable, continuing "
                    f"without it: {exc}",
                    RuntimeWarning,
                )
                self.counters.errors += 1
                self._broken = True
                return False
            self._ready = True
            return True

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        row = None
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            pass  # fresh database: meta does not exist yet
        if row is None:
            conn.executescript(_DDL)
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES(?, ?)",
                ("schema", SCHEMA_NAME),
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES(?, ?)",
                ("schema_version", str(STORE_SCHEMA_VERSION)),
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES(?, ?)",
                ("created", utcnow()),
            )
            return
        version = int(row["value"])
        while version < STORE_SCHEMA_VERSION:
            upgrade = _MIGRATIONS.get(version)
            if upgrade is None:
                raise StoreSchemaError(
                    f"{self.path} is schema version {version} and no "
                    f"migration to {STORE_SCHEMA_VERSION} is registered"
                )
            upgrade(conn)
            version += 1
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(version),),
            )
        if version > STORE_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{self.path} is schema version {version}, newer than this "
                f"code understands ({STORE_SCHEMA_VERSION}); refusing to touch it"
            )

    def _degrade(self, what: str, exc: Exception) -> None:
        self.counters.errors += 1
        if self.strict or getattr(self._local, "txn", False):
            raise StoreSchemaError(f"experiment store {what} failed: {exc}") from exc
        warn(f"experiment store {what} failed: {exc}", RuntimeWarning)

    def schema_info(self) -> Dict[str, Any]:
        if not self._ensure():
            return {}
        with self._connect() as conn:
            rows = conn.execute("SELECT key, value FROM meta").fetchall()
            journal_mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            synchronous = conn.execute("PRAGMA synchronous").fetchone()[0]
        info: Dict[str, Any] = {row["key"]: row["value"] for row in rows}
        info["schema_version"] = int(info["schema_version"])
        info["journal_mode"] = journal_mode
        info["synchronous"] = synchronous
        return info

    # ------------------------------------------------------------------
    # result-backend surface (what repro.harness.runner reads and writes)
    # ------------------------------------------------------------------
    def get(self, key: RunKey):
        """Stored ``RunResult`` for *key*, or ``None`` on any kind of miss."""
        from repro.core.stats import SimStats
        from repro.harness.runner import RunResult  # circular at import time

        try:
            if not self._ensure():
                return None
            with self._connect() as conn:
                row = conn.execute(
                    "SELECT workload, category, paper_tag, config, stats "
                    "FROM runs WHERE run_id = ?",
                    (run_id_for(key),),
                ).fetchone()
        except StoreSchemaError:
            raise
        except (sqlite3.Error, OSError) as exc:
            self._degrade("read", exc)
            return None
        if row is None:
            self.counters.misses += 1
            return None
        try:
            result = RunResult(
                workload=row["workload"],
                category=row["category"],
                paper_tag=row["paper_tag"],
                config=row["config"],
                stats=SimStats.from_dict(json.loads(row["stats"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            warn(f"ignoring corrupt store row for {key}: {exc}", RuntimeWarning)
            self.counters.errors += 1
            return None
        self.counters.hits += 1
        return result

    def put(self, key: RunKey, result, job_id: Optional[str] = None) -> None:
        """Persist *result* under *key* (idempotent; degrades on failure).

        Without a *job_id*, the row names the job of an enclosing
        :meth:`owned_by` block on this thread, if any.
        """
        if job_id is None:
            job_id = getattr(self._owner, "job_id", None)
        try:
            if not self._ensure():
                return
            with self._connect() as conn:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO runs(run_id, run_key, workload, "
                    "config, core_scale, predictor, warmup, measure, "
                    "category, paper_tag, stats, created, job_id) "
                    "VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id_for(key),
                        json.dumps(list(key)),
                        key[0],
                        key[1],
                        key[2],
                        key[3],
                        key[4],
                        key[5],
                        result.category,
                        result.paper_tag,
                        json.dumps(result.stats.to_dict()),
                        utcnow(),
                        job_id,
                    ),
                )
                if cursor.rowcount:
                    self.counters.stores += 1
        except StoreSchemaError:
            raise
        except (sqlite3.Error, OSError) as exc:
            self._degrade("write", exc)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count_runs(self) -> int:
        if not self._ensure():
            return 0
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def query_runs(
        self,
        workload: Optional[str] = None,
        config: Optional[str] = None,
        limit: int = 100,
    ) -> List[Dict[str, Any]]:
        """Run summaries (no full stats), newest first."""
        if not self._ensure():
            return []
        clauses, params = [], []
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if config is not None:
            clauses.append("config = ?")
            params.append(config)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT run_id, workload, config, core_scale, predictor, "
                f"warmup, measure, stats, created, job_id FROM runs {where} "
                "ORDER BY created DESC, run_id LIMIT ?",
                (*params, max(1, limit)),
            ).fetchall()
        out = []
        for row in rows:
            stats = json.loads(row["stats"])
            cycles = stats.get("cycles", 0)
            out.append(
                {
                    "run_id": row["run_id"],
                    "workload": row["workload"],
                    "config": row["config"],
                    "core_scale": row["core_scale"],
                    "predictor": row["predictor"],
                    "warmup": row["warmup"],
                    "measure": row["measure"],
                    "ipc": (
                        round(stats.get("instructions", 0) / cycles, 4)
                        if cycles
                        else 0.0
                    ),
                    "created": row["created"],
                    "job_id": row["job_id"],
                }
            )
        return out

    def get_run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One run's full record (normalized key + complete stats)."""
        if not self._ensure():
            return None
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            return None
        record = dict(row)
        record["run_key"] = json.loads(record["run_key"])
        record["stats"] = json.loads(record["stats"])
        return record

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    def record_job(
        self,
        job_id: str,
        status: str,
        request: Dict[str, Any],
        kind: str = "matrix",
        submitted: Optional[str] = None,
    ) -> None:
        if not self._ensure():
            return
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO jobs(job_id, kind, status, submitted, "
                "request) VALUES(?, ?, ?, ?, ?)",
                (job_id, kind, status, submitted or utcnow(), json.dumps(request)),
            )

    def update_job(self, job_id: str, **fields: Any) -> None:
        allowed = {"status", "started", "finished", "manifest", "error"}
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(f"unknown job fields {sorted(unknown)}")
        if not fields or not self._ensure():
            return
        values = {
            k: (json.dumps(v) if k == "manifest" and v is not None else v)
            for k, v in fields.items()
        }
        assignment = ", ".join(f"{k} = ?" for k in values)
        with self._connect() as conn:
            conn.execute(
                f"UPDATE jobs SET {assignment} WHERE job_id = ?",
                (*values.values(), job_id),
            )

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        if not self._ensure():
            return None
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            return None
        record = dict(row)
        record["request"] = json.loads(record["request"])
        if record["manifest"]:
            record["manifest"] = json.loads(record["manifest"])
        return record

    def list_jobs(self, limit: int = 50) -> List[Dict[str, Any]]:
        if not self._ensure():
            return []
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT job_id, kind, status, submitted, started, finished, "
                "error FROM jobs ORDER BY submitted DESC, job_id LIMIT ?",
                (max(1, limit),),
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # distributed leases (docs/distributed.md)
    # ------------------------------------------------------------------
    def enqueue_cells(self, job_id: str, cells: List[Dict[str, Any]]) -> int:
        """Queue distributed matrix cells for workers to lease.

        *cells*: dicts with ``index``, ``run_id``, and a JSON-serializable
        ``request`` (the ``RunRequest`` fields a worker needs to re-run the
        cell).  Idempotent per ``(job_id, index)``.
        """
        if not cells or not self._ensure():
            return 0
        stamp = utcnow()
        try:
            with self._connect() as conn:
                cursor = conn.executemany(
                    "INSERT OR IGNORE INTO leases(job_id, cell_index, "
                    "run_id, request, state, attempts, created, updated) "
                    "VALUES(?, ?, ?, ?, 'pending', 0, ?, ?)",
                    [
                        (job_id, cell["index"], cell["run_id"],
                         json.dumps(cell["request"]), stamp, stamp)
                        for cell in cells
                    ],
                )
                return cursor.rowcount
        except (sqlite3.Error, OSError) as exc:
            self._degrade("lease enqueue", exc)
            return 0

    def lease_next(
        self,
        worker: str,
        ttl: float = DEFAULT_LEASE_TTL,
        now: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """Atomically claim the oldest pending cell for *worker*.

        The claim is a ``state = 'pending'``-guarded UPDATE, so concurrent
        workers (threads or separate processes on the same database) never
        double-lease a cell; a lost race simply retries on the next oldest
        row.  Returns the leased cell or ``None`` when the queue is empty.
        """
        if not self._ensure():
            return None
        now = time.time() if now is None else now
        lease_id = uuid.uuid4().hex
        try:
            with self._connect() as conn:
                while True:
                    row = conn.execute(
                        "SELECT job_id, cell_index, run_id, request, attempts "
                        "FROM leases WHERE state = 'pending' "
                        "ORDER BY created, job_id, cell_index LIMIT 1"
                    ).fetchone()
                    if row is None:
                        return None
                    claimed = conn.execute(
                        "UPDATE leases SET state = 'leased', worker = ?, "
                        "lease_id = ?, deadline = ?, attempts = attempts + 1, "
                        "updated = ? WHERE job_id = ? AND cell_index = ? "
                        "AND state = 'pending'",
                        (worker, lease_id, now + ttl, utcnow(),
                         row["job_id"], row["cell_index"]),
                    ).rowcount
                    if claimed:
                        return {
                            "job_id": row["job_id"],
                            "index": row["cell_index"],
                            "run_id": row["run_id"],
                            "request": json.loads(row["request"]),
                            "lease_id": lease_id,
                            "deadline": now + ttl,
                            "attempts": row["attempts"] + 1,
                        }
        except (sqlite3.Error, OSError) as exc:
            self._degrade("lease claim", exc)
            return None

    def requeue_expired(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Return expired leases to the pending queue (dead workers).

        Called by every lease request, and again at :meth:`next_deadline`
        while a lease request waits on an empty queue — there is no
        background reaper thread, so an abandoned cell is recovered as
        soon as its lease expires, provided a live worker is asking.
        """
        if not self._ensure():
            return []
        now = time.time() if now is None else now
        out: List[Dict[str, Any]] = []
        try:
            with self._connect() as conn:
                rows = conn.execute(
                    "SELECT job_id, cell_index, worker, attempts FROM leases "
                    "WHERE state = 'leased' AND deadline < ?", (now,),
                ).fetchall()
                for row in rows:
                    freed = conn.execute(
                        "UPDATE leases SET state = 'pending', worker = NULL, "
                        "lease_id = NULL, deadline = NULL, updated = ? "
                        "WHERE job_id = ? AND cell_index = ? "
                        "AND state = 'leased' AND deadline < ?",
                        (utcnow(), row["job_id"], row["cell_index"], now),
                    ).rowcount
                    if freed:
                        out.append(dict(row))
        except (sqlite3.Error, OSError) as exc:
            self._degrade("lease requeue", exc)
        return out

    def next_deadline(self) -> Optional[float]:
        """The earliest deadline of a live lease (``time.time()`` scale),
        or ``None`` when no cell is leased."""
        if not self._ensure():
            return None
        try:
            with self._connect() as conn:
                row = conn.execute(
                    "SELECT MIN(deadline) FROM leases WHERE state = 'leased'"
                ).fetchone()
        except (sqlite3.Error, OSError) as exc:
            self._degrade("lease deadline", exc)
            return None
        return row[0]

    def heartbeat_lease(
        self,
        lease_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Renew a live lease; returns the new deadline, or ``None`` when
        the lease is gone (acked, or expired and reassigned)."""
        if not self._ensure():
            return None
        now = time.time() if now is None else now
        try:
            with self._connect() as conn:
                renewed = conn.execute(
                    "UPDATE leases SET deadline = ?, updated = ? "
                    "WHERE lease_id = ? AND state = 'leased'",
                    (now + ttl, utcnow(), lease_id),
                ).rowcount
        except (sqlite3.Error, OSError) as exc:
            self._degrade("lease heartbeat", exc)
            return None
        return now + ttl if renewed else None

    def ack_lease(
        self, lease_id: str, wall_time: float = 0.0
    ) -> Optional[Dict[str, Any]]:
        """Mark a leased cell done; ``None`` when the lease is stale.

        A stale ack (the cell expired and was re-leased to another worker)
        is rejected so the attempt accounting stays exact — the duplicate
        result is harmless either way because the simulator is
        deterministic and run writes are idempotent.
        """
        if not self._ensure():
            return None
        try:
            with self._connect() as conn:
                row = conn.execute(
                    "SELECT job_id, cell_index, run_id, request, worker, "
                    "attempts FROM leases "
                    "WHERE lease_id = ? AND state = 'leased'",
                    (lease_id,),
                ).fetchone()
                if row is None:
                    return None
                conn.execute(
                    "UPDATE leases SET state = 'done', wall_time = ?, "
                    "updated = ? WHERE lease_id = ? AND state = 'leased'",
                    (wall_time, utcnow(), lease_id),
                )
        except (sqlite3.Error, OSError) as exc:
            self._degrade("lease ack", exc)
            return None
        out = dict(row)
        out["request"] = json.loads(out["request"])
        return out

    def lease_counts(self, job_id: Optional[str] = None) -> Dict[str, int]:
        counts = {state: 0 for state in LEASE_STATES}
        if not self._ensure():
            return counts
        clause, params = ("WHERE job_id = ?", (job_id,)) if job_id else ("", ())
        with self._connect() as conn:
            rows = conn.execute(
                f"SELECT state, COUNT(*) AS n FROM leases {clause} "
                f"GROUP BY state",
                params,
            ).fetchall()
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def list_leases(
        self, job_id: Optional[str] = None, limit: int = 1000
    ) -> List[Dict[str, Any]]:
        if not self._ensure():
            return []
        clause, params = ("WHERE job_id = ?", (job_id,)) if job_id else ("", ())
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT job_id, cell_index, run_id, state, worker, lease_id, "
                f"deadline, attempts, wall_time, updated FROM leases {clause} "
                "ORDER BY job_id, cell_index LIMIT ?",
                (*params, max(1, limit)),
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def add_artifact(self, job_id: str, name: str, fmt: str, path: str) -> int:
        if not self._ensure():
            return -1
        size = os.path.getsize(path)
        with self._connect() as conn:
            cursor = conn.execute(
                "INSERT INTO artifacts(job_id, name, format, path, bytes, "
                "created) VALUES(?, ?, ?, ?, ?, ?)",
                (job_id, name, fmt, path, size, utcnow()),
            )
            return int(cursor.lastrowid)

    def artifacts_for(self, job_id: str) -> List[Dict[str, Any]]:
        if not self._ensure():
            return []
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT artifact_id, job_id, name, format, path, bytes, "
                "created FROM artifacts WHERE job_id = ? ORDER BY artifact_id",
                (job_id,),
            ).fetchall()
        return [dict(row) for row in rows]

    def get_artifact(self, artifact_id: int) -> Optional[Dict[str, Any]]:
        if not self._ensure():
            return None
        with self._connect() as conn:
            row = conn.execute(
                "SELECT artifact_id, job_id, name, format, path, bytes, "
                "created FROM artifacts WHERE artifact_id = ?",
                (artifact_id,),
            ).fetchone()
        return dict(row) if row is not None else None
