"""The SQLite experiment store: schema versioning, robustness, parity.

The store is the durable layer behind the run memo — these tests pin
the properties the service relies on: bit-exact round-trips, key parity
with :mod:`repro.harness.cache`, refusal of newer schemas, tolerance of
corrupt/locked databases in non-strict mode, idempotent concurrent
writers, and the memo → store lookup chain.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import threading

import pytest

from repro.harness import cache as result_cache
from repro.harness.cache import key_digest
from repro.harness.runner import clear_memo, normalized_run_key, run_workload
from repro.service import store as store_module
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    ExperimentStore,
    StoreSchemaError,
    run_id_for,
)


def small_key(config: str = "baseline", warmup: int = 400, measure: int = 600):
    return normalized_run_key("lammps", config, 1, None, warmup, measure)


def small_result(config: str = "baseline", warmup: int = 400, measure: int = 600):
    return run_workload("lammps", config, warmup=warmup, measure=measure)


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(str(tmp_path / "exp.sqlite"))


# ----------------------------------------------------------------------
# round-trip + identity
# ----------------------------------------------------------------------
def test_round_trip_bit_identical(store):
    key = small_key()
    result = small_result()
    store.put(key, result)
    loaded = store.get(key)
    assert loaded is not None
    assert loaded.workload == result.workload
    assert loaded.config == result.config
    assert loaded.category == result.category
    assert loaded.paper_tag == result.paper_tag
    assert loaded.stats.to_dict() == result.stats.to_dict()


def test_cache_key_parity():
    """run_id == key_digest of the memo's own normalized key."""
    from repro.harness.parallel import RunRequest

    key = small_key()
    assert run_id_for(key) == key_digest(key)
    request = RunRequest("lammps", "baseline", warmup=400, measure=600)
    assert run_id_for(request.memo_key()) == run_id_for(key)


def test_put_is_idempotent(store):
    key = small_key()
    result = small_result()
    store.put(key, result)
    store.put(key, result)
    assert store.count_runs() == 1
    assert store.counters.stores == 1


def test_query_and_get_run(store):
    store.put(small_key(), small_result())
    store.put(small_key("acb"), small_result("acb"))
    rows = store.query_runs(workload="lammps")
    assert {row["config"] for row in rows} == {"baseline", "acb"}
    assert all(row["ipc"] > 0 for row in rows)
    assert store.query_runs(config="acb")[0]["config"] == "acb"
    full = store.get_run(run_id_for(small_key("acb")))
    assert full["run_key"] == list(small_key("acb"))
    assert full["stats"]["cycles"] > 0
    assert store.get_run("no-such-run") is None


# ----------------------------------------------------------------------
# schema versioning
# ----------------------------------------------------------------------
def _set_version(path, version: int) -> None:
    with sqlite3.connect(str(path)) as conn:
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(version),),
        )


def test_schema_info(store):
    info = store.schema_info()
    assert info["schema_version"] == STORE_SCHEMA_VERSION
    assert info["schema"] == "repro-store"
    assert (info["journal_mode"], info["synchronous"]) == ("wal", 2)


def test_newer_schema_refused(store):
    store.schema_info()  # create
    _set_version(store.path, STORE_SCHEMA_VERSION + 1)
    reopened = ExperimentStore(str(store.path), strict=True)
    with pytest.raises(StoreSchemaError, match="newer"):
        reopened.schema_info()


def test_older_schema_without_migration_refused(store):
    store.schema_info()
    _set_version(store.path, 0)
    reopened = ExperimentStore(str(store.path), strict=True)
    with pytest.raises(StoreSchemaError, match="no.*migration"):
        reopened.schema_info()


def test_migration_applied_in_place(store):
    store.put(small_key(), small_result())
    _set_version(store.path, 0)
    applied = []
    store_module._MIGRATIONS[0] = lambda conn: applied.append(True)
    try:
        reopened = ExperimentStore(str(store.path), strict=True)
        assert reopened.schema_info()["schema_version"] == STORE_SCHEMA_VERSION
        assert applied == [True]
        assert reopened.get(small_key()) is not None
    finally:
        del store_module._MIGRATIONS[0]


# ----------------------------------------------------------------------
# durability: write-ahead log, synced on every commit
# ----------------------------------------------------------------------
def _durability(store):
    """This thread's connection's journal mode and synchronous level."""
    with store._connect() as conn:
        return [conn.execute("PRAGMA journal_mode").fetchone()[0],
                conn.execute("PRAGMA synchronous").fetchone()[0]]


def test_every_connection_is_wal_with_full_sync(store):
    store.schema_info()  # create
    assert _durability(store) == ["wal", 2]
    with store._connect() as conn:
        parents = conn

    in_thread = []
    thread = threading.Thread(target=lambda: in_thread.append(_durability(store)))
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert in_thread == [["wal", 2]]

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report on the connection it opens, then leave
        status = 1
        try:
            # a child that deadlocks on a lock held at fork dies instead
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(30)
            seen = _durability(store)
            with store._connect() as conn:
                seen.append(conn is not parents)
            os.write(write, json.dumps(seen).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as pipe:
        in_child = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert json.loads(in_child) == ["wal", 2, True]


def test_rollback_journal_store_converts_to_wal_with_rows_intact(tmp_path):
    path = str(tmp_path / "exp.sqlite")
    old = ExperimentStore(path)
    old.put(small_key(), small_result())
    old.put(small_key("acb"), small_result("acb"))
    with old._connect() as conn:
        pass
    conn.close()  # leaving the journal mode needs the only connection
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA journal_mode=DELETE").fetchone()[0] == "delete"
    conn.close()
    assert not os.path.exists(path + "-wal")

    reopened = ExperimentStore(path)
    assert reopened.schema_info()["journal_mode"] == "wal"
    assert reopened.count_runs() == 2
    assert reopened.get(small_key("acb")).stats == small_result("acb").stats


# ----------------------------------------------------------------------
# robustness: corrupt / locked databases
# ----------------------------------------------------------------------
def test_corrupt_db_strict_raises(tmp_path):
    path = tmp_path / "broken.sqlite"
    path.write_bytes(b"this is not a sqlite database, sorry")
    with pytest.raises(StoreSchemaError):
        ExperimentStore(str(path), strict=True).schema_info()


def test_corrupt_db_tolerant_degrades(tmp_path):
    path = tmp_path / "broken.sqlite"
    path.write_bytes(b"this is not a sqlite database, sorry")
    store = ExperimentStore(str(path), strict=False)
    with pytest.warns(RuntimeWarning, match="unusable"):
        assert store.get(small_key()) is None
    # subsequent operations are silent no-ops, not repeated warnings
    store.put(small_key(), small_result())
    assert store.count_runs() == 0
    assert store.counters.errors >= 1


def test_corrupt_row_tolerated(store):
    key = small_key()
    store.put(key, small_result())
    with sqlite3.connect(str(store.path)) as conn:
        conn.execute("UPDATE runs SET stats = '{not json'")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        assert store.get(key) is None


def test_locked_db_tolerant(store):
    store.schema_info()  # initialize before locking
    holder = sqlite3.connect(str(store.path))
    holder.execute("BEGIN EXCLUSIVE")
    try:
        fast = ExperimentStore(str(store.path), strict=False, timeout=0.05)
        with pytest.warns(RuntimeWarning, match="locked"):
            fast.put(small_key(), small_result())
        assert fast.counters.errors >= 1
    finally:
        holder.rollback()
        holder.close()


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def test_concurrent_writers(store):
    results = {c: small_result(c) for c in ("baseline", "acb")}
    errors = []

    def hammer(config):
        try:
            for _ in range(10):
                store.put(small_key(config), results[config])
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(config,))
        for config in results for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert store.count_runs() == 2
    for config, result in results.items():
        assert store.get(small_key(config)).stats == result.stats


def test_one_connection_per_thread_dropped_after_an_error(store):
    store.schema_info()

    def connection():
        with store._connect() as conn:
            return conn

    mine = connection()
    assert connection() is mine  # reused, not reopened
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(connection()))
    thread.start()
    thread.join()
    assert theirs[0] is not mine

    with pytest.raises(sqlite3.OperationalError):
        with store._connect() as conn:
            conn.execute("SELECT * FROM no_such_table")
    fresh = connection()
    assert fresh is not mine
    assert store.count_runs() == 0  # and the store works on


# ----------------------------------------------------------------------
# the lookup chain: memo → store
# ----------------------------------------------------------------------
def test_store_backs_the_lookup_chain(tmp_path, store):
    from repro.harness.parallel import RunRequest, last_manifest, run_matrix

    previous = result_cache.set_active_store(store)
    clear_memo()  # other tests may have memoized this very cell
    try:
        request = RunRequest("lammps", "baseline", warmup=400, measure=600)
        first = run_matrix([request], jobs=1)[0]
        assert last_manifest().cells[0].source == "run"
        assert store.get(request.memo_key()) is not None  # wrote through

        clear_memo()  # kill the memo so only the store can answer
        again = run_matrix([request], jobs=1)[0]
        assert last_manifest().cells[0].source == "store"
        assert again.stats == first.stats
    finally:
        result_cache.set_active_store(previous)
        clear_memo()
