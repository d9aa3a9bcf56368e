"""The SQLite experiment store: schema versioning, robustness, parity.

The store is the durable layer behind the run memo — these tests pin
the properties the service relies on: bit-exact round-trips, key parity
with :mod:`repro.harness.cache`, refusal of newer schemas, tolerance of
corrupt/locked databases in non-strict mode, idempotent concurrent
writers, and the memo → store lookup chain.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sqlite3
import sys
import threading
import time

import pytest

from repro.harness import cache as result_cache
from repro.harness.cache import key_digest
from repro.harness.runner import (
    clear_memo,
    lookup_cached,
    normalized_run_key,
    run_workload,
)
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
# batched reads
# ----------------------------------------------------------------------
def _statements(store):
    """Every SQL statement this thread's connection runs from now on."""
    seen = []
    with store._connect() as conn:
        conn.set_trace_callback(seen.append)
    return seen


def test_get_many_reads_in_chunks(store, monkeypatch):
    result = small_result()
    keys = [small_key(warmup=400 + i) for i in range(7)]
    for key in keys:
        store.put(key, result)
    monkeypatch.setattr(store_module, "GET_MANY_CHUNK", 3)
    statements = _statements(store)
    found = store.get_many(keys + keys[:2])  # a repeated key is read once
    selects = [s for s in statements if "WHERE run_id IN" in s]
    # the trace shows the bound ids, quoted
    assert [s.count("'") // 2 for s in selects] == [3, 3, 1]
    assert found.keys() == set(keys)
    assert all(r.stats == result.stats for r in found.values())
    assert (store.counters.hits, store.counters.misses) == (7, 0)
    assert store.get_many([]) == {}


def test_get_many_mixes_found_missing_and_corrupt(store):
    result = small_result()
    stored = [small_key(warmup=400 + i) for i in range(3)]
    for key in stored:
        store.put(key, result)
    with sqlite3.connect(str(store.path)) as conn:
        conn.execute("UPDATE runs SET stats = '[1, 2]' WHERE run_id = ?",
                     (run_id_for(stored[1]),))
    missing = [small_key(warmup=900 + i) for i in range(2)]
    with pytest.warns(RuntimeWarning, match="corrupt store row"):
        found = store.get_many(stored + missing)
    assert found.keys() == {stored[0], stored[2]}
    assert found[stored[0]].stats == result.stats
    assert (store.counters.hits, store.counters.misses,
            store.counters.errors) == (2, 2, 1)


def test_close_releases_every_connection(store):
    """After ``close()`` no connection holds the file, even one opened by
    a thread that is still alive, and without the cyclic collector."""
    store.put(small_key(), small_result())
    opened, resume, counted = threading.Event(), threading.Event(), []

    def other_thread():
        counted.append(store.count_runs())
        opened.set()
        resume.wait(10)
        counted.append(store.count_runs())  # reconnects

    thread = threading.Thread(target=other_thread)
    gc.disable()
    try:
        thread.start()
        assert opened.wait(10)
        assert os.path.exists(f"{store.path}-wal")
        store.close()
        # closing the last connection checkpointed and removed the log
        assert not os.path.exists(f"{store.path}-wal")
        assert not os.path.exists(f"{store.path}-shm")
        conn = sqlite3.connect(str(store.path), timeout=0.05)
        assert conn.execute("PRAGMA journal_mode=DELETE").fetchone()[0] == "delete"
        conn.close()
    finally:
        gc.enable()
        resume.set()
        thread.join(10)
    assert counted == [1, 1]
    assert store.get(small_key()) is not None  # this thread reconnects too
    store.close()
    store.close()  # idempotent


def test_close_while_other_threads_use_the_store(store):
    """``close()`` in a loop while four threads read and write: no call
    fails or reads a wrong row, and a final ``close()`` leaves no
    connection open."""
    result = small_result()
    keys = [small_key(warmup=400 + i) for i in range(8)]
    for key in keys:
        store.put(key, result)
    errors, stop = [], threading.Event()

    def hammer(n):
        try:
            while not stop.is_set():
                found = store.get_many(keys)
                if found.keys() != set(keys) or any(
                        r.stats != result.stats for r in found.values()):
                    errors.append(f"wrong read in thread {n}")
                store.put(small_key(warmup=2_000 + n), result)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    closes = 0
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            store.close()
            closes += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert closes > 1
    assert store.count_runs() == len(keys) + 4
    store.close()
    assert not os.path.exists(f"{store.path}-wal")


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
    old.close()  # leaving the journal mode needs the only connection
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

    # the re-simulation's write replaces the row that does not decode ...
    previous = result_cache.set_active_store(store)
    clear_memo()
    try:
        with store.owned_by("resimulated"), \
                pytest.warns(RuntimeWarning, match="corrupt"):
            fresh = run_workload("lammps", "baseline", warmup=400, measure=600)
        clear_memo()
        result, source = lookup_cached(key)
    finally:
        result_cache.set_active_store(previous)
        clear_memo()
    assert source == "store"
    assert result.stats == fresh.stats
    # ... and a valid row keeps its first writer
    store.put(key, fresh, job_id="later")
    assert store.get_run(run_id_for(key))["job_id"] == "resimulated"
    assert store.count_runs() == 1


def test_get_many_locked_db(store):
    """A read that cannot get the database degrades to ``{}`` in tolerant
    mode and raises in strict mode."""
    store.put(small_key(), small_result())
    tolerant = ExperimentStore(str(store.path), strict=False, timeout=0.05)
    strict = ExperimentStore(str(store.path), strict=True, timeout=0.05)
    for each in (store, tolerant, strict):
        each.schema_info()  # initialized, then every connection let go
        each.close()
    holder = sqlite3.connect(str(store.path))
    holder.execute("PRAGMA locking_mode=EXCLUSIVE")
    holder.execute("BEGIN EXCLUSIVE")
    try:
        with pytest.warns(RuntimeWarning, match="read failed.*locked"):
            assert tolerant.get_many([small_key()]) == {}
        assert tolerant.counters.errors == 1
        assert tolerant.counters.hits + tolerant.counters.misses == 0
        with pytest.raises(StoreSchemaError, match="locked"):
            strict.get_many([small_key()])
    finally:
        holder.rollback()
        holder.close()
    assert tolerant.get_many([small_key()]).keys() == {small_key()}


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
