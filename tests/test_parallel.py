"""Tests for the parallel experiment-matrix layer (harness/parallel.py)."""

import pytest

from repro.harness.parallel import (
    RunRequest,
    default_jobs,
    last_manifest,
    reset_manifests,
    run_matrix,
    session_summary,
    shutdown_pool,
)
from repro.harness.reporting import summarize_session
from repro.harness.runner import clear_memo, compare_configs
from repro.workloads import Workload
from tests.conftest import h2p_hammock_workload

FAST = dict(warmup=800, measure=1200)
MATRIX_NAMES = ["lammps", "gcc"]
MATRIX_CONFIGS = ["baseline", "acb", "oracle-bp"]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()
    shutdown_pool()


def _matrix_requests():
    return [
        RunRequest(workload=name, config=config, **FAST)
        for name in MATRIX_NAMES
        for config in MATRIX_CONFIGS
    ]


class TestRunMatrix:
    def test_parallel_matches_serial_bit_identical(self):
        serial = run_matrix(_matrix_requests(), jobs=1)
        clear_memo()
        parallel = run_matrix(_matrix_requests(), jobs=2)
        assert len(serial) == len(parallel) == 6
        for s, p in zip(serial, parallel):
            assert s.workload == p.workload and s.config == p.config
            assert s.stats == p.stats  # full dataclass equality, incl. per-branch

    def test_results_in_request_order(self):
        requests = _matrix_requests()
        results = run_matrix(requests, jobs=2)
        for request, result in zip(requests, results):
            assert result.workload == request.workload
            assert result.config == request.config

    def test_manifest_counts_runs_then_hits(self):
        run_matrix(_matrix_requests(), jobs=2)
        first = last_manifest()
        assert first.total == 6
        assert first.simulated == 6 and first.cache_hits == 0
        assert all(c.wall_time > 0 for c in first.cells if c.source == "run")

        run_matrix(_matrix_requests(), jobs=2)
        second = last_manifest()
        assert second.simulated == 0
        assert second.cache_hits == 6
        assert second.hit_rate == 1.0

    def test_duplicate_cells_simulated_once(self):
        requests = [
            RunRequest(workload="lammps", **FAST),
            RunRequest(workload="lammps", **FAST),
            # oracle-bp and an explicit oracle baseline normalize to one cell
            RunRequest(workload="lammps", config="oracle-bp", **FAST),
            RunRequest(workload="lammps", config="baseline", predictor="oracle", **FAST),
        ]
        results = run_matrix(requests, jobs=1)
        manifest = last_manifest()
        assert manifest.simulated == 2
        assert sum(1 for c in manifest.cells if c.source == "dedup") == 2
        assert results[0].stats == results[1].stats
        assert results[2].stats == results[3].stats
        assert results[2].config == "oracle-bp"
        assert results[3].config == "baseline"

    def test_worker_error_surfaces_clearly(self):
        requests = [
            RunRequest(workload="lammps", **FAST),
            RunRequest(workload="gcc", config="no-such-config", **FAST),
        ]
        with pytest.raises(RuntimeError, match="gcc.*no-such-config"):
            run_matrix(requests, jobs=2)

    def test_serial_error_surfaces_clearly(self):
        with pytest.raises(RuntimeError, match="lammps.*bogus"):
            run_matrix([RunRequest(workload="lammps", config="bogus", **FAST)], jobs=1)

    def test_non_picklable_workload_falls_back_to_serial(self):
        workload = h2p_hammock_workload()
        workload.__class__ = type("LocalWorkload", (Workload,), {})
        requests = [
            RunRequest(workload=workload, **FAST),
            RunRequest(workload="lammps", **FAST),
        ]
        results = run_matrix(requests, jobs=2)
        assert results[0].workload == "h2p"
        assert results[1].workload == "lammps"
        assert all(c.source == "run" for c in last_manifest().cells)

    def test_custom_workload_serial_reference(self):
        """Ad-hoc Workload objects run uncached and match run_workload."""
        from repro.harness.runner import run_workload

        direct = run_workload(h2p_hammock_workload(), "acb", **FAST)
        (via_matrix,) = run_matrix(
            [RunRequest(workload=h2p_hammock_workload(), config="acb", **FAST)],
            jobs=1,
        )
        assert direct.stats == via_matrix.stats


    def test_pool_worker_memo_hit_is_reported_as_memo(self, monkeypatch):
        """A long-lived pool worker answers a cell it ran before from its
        own memo; the manifest must say so instead of claiming a run.
        One pool process, so the repeated cells land where they first ran."""
        from concurrent.futures import ProcessPoolExecutor

        import repro.harness.parallel as parallel

        shutdown_pool()
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            lambda max_workers: ProcessPoolExecutor(1))
        requests = _matrix_requests()[:2]
        first = run_matrix(requests, jobs=2)
        assert [c.source for c in last_manifest().cells] == ["run", "run"]

        clear_memo()  # the parent forgets; its pool worker does not
        again = run_matrix(requests, jobs=2)
        manifest = last_manifest()
        assert [c.source for c in manifest.cells] == ["memo", "memo"]
        assert manifest.simulated == 0 and manifest.cache_hits == 2
        assert [r.stats for r in again] == [r.stats for r in first]


    def test_one_store_read_per_matrix(self, tmp_path, monkeypatch):
        """Memo hits, store hits, in-matrix duplicates, a miss and an
        unkeyed cell: the memo misses cost one ``get_many`` between them,
        and every cell's source is what a per-cell lookup reported."""
        from repro.acb import AcbConfig
        from repro.harness.cache import set_active_store
        from repro.service.store import ExperimentStore

        store = ExperimentStore(str(tmp_path / "exp.sqlite"))
        previous = set_active_store(store)
        try:
            memo_hit = RunRequest("lammps", "baseline", **FAST)
            store_hit = RunRequest("gcc", "baseline", **FAST)
            miss = RunRequest("lammps", "acb", **FAST)
            unkeyed = RunRequest("gcc", "acb", acb_config=AcbConfig().reduced(10),
                                 **FAST)
            run_matrix([store_hit], jobs=1)
            clear_memo()  # gcc now lives in the store only
            run_matrix([memo_hit], jobs=1)

            reads = []
            get_many = store.get_many
            monkeypatch.setattr(store, "get_many",
                                lambda keys: reads.append(list(keys)) or get_many(keys))
            requests = [memo_hit, store_hit, miss, memo_hit, store_hit, miss,
                        unkeyed]
            results = run_matrix(requests, jobs=1)
        finally:
            set_active_store(previous)
        assert [sorted(keys) for keys in reads] == [
            sorted([store_hit.memo_key(), miss.memo_key()])
        ]
        assert [c.source for c in last_manifest().cells] == [
            "memo", "store", "run", "dedup", "dedup", "dedup", "run",
        ]
        for owner, duplicate in zip(results[:3], results[3:6]):
            assert duplicate.stats == owner.stats
        clear_memo()
        assert [r.stats for r in results] == [
            r.stats for r in run_matrix(requests, jobs=1)
        ]


class TestManifests:
    def test_last_manifest_is_per_thread(self):
        import threading

        run_matrix([RunRequest(workload="lammps", **FAST)], jobs=1)
        mine = last_manifest()
        other = []

        def elsewhere():
            other.append(last_manifest())
            run_matrix([RunRequest(workload="gcc", **FAST)], jobs=1)
            other.append(last_manifest())

        thread = threading.Thread(target=elsewhere)
        thread.start()
        thread.join()
        assert other[0] is None
        assert other[1].cells[0].workload == "gcc"
        assert last_manifest() is mine

    def test_session_summary_keeps_totals_not_cells(self):
        reset_manifests()
        run_matrix(_matrix_requests(), jobs=1)
        run_matrix(_matrix_requests(), jobs=1)
        summary = session_summary()
        assert summary.matrices == 2 and summary.total == 12
        assert summary.simulated == 6 and summary.cache_hits == 6
        assert "6 simulated, 6 cache hits" in summarize_session(summary)
        reset_manifests()
        assert session_summary().matrices == 0 and last_manifest() is None


class TestPoolLifecycle:
    def test_shutdown_pool_reaps_workers(self):
        import repro.harness.parallel as parallel

        run_matrix(_matrix_requests(), jobs=2)
        pool = parallel._POOL
        assert pool is not None
        workers = list(pool._processes.values())
        assert workers
        shutdown_pool()
        assert parallel._POOL is None and parallel._POOL_JOBS == 0
        for proc in workers:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_shutdown_pool_idempotent(self):
        shutdown_pool()
        shutdown_pool()

    def test_atexit_hook_registered(self):
        import repro.harness.parallel as parallel

        # the module registers shutdown_pool with atexit exactly once at
        # import time, so a process never exits with live pool workers
        assert parallel._ATEXIT_REGISTERED is True


class TestCompareConfigs:
    def test_compare_configs_identical_across_job_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = compare_configs(MATRIX_NAMES, MATRIX_CONFIGS, **FAST)
        clear_memo()
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = compare_configs(MATRIX_NAMES, MATRIX_CONFIGS, **FAST)
        for name in MATRIX_NAMES:
            for config in MATRIX_CONFIGS:
                assert serial[name][config].stats == parallel[name][config].stats

    def test_compare_configs_shape_preserved(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        out = compare_configs(["lammps"], ["baseline", "acb"], **FAST)
        assert set(out) == {"lammps"}
        assert set(out["lammps"]) == {"baseline", "acb"}


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1
