"""Run identity and the durable result layer behind the memo.

SimStats serialization, key normalization, schema-version invalidation,
and the experiment store the CLI attaches by default
(harness/cache.py, service/store.py).
"""

import json
import sqlite3
import warnings

import pytest

import repro.harness.cache as cache_mod
from repro.core import SKYLAKE_LIKE
from repro.core.stats import BranchPCStats, SimStats
from repro.harness.cache import set_active_store
from repro.harness.parallel import last_manifest
from repro.harness.runner import (
    clear_memo,
    lookup_cached,
    normalized_run_key,
    reduced_acb_config,
    run_workload,
)
from repro.service.store import ExperimentStore

FAST = dict(warmup=800, measure=1200)


@pytest.fixture
def store(tmp_path):
    """A fresh tolerant store installed as the process-wide durable layer."""
    store = ExperimentStore(str(tmp_path / "exp.sqlite"), strict=False)
    previous = set_active_store(store)
    clear_memo()
    yield store
    set_active_store(previous)
    clear_memo()


@pytest.fixture
def cli(monkeypatch, tmp_path):
    """``repro`` main() in an empty cwd with the durable layer switched on."""
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_WARMUP", "800")
    monkeypatch.setenv("REPRO_MEASURE", "1200")
    for name in ("REPRO_CACHE", "REPRO_STORE", "REPRO_BACKEND"):
        monkeypatch.delenv(name, raising=False)
    clear_memo()
    yield main
    clear_memo()


def _key(config="baseline", **kwargs):
    return normalized_run_key("lammps", config, warmup=800, measure=1200, **kwargs)


class TestStatsRoundTrip:
    def test_simstats_roundtrip(self):
        stats = run_workload("lammps", "acb", **FAST).stats
        assert stats.per_branch, "expected per-branch profiles"
        clone = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats
        assert clone.per_branch == stats.per_branch

    def test_branch_pc_stats_roundtrip(self):
        stats = BranchPCStats(executed=10, mispredicted=3, predicated=1)
        assert BranchPCStats.from_dict(stats.to_dict()) == stats

    def test_unknown_fields_ignored(self):
        data = SimStats(cycles=10, instructions=5).to_dict()
        data["counter_from_the_future"] = 1
        assert SimStats.from_dict(data).cycles == 10


class TestHitMiss:
    def test_miss_then_hit(self, store):
        first = run_workload("lammps", "baseline", **FAST)
        assert store.counters.stores == 1
        clear_memo()  # fresh process: only the stored copy remains
        assert lookup_cached(_key())[1] == "store"
        second = run_workload("lammps", "baseline", **FAST)
        assert store.counters.hits == 1
        assert second.stats == first.stats

    def test_distinct_windows_are_distinct_cells(self, store):
        run_workload("lammps", "baseline", warmup=800, measure=1200)
        run_workload("lammps", "baseline", warmup=800, measure=1300)
        assert store.counters.stores == 2

    def test_oracle_bp_and_explicit_oracle_share_one_cell(self, store):
        assert _key("oracle-bp") == _key("baseline", predictor="oracle")
        oracle_bp = run_workload("lammps", "oracle-bp", **FAST)
        clear_memo()
        explicit = run_workload("lammps", "baseline", predictor="oracle", **FAST)
        assert store.counters.stores == 1, "second spelling must not re-simulate"
        assert store.counters.hits == 1
        assert explicit.stats == oracle_bp.stats
        # each caller still sees its own configuration label
        assert oracle_bp.config == "oracle-bp"
        assert explicit.config == "baseline"

    def test_ad_hoc_configs_bypass_cache(self, store):
        for override in ({"acb_config": reduced_acb_config()},
                         {"core_config": SKYLAKE_LIKE}):
            run_workload("lammps", "acb", **override, **FAST)
        assert store.counters.stores == 0
        assert store.counters.hits + store.counters.misses == 0
        assert store.count_runs() == 0


class TestInvalidation:
    def test_schema_version_invalidates(self, store, monkeypatch):
        run_workload("lammps", "baseline", **FAST)
        clear_memo()
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999_999)
        assert lookup_cached(_key()) == (None, None)
        run_workload("lammps", "baseline", **FAST)
        assert store.counters.stores == 2, "stale schema must re-simulate"

    def test_stale_schema_in_payload_is_a_miss(self, store, monkeypatch):
        current = cache_mod.CACHE_SCHEMA_VERSION
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", current - 1)
        run_workload("lammps", "baseline", **FAST)  # written by older code
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", current)
        clear_memo()
        assert store.count_runs() == 1, "the stale row stays in the file"
        assert lookup_cached(_key()) == (None, None)

    def test_corrupted_file_warns_and_reruns(self, cli, tmp_path):
        bad = tmp_path / "corrupt.sqlite"
        bad.write_bytes(b"this is not a sqlite database" * 64)
        with pytest.warns(RuntimeWarning, match="experiment store"):
            assert cli(["--store", str(bad), "run", "lammps",
                        "--config", "baseline"]) == 0
        assert last_manifest().cells[0].source == "run"


    def test_truncated_payload_warns(self, store):
        run_workload("lammps", "baseline", **FAST)
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE runs SET stats = substr(stats, 1, length(stats) / 2)")
        clear_memo()
        with pytest.warns(RuntimeWarning, match="corrupt store row"):
            assert lookup_cached(_key()) == (None, None)
        assert store.counters.errors == 1


class TestBypass:
    def test_disabled_cache_touches_no_files(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", "0")
        previous = set_active_store(ExperimentStore.from_env())
        try:
            clear_memo()
            assert run_workload("lammps", "baseline", **FAST).stats.cycles > 0
        finally:
            set_active_store(previous)
            clear_memo()
        assert list(tmp_path.iterdir()) == []

    def test_from_env_disable(self, monkeypatch):
        for off in ("0", "off", "no", "false", " OFF "):
            monkeypatch.setenv("REPRO_CACHE", off)
            assert ExperimentStore.from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        store = ExperimentStore.from_env()
        assert store is not None and store.strict is False

    def test_from_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere.sqlite"))
        assert ExperimentStore.from_env().path == tmp_path / "elsewhere.sqlite"
        explicit = ExperimentStore.from_env(str(tmp_path / "flag.sqlite"))
        assert explicit.path == tmp_path / "flag.sqlite"


class TestCli:
    def test_no_cache_flag_bypasses(self, cli, monkeypatch, tmp_path):
        for flags, env in ((["--no-cache"], None), ([], "0")):
            if env is not None:
                monkeypatch.setenv("REPRO_CACHE", env)
            clear_memo()
            assert cli([*flags, "run", "lammps", "--config", "baseline"]) == 0
            assert last_manifest().cells[0].source == "run"
            assert not (tmp_path / ".repro_store").exists()

    def test_store_flag_serves_second_run(self, cli, tmp_path):
        default = tmp_path / ".repro_store" / "experiments.sqlite"
        for flags, path in (([], default),
                            (["--store", str(tmp_path / "f.sqlite")],
                             tmp_path / "f.sqlite")):
            for expected in ("run", "store"):
                clear_memo()  # each invocation is a fresh process
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert cli([*flags, "run", "lammps",
                                "--config", "baseline"]) == 0
                manifest = last_manifest()
                assert manifest.cells[0].source == expected
                assert manifest.simulated == (expected == "run")
            assert ExperimentStore(str(path)).count_runs() == 1
