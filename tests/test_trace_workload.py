"""Trace replay: reconstruction fidelity, registry, H2P gate, CLI, cache.

The claim behind ``repro.workloads.trace.replay`` is strong: a consistent
branch trace (every ``(pc, direction)`` always followed by the same next
branch) replays through the reconstructed program with *exactly* the
recorded interleaving.  These tests assert that claim on the committed
mini-traces, plus everything around it — the ``trace:`` registry, the
H2P concentration acceptance gate, deterministic repeat runs under ACB
predication, the converter CLI, and content-addressed cache keys.
"""

from __future__ import annotations

import os

import pytest

from repro import __main__ as cli
from repro.harness.runner import (
    normalized_run_key,
    prepare_run,
    resolve_workload,
    run_workload,
)
from repro.workloads.trace import (
    H2P_MIN_SHARE,
    TRACE_PREFIX,
    BranchRecord,
    TraceMeta,
    TraceReplayWorkload,
    build_trace_workload,
    is_trace_name,
    load_branch_trace,
    load_trace_workload,
    registered_traces,
    resolve_trace_path,
    summarize,
    trace_content_digest,
    trace_workload_names,
    write_trace,
)
from repro.workloads.workload import FunctionalExecutor

MINI_TRACES = ("h2p_loop", "gcc_like", "server_like", "mixed_small")

#: fast simulation windows for replay runs in unit-test time
FAST = dict(warmup=2500, measure=2500)


def replay_events(workload: TraceReplayWorkload, n: int) -> list:
    """First *n* ``(recorded_pc, taken)`` events of the replayed stream."""
    executor = FunctionalExecutor(workload)
    events = []
    pc = 0
    while len(events) < n:
        taken, next_pc, _mem = executor.step_fast(pc)
        if taken is not None and pc in workload.pc_map:
            events.append((workload.pc_map[pc], taken))
        pc = next_pc
    return events


class TestRegistry:
    def test_mini_traces_registered(self):
        registered = registered_traces()
        for name in MINI_TRACES:
            assert name in registered, f"{name} missing from tests/traces/"
            assert os.path.exists(registered[name])
        assert set(trace_workload_names()) >= {
            TRACE_PREFIX + name for name in MINI_TRACES
        }

    def test_is_trace_name(self):
        assert is_trace_name("trace:h2p_loop")
        assert not is_trace_name("lammps")
        assert not is_trace_name(123)

    def test_resolve_by_name_and_path(self, tmp_path):
        by_name = resolve_trace_path("trace:h2p_loop")
        assert by_name.endswith("h2p_loop.rbt.gz")
        path = str(tmp_path / "copy.rbt.gz")
        with open(path, "wb") as out:
            out.write(open(by_name, "rb").read())
        assert resolve_trace_path(f"trace:{path}") == path

    def test_unknown_reference_lists_known(self):
        with pytest.raises(KeyError, match="h2p_loop"):
            resolve_trace_path("trace:no_such_trace")

    def test_env_override(self, tmp_path, monkeypatch):
        src = resolve_trace_path("trace:h2p_loop")
        with open(tmp_path / "only_one.rbt.gz", "wb") as out:
            out.write(open(src, "rb").read())
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert set(registered_traces()) == {"only_one"}


class TestReconstruction:
    @pytest.mark.parametrize("name", MINI_TRACES)
    def test_exact_interleaving(self, name):
        """The replayed stream reproduces the recorded event sequence."""
        _, records = load_branch_trace(resolve_trace_path(TRACE_PREFIX + name))
        workload = load_trace_workload(TRACE_PREFIX + name)
        n = min(len(records), 3000)
        assert replay_events(workload, n) == [
            (rec.pc, rec.taken) for rec in records[:n]
        ]
        assert workload.inconsistent_edges == 0

    def test_replay_wraps_to_start(self):
        _, records = load_branch_trace(resolve_trace_path("trace:h2p_loop"))
        workload = load_trace_workload("trace:h2p_loop")
        total = len(records)
        events = replay_events(workload, total + 100)
        assert events[total:] == [(r.pc, r.taken) for r in records[:100]]

    def test_workload_shape(self):
        workload = load_trace_workload("trace:gcc_like")
        assert workload.category == "TRACE"
        assert workload.paper_tag == "trace"
        assert workload.name == "trace:gcc_like"
        assert workload.meta is not None and workload.meta.acb_scale >= 1
        assert workload.acb_scale == workload.meta.acb_scale
        assert len(workload.recorded_pcs) == len(workload.pc_map)
        assert len(workload.program) > len(workload.pc_map)

    def test_max_static_cap_drops_cold_pcs(self):
        records = [
            BranchRecord(0x100 + 8 * (i % 40), (i % 5) != 0, 0)
            for i in range(2000)
        ]
        meta = TraceMeta(name="capped", records=len(records))
        workload = build_trace_workload(meta, records, max_static=16)
        assert workload.dropped_static == 24
        assert len(workload.recorded_pcs) == 16

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_trace_workload(TraceMeta(name="none", records=0), [])


class TestH2PProfile:
    @pytest.mark.parametrize("name", MINI_TRACES)
    def test_mini_trace_concentration(self, name):
        """Top-32 static branches own >=80% of TAGE mispredictions."""
        _, records = load_branch_trace(resolve_trace_path(TRACE_PREFIX + name))
        summary = summarize(records)
        assert summary.h2p_profile_ok, (
            f"{name}: top-{summary.top_k} share {summary.top_k_share:.1%} "
            f"is below the H2P acceptance profile ({H2P_MIN_SHARE:.0%})"
        )
        assert summary.tage_mispredicts > 0
        assert 0.2 < summary.taken_rate < 0.8

    def test_format_mentions_verdict(self):
        _, records = load_branch_trace(resolve_trace_path("trace:h2p_loop"))
        text = summarize(records).format()
        assert "H2P profile ok" in text


class TestDeterminism:
    @pytest.mark.parametrize("config", ("baseline", "acb"))
    def test_two_runs_identical(self, config):
        """Fresh load + fresh run, twice, bit-identical SimStats."""
        outs = []
        for _ in range(2):
            workload = load_trace_workload("trace:mixed_small")
            result = run_workload(workload, config, **FAST)
            outs.append(result.stats.to_dict())
        assert outs[0] == outs[1]

    def test_acb_predicates_trace_hammocks(self):
        workload = load_trace_workload("trace:h2p_loop")
        result = run_workload(workload, "acb", **FAST)
        assert result.stats.predicated_instances > 0

    def test_trace_scheme_uses_proportional_scale(self):
        workload = load_trace_workload("trace:h2p_loop")
        _, scheme, _ = prepare_run(workload, "acb")
        from repro.harness.runner import reduced_acb_config

        expected_window = (
            reduced_acb_config().criticality_window
            * 10 // workload.acb_scale
        )
        assert scheme.config.criticality_window == expected_window


class TestCacheKeys:
    def test_key_carries_content_digest(self):
        key = normalized_run_key("trace:h2p_loop", "acb", warmup=100, measure=100)
        digest = trace_content_digest(resolve_trace_path("trace:h2p_loop"))
        assert key[0] == f"trace:h2p_loop@{digest}"

    def test_editing_trace_changes_key(self, tmp_path):
        path = str(tmp_path / "mut.rbt.gz")
        meta = TraceMeta(name="mut", records=0)
        write_trace(path, [BranchRecord(0x10, True, 0x20)], meta)
        key_a = normalized_run_key(f"trace:{path}", "acb", warmup=1, measure=1)
        write_trace(path, [BranchRecord(0x10, False, 0x20)], meta)
        key_b = normalized_run_key(f"trace:{path}", "acb", warmup=1, measure=1)
        assert key_a != key_b

    def test_suite_names_unaffected(self):
        key = normalized_run_key("lammps", "acb", warmup=100, measure=100)
        assert key[0] == "lammps"

    def test_resolve_workload_dispatches(self):
        assert isinstance(resolve_workload("trace:h2p_loop"), TraceReplayWorkload)
        assert not isinstance(resolve_workload("lammps"), TraceReplayWorkload)


class TestConverterCli:
    def _text_trace(self, tmp_path, lines: int = 900) -> str:
        path = str(tmp_path / "input.cbp")
        with open(path, "w") as out:
            for i in range(lines):
                out.write(f"0x{0x1000 + 8 * (i % 7):x} {'T' if i % 3 else 'N'}\n")
        return path

    def test_convert_writes_runnable_trace(self, tmp_path, capsys):
        src = self._text_trace(tmp_path)
        out = str(tmp_path / "converted.rbt.gz")
        rc = cli.main(["--no-cache", "convert-trace", src, "--out", out,
                       "--window", "500", "--offset", "100"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "records          500" in printed
        assert "top-32 share" in printed
        meta, records = load_branch_trace(out)
        assert meta.records == len(records) == 500
        assert meta.window_offset == 100
        assert meta.source_records == 900
        workload = load_trace_workload(f"trace:{out}")
        assert replay_events(workload, 50) == [
            (r.pc, r.taken) for r in records[:50]
        ]

    def test_stats_only_writes_nothing(self, tmp_path, capsys, monkeypatch):
        src = self._text_trace(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["--no-cache", "convert-trace", src, "--stats-only"])
        assert rc == 0
        assert "static branches" in capsys.readouterr().out
        assert not (tmp_path / ".repro_traces").exists()

    def test_bad_input_is_a_clean_error(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.rbt.gz")
        with open(bad, "wb") as out:
            out.write(b"\x1f\x8b not actually gzip")
        rc = cli.main(["--no-cache", "convert-trace", bad])
        assert rc == 2
        assert "convert-trace:" in capsys.readouterr().err

    def test_offset_past_end_is_a_clean_error(self, tmp_path, capsys):
        src = self._text_trace(tmp_path, lines=10)
        rc = cli.main(["--no-cache", "convert-trace", src, "--offset", "50"])
        assert rc == 2
        assert "past the end" in capsys.readouterr().err

    def test_run_command_accepts_trace_ref(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "1500")
        monkeypatch.setenv("REPRO_MEASURE", "1500")
        rc = cli.main(["--no-cache", "run", "trace:h2p_loop",
                       "--config", "baseline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:h2p_loop [TRACE] under baseline:" in out

    def test_run_command_rejects_unknown_trace(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "trace:definitely_missing"])
        assert "not a registered mini-trace" in capsys.readouterr().err
