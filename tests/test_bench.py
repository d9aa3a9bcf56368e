"""Tests for the simulator bench subsystem (``python -m repro bench``).

The quick micro group (four tiny kernels, small windows) keeps every CLI
invocation here under a second while still exercising the full path:
target matrix → timed runs → schema-valid report → baseline comparison
with threshold exit codes.
"""

import gc
import json

import pytest

from repro.__main__ import main
from repro.bench import (
    bench_targets,
    compare_reports,
    run_bench,
    validate_report,
)
from repro.bench.compare import format_compare
from repro.bench.schema import SCHEMA_NAME, SCHEMA_VERSION
from repro.core import Core


@pytest.fixture(scope="module")
def micro_report():
    """One real quick-mode bench run over the micro kernels."""
    return run_bench(quick=True, tag="test", groups=["micro"])


def without_gc_collections(report):
    """A copy of *report* as written before ``gc_collections`` existed."""
    older = json.loads(json.dumps(report))
    for run in older["runs"]:
        del run["gc_collections"]
    return older


class TestTargets:
    def test_matrix_names_are_stable_across_modes(self):
        quick = {t.name for t in bench_targets(quick=True)}
        full = {t.name for t in bench_targets(quick=False)}
        assert quick <= full  # quick is a subset by name, never a rename
        assert any(name.startswith("fig6:") for name in quick)
        assert any(name.startswith("scheme:") for name in quick)
        assert any(name.startswith("micro:") for name in quick)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown bench group"):
            run_bench(quick=True, groups=["nonesuch"])


class TestSchema:
    def test_real_report_is_schema_valid(self, micro_report):
        assert validate_report(micro_report) == []
        assert micro_report["schema"] == SCHEMA_NAME
        assert micro_report["schema_version"] == SCHEMA_VERSION
        assert micro_report["quick"] is True
        assert len(micro_report["runs"]) == 4

    def test_report_round_trips_through_json(self, micro_report):
        clone = json.loads(json.dumps(micro_report))
        assert validate_report(clone) == []

    def test_violations_are_reported(self, micro_report):
        broken = json.loads(json.dumps(micro_report))
        del broken["runs"][0]["cycles"]
        broken["runs"][1]["name"] = broken["runs"][2]["name"]
        problems = validate_report(broken)
        assert any("cycles" in p for p in problems)
        assert any("duplicate" in p for p in problems)

    def test_newer_schema_version_rejected(self, micro_report):
        future = json.loads(json.dumps(micro_report))
        future["schema_version"] = SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_report(future))

    def test_runs_count_gc_collections(self, micro_report):
        for run in micro_report["runs"]:
            assert isinstance(run["gc_collections"], int)
            assert run["gc_collections"] >= 0

    def test_gc_collections_is_optional_and_type_checked(self, micro_report):
        """Reports written before the field existed stay valid (the
        committed baseline among them); a wrong type is flagged."""
        assert validate_report(without_gc_collections(micro_report)) == []
        broken = json.loads(json.dumps(micro_report))
        broken["runs"][0]["gc_collections"] = 1.5
        broken["runs"][1]["gc_collections"] = True
        problems = validate_report(broken)
        assert sum("'gc_collections'" in p for p in problems) == 2

    def test_gc_collections_counts_collections_inside_the_target(
        self, monkeypatch
    ):
        run_window = Core.run_window

        def collecting_run_window(self, warmup, measure):
            gc.collect()
            return run_window(self, warmup, measure)

        monkeypatch.setattr(Core, "run_window", collecting_run_window)
        report = run_bench(quick=True, tag="gc", groups=["micro"])
        assert all(run["gc_collections"] >= 1 for run in report["runs"])

    def test_simulation_outputs_are_deterministic(self, micro_report):
        """cycles/uops/instructions/ipc must be machine-independent: a
        second run of the same tree reproduces them exactly (the
        bit-identity invariant); only wall_s may differ."""
        again = run_bench(quick=True, tag="again", groups=["micro"])
        for first, second in zip(micro_report["runs"], again["runs"]):
            assert first["name"] == second["name"]
            for key in ("cycles", "uops", "instructions", "ipc"):
                assert first[key] == second[key], f"{first['name']}:{key}"


class TestMatrixGroup:
    @pytest.fixture(scope="class")
    def matrix_report(self):
        """One real quick-mode run of the matrix target."""
        return run_bench(quick=True, tag="test", groups=["matrix"])

    def test_matrix_targets_pinned(self):
        for quick in (True, False):
            names = {t.name: t for t in bench_targets(quick=quick)
                     if t.group == "matrix"}
            assert set(names) == {"matrix:fig6:scalar"}
            for t in names.values():
                assert t.matrix_workloads and t.matrix_configs

    def test_matrix_report_is_schema_valid(self, matrix_report):
        assert validate_report(matrix_report) == []
        runs = {r["name"]: r for r in matrix_report["runs"]}
        assert set(runs) == {"matrix:fig6:scalar"}
        for run in runs.values():
            assert run["cells"] == 8  # 4 quick fig6 workloads × 2 configs
            assert run["cells_per_s"] > 0

    def test_v1_baseline_still_accepted(self, micro_report):
        """A pre-matrix (schema v1) baseline — no cells/cells_per_s keys —
        must stay both schema-valid and comparable, so bumping the
        schema does not orphan committed baselines."""
        v1 = json.loads(json.dumps(micro_report))
        v1["schema_version"] = 1
        for run in v1["runs"]:
            for key in ("cells", "cells_per_s"):
                run.pop(key, None)
        assert validate_report(v1) == []
        result = compare_reports(v1, micro_report)
        assert result.overall == pytest.approx(1.0)

    def test_optional_matrix_keys_are_validated(self, matrix_report):
        broken = json.loads(json.dumps(matrix_report))
        broken["runs"][0]["cells"] = "eight"
        broken["runs"][0]["cells_per_s"] = None
        problems = validate_report(broken)
        assert any("'cells'" in p for p in problems)
        assert any("'cells_per_s'" in p for p in problems)


class TestCompare:
    def _scaled(self, report, factor):
        clone = json.loads(json.dumps(report))
        for run in clone["runs"]:
            run["cycles_per_s"] = run["cycles_per_s"] * factor
        return clone

    def test_self_compare_is_unity(self, micro_report):
        result = compare_reports(micro_report, micro_report)
        assert len(result.rows) == len(micro_report["runs"])
        assert result.overall == pytest.approx(1.0)
        assert not result.regressed(threshold=1.5)

    def test_regression_detected_past_threshold(self, micro_report):
        # baseline claims 2x the throughput → new tree looks 2x slower
        fast_baseline = self._scaled(micro_report, 2.0)
        result = compare_reports(fast_baseline, micro_report)
        assert result.overall == pytest.approx(0.5, rel=1e-6)
        assert result.regressed(threshold=1.5)
        assert not result.regressed(threshold=2.5)

    def test_unmatched_and_mismatched_runs_flagged(self, micro_report):
        baseline = json.loads(json.dumps(micro_report))
        baseline["runs"][0]["name"] = "micro:retired-kernel"
        baseline["runs"][1]["measure"] += 1
        result = compare_reports(baseline, micro_report)
        assert result.only_in_baseline == ["micro:retired-kernel"]
        assert len(result.only_in_new) == 1
        assert len(result.window_mismatch) == 1
        text = format_compare(result)
        assert "windows differ" in text
        assert "micro:retired-kernel" in text

    def test_table_prints_gc_collections(self, micro_report):
        older = without_gc_collections(micro_report)
        first = micro_report["runs"][0]
        row = next(
            line for line in format_compare(
                compare_reports(older, micro_report)).splitlines()
            if line.startswith(first["name"])
        )
        assert row.split()[-1] == str(first["gc_collections"])
        row = next(
            line for line in format_compare(
                compare_reports(micro_report, older)).splitlines()
            if line.startswith(first["name"])
        )
        assert row.split()[-1] == "-"


class TestCli:
    def test_bench_writes_schema_valid_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        assert main(["bench", "--quick", "--groups", "micro",
                     "--tag", "test", "--out", str(out)]) == 0
        assert "4 runs" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert validate_report(report) == []
        assert report["tag"] == "test"

    def test_compare_pass_path(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--quick", "--groups", "micro",
                     "--out", str(baseline)]) == 0
        assert main(["bench", "--quick", "--groups", "micro",
                     "--out", str(tmp_path / "new.json"),
                     "--compare", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "geomean [micro]" in out
        assert "geomean [overall" in out

    def test_compare_fail_path(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--quick", "--groups", "micro",
                     "--out", str(baseline)]) == 0
        # rewrite the baseline to claim 100x throughput: the fresh run
        # must trip the regression gate at any sane threshold
        report = json.loads(baseline.read_text())
        for run in report["runs"]:
            run["cycles_per_s"] = run["cycles_per_s"] * 100.0
        baseline.write_text(json.dumps(report))
        code = main(["bench", "--quick", "--groups", "micro",
                     "--out", str(tmp_path / "new.json"),
                     "--compare", str(baseline), "--threshold", "1.5"])
        assert code == 1
        capsys.readouterr()

    def test_invalid_baseline_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"something-else\"}")
        assert main(["bench", "--quick", "--groups", "micro",
                     "--out", str(tmp_path / "new.json"),
                     "--compare", str(bad)]) == 2
        assert "not a valid bench report" in capsys.readouterr().err

    def test_missing_baseline_rejected(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--groups", "micro",
                     "--out", str(tmp_path / "new.json"),
                     "--compare", str(tmp_path / "nope.json")]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_committed_ci_baseline_is_valid(self):
        """The baseline CI compares against must stay schema-valid and
        quick-mode (so its windows match the bench-smoke invocation)."""
        import os

        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        report = json.loads(open(path).read())
        assert validate_report(report) == []
        assert report["quick"] is True
