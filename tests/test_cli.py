"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_suite_lists_categories(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "ISPEC" in out and "Server" in out
        assert "lammps" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_bytes"] == 386

    def test_experiment_registry_covers_evaluation(self):
        for fig in ("fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"):
            assert fig in EXPERIMENTS
        for table in ("table1", "table2", "table3"):
            assert table in EXPERIMENTS

    def test_run_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "1500")
        monkeypatch.setenv("REPRO_MEASURE", "2000")
        assert main(["run", "lammps", "--config", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_compare_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "1500")
        monkeypatch.setenv("REPRO_MEASURE", "2000")
        assert main(["compare", "lammps", "baseline", "acb"]) == 0
        out = capsys.readouterr().out
        assert "vs first" in out

    def test_validate_reports_regions_opened(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main(["validate", "--seeds", "2", "--configs", "baseline,dmp",
                     "--repro-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("validate: OK — 2/2 seeds")
        assert lines[1] == "  regions opened by baseline: 0 on 0/2 seeds"
        opened, seeds = re.fullmatch(
            r"  regions opened by dmp: (\d+) on (\d)/2 seeds", lines[2]
        ).groups()
        assert int(opened) > 0 and int(seeds) > 0

    def test_validate_rejects_unknown_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--configs", "baseline,magic"])
        assert "unknown config 'magic'" in capsys.readouterr().err

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "quake3"])
