"""Tests for the experiment harness (runner, reporting, drivers)."""

import os
import re
from dataclasses import replace

import pytest

from repro.harness import (
    compare_configs,
    format_table,
    geomean,
    pct,
    per_category,
    run_workload,
)
from repro.harness.experiments import (
    eq1_profitability,
    experiment_workloads,
    table1_storage,
    table2_core_params,
    table3_workloads,
)
from repro.harness.runner import (
    ACB_VARIANTS,
    SCHEME_FACTORIES,
    config_problem,
    prepare_run,
    reduced_acb_config,
)
from tests.conftest import h2p_hammock_workload


FAST = dict(warmup=1000, measure=2500)


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([1.0]) == 1.0

    def test_geomean_bounded(self):
        vals = [0.5, 1.3, 2.0]
        g = geomean(vals)
        assert min(vals) <= g <= max(vals)

    def test_pct(self):
        assert pct(1.08) == "+8.0%"
        assert pct(0.95) == "-5.0%"

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "33" in lines[3]

    def test_per_category(self):
        out = per_category({"x": 2.0, "y": 8.0, "z": 3.0},
                           {"x": "A", "y": "A", "z": "B"})
        assert out["A"] == pytest.approx(4.0)
        assert out["B"] == pytest.approx(3.0)


class TestRunner:
    def test_all_configs_run(self):
        workload = h2p_hammock_workload()
        for config in SCHEME_FACTORIES:
            result = run_workload(h2p_hammock_workload(), config, **FAST)
            assert result.stats.instructions >= FAST["measure"], config

    def test_unknown_config_raises(self):
        with pytest.raises(ValueError):
            run_workload(h2p_hammock_workload(), "magic", **FAST)

    def test_acb_variants_apply_their_overrides(self):
        workload = h2p_hammock_workload()
        for name, overrides in ACB_VARIANTS.items():
            _, scheme, _ = prepare_run(workload, name)
            assert scheme.config == replace(reduced_acb_config(), **overrides), name

    def test_oracle_bp_forces_the_oracle_predictor(self):
        workload = h2p_hammock_workload()
        for config, predictor in (("oracle-bp", None), ("oracle-bp@tage", "gshare")):
            _, scheme, chosen = prepare_run(workload, config, predictor=predictor)
            assert scheme is None and chosen == "oracle"
        assert prepare_run(workload, "acb@bullseye", predictor="tage")[2] == "bullseye"

    @pytest.mark.parametrize("config,predictor,needle", [
        ("magic", None, "unknown config 'magic'"),
        ("acb@nope", None, "unknown predictor 'nope'"),
        ("acb", "nope", "unknown predictor 'nope'"),
    ])
    def test_one_message_on_every_surface(self, config, predictor, needle):
        """The CLI, the HTTP API and prepare_run reject a bad name with the
        text of the one check."""
        import argparse

        from repro.__main__ import _config_ref
        from repro.service.app import BadRequest, parse_matrix

        problem = config_problem(config, predictor)
        assert needle in problem
        with pytest.raises(ValueError, match=re.escape(problem)):
            prepare_run(h2p_hammock_workload(), config, predictor=predictor)
        cell = {"workload": "lammps", "config": config, "predictor": predictor}
        with pytest.raises(BadRequest) as exc:
            parse_matrix({"cells": [cell]})
        assert exc.value.problems == [f"cells[0]: {problem}"]
        if predictor is None:
            with pytest.raises(argparse.ArgumentTypeError, match=re.escape(problem)):
                _config_ref(config)

    def test_oracle_bp_has_no_flushes(self):
        result = run_workload(h2p_hammock_workload(), "oracle-bp", **FAST)
        assert result.stats.flushes == 0

    def test_acb_beats_baseline_on_h2p(self):
        base = run_workload(h2p_hammock_workload(), "baseline", warmup=4000, measure=4000)
        acb = run_workload(h2p_hammock_workload(), "acb", warmup=4000, measure=4000)
        assert acb.stats.cycles < base.stats.cycles

    def test_core_scale(self):
        narrow = run_workload(h2p_hammock_workload(ilp=10), "baseline", **FAST)
        wide = run_workload(h2p_hammock_workload(ilp=10), "baseline", core_scale=2, **FAST)
        assert wide.stats.cycles < narrow.stats.cycles

    def test_compare_configs_shape(self):
        out = compare_configs(["lammps"], ["baseline", "acb"], warmup=1500, measure=2000)
        assert set(out) == {"lammps"}
        assert set(out["lammps"]) == {"baseline", "acb"}

    def test_run_by_suite_name(self):
        result = run_workload("lammps", "baseline", **FAST)
        assert result.category == "Server"


class TestExperimentSelection:
    def test_default_is_representative(self):
        os.environ.pop("REPRO_SUITE", None)
        names = experiment_workloads()
        assert len(names) < 20

    def test_full_suite_env(self):
        os.environ["REPRO_SUITE"] = "full"
        try:
            assert len(experiment_workloads()) == 70
        finally:
            del os.environ["REPRO_SUITE"]

    def test_explicit_subset_passthrough(self):
        assert experiment_workloads(["a", "b"]) == ["a", "b"]


class TestStaticExperiments:
    def test_eq1_worked_examples(self):
        """The paper's worked example: body 16 needs ~10%, body 32 ~20%."""
        model = eq1_profitability()
        assert model["example_body16_rate"] == pytest.approx(0.10)
        assert model["example_body32_rate"] == pytest.approx(0.20)

    def test_table1_total(self):
        report = table1_storage()
        assert report["total_bytes"] == report["paper_total_bytes"] == 386

    def test_table2_parameters(self):
        table = table2_core_params()
        assert "Branch predictor" in table

    def test_table3_seventy_workloads(self):
        cats = table3_workloads()
        assert sum(len(v) for v in cats.values()) == 70
