"""Smoke-size self-test of the benchmark.

    python3 -m pytest -q perfbench/tests

Runs every workload with ``--smoke`` (tiny inputs, about a minute in
all), untraced and traced, and checks that each run prints every name of
``BENCHMARK.json`` with its unit, that the names are well formed, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, seconds=2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_catalogue():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert set(metrics.DETERMINISTIC) <= set(metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fig6_cold", "store_regen", "service_mix"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    spec = _spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, name


def test_refuses_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "fig6_cold", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["fig6_cold", "store_regen", "service_mix"])
def test_deterministic_counts_repeat(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/check_repeat.py", "--workload", workload,
         "--seed", "3", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=340,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
