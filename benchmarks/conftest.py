"""Shared helpers for the figure/table benchmark harness.

Each benchmark regenerates one table or figure of the paper through
:mod:`repro.harness.experiments`, checks the qualitative *shape* the paper
reports, and writes the formatted rows/series to
``benchmarks/results/<id>.txt`` (pytest captures stdout, so the files are
the durable record; EXPERIMENTS.md is compiled from them).

Workload selection defaults to the representative 12-workload subset;
``REPRO_SUITE=full`` runs all 70 (slower).  Simulation runs are memoized
in-process and persisted to the experiment database
(``.repro_store/experiments.sqlite`` by default, ``REPRO_STORE`` to move
it, ``REPRO_CACHE=0`` to disable), so shared (workload, config) pairs are
simulated once and repeated benchmark invocations skip already-simulated
cells.  Matrices fan out over ``REPRO_JOBS`` worker
processes; a per-session run manifest is printed at the end.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.cache import set_active_store
from repro.harness.parallel import session_summary, shutdown_pool
from repro.harness.reporting import summarize_session

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _experiment_store():
    """Install the experiment database for the whole benchmark session."""
    from repro.service.store import ExperimentStore

    previous = set_active_store(ExperimentStore.from_env())
    yield
    set_active_store(previous)
    shutdown_pool()


def pytest_terminal_summary(terminalreporter):
    summary = session_summary()
    if summary.matrices:
        terminalreporter.write_line(summarize_session(summary))


def report(experiment_id: str, text: str) -> None:
    """Persist one experiment's formatted output and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(text + "\n")
    print(f"\n[{experiment_id}]\n{text}")


def once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
