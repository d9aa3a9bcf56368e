"""Micro-ops die by reference count, never by the cyclic collector.

The lifetime rule in :mod:`repro.isa.dyninst`: the core cuts every link
that can close a reference cycle between micro-ops (``CYCLE_LINKS``) at the
point where it provably never reads it again.  These tests run real cores
with the collector off, then collect once under ``gc.DEBUG_SAVEALL``: any
:class:`DynInst` or :class:`RegionRecord` the collector finds was
unreachable yet still in a cycle, i.e. the rule was broken somewhere.  The
core itself stays referenced during the collection, so in-flight micro-ops
are reachable and never counted.  Once dropped, the core must not be
cyclic garbage either: its scheme refers back to it only weakly.

The last test restores a cut link by hand and checks that the invariant
checker (``debug_checks``) reports it.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import SKYLAKE_LIKE, Core
from repro.harness.runner import SCHEME_FACTORIES, prepare_run, resolve_workload
from repro.isa.dyninst import ST_DONE, ST_RETIRED
from repro.trace.config import TraceConfig
from repro.validate.checker import InvariantViolation

from tests.conftest import h2p_hammock_workload

WARMUP = MEASURE = 3000


@pytest.fixture
def collector_off():
    """Collector disabled for the test body; its state restored after."""
    enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()


def cyclic_garbage() -> Counter:
    """Type name → count of the objects one collection found unreachable."""
    kept = len(gc.garbage)
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage[kept:])
    finally:
        gc.set_debug(debug)
        del gc.garbage[kept:]


def assert_no_uop_garbage() -> None:
    garbage = cyclic_garbage()
    assert (garbage["DynInst"], garbage["RegionRecord"]) == (0, 0)


def make_core(workload: str, config: str, core_config=None) -> Core:
    w = resolve_workload(workload)
    cfg, scheme, predictor = prepare_run(w, config, core_config=core_config)
    return Core(w, cfg, scheme=scheme, predictor=predictor)


@pytest.mark.parametrize("workload", ["lammps", "gcc"])
@pytest.mark.parametrize("config", sorted(SCHEME_FACTORIES))
def test_no_cyclic_uop_garbage(collector_off, workload, config):
    core = make_core(workload, config)
    core.run_window(WARMUP, MEASURE)
    assert core.stats.instructions >= MEASURE
    assert_no_uop_garbage()
    # the scheme's back-reference is weak, so the finished core itself
    # (caches, predictor tables) dies by reference count too
    del core
    assert cyclic_garbage()["Core"] == 0


def test_no_cyclic_uop_garbage_when_stepped(collector_off):
    """``Core.step()`` runs the same stages as ``run()``'s inlined loop."""
    core = make_core("gcc", "acb")
    while core.stats.instructions < WARMUP + MEASURE:
        core.step()
    assert core.stats.predicated_instances > 0
    assert_no_uop_garbage()


def test_no_cyclic_uop_garbage_with_trace_log_and_checks(collector_off):
    """The trace ring and the retire log keep retired micro-ops alive;
    those references must not close cycles either, and the checker's own
    bookkeeping must not add any."""
    cfg = replace(SKYLAKE_LIKE, trace=TraceConfig(), debug_checks=True)
    core = make_core("lammps", "acb", core_config=cfg)
    log = core.enable_retire_log()
    core.run_window(WARMUP, MEASURE)
    assert core.stats.predicated_instances > 0
    assert len(log) > MEASURE and core.trace.uops_seen > len(log)
    assert_no_uop_garbage()
    core.checker.final_check()
    # the checker's back-reference is weak too
    del core, log
    assert cyclic_garbage()["Core"] == 0


def _restore_consumers(monkeypatch):
    orig = Core._complete

    def complete(self):
        orig(self)
        for dyn in self.rob:
            if dyn.state == ST_DONE and dyn.done_cycle == self.cycle:
                dyn.consumers = []

    monkeypatch.setattr(Core, "_complete", complete)


def _restore_prev_writer_at_retire(monkeypatch):
    orig = Core._retire

    def retire(self):
        head = list(self.rob)[: self._retire_width]
        orig(self)
        for dyn in head:
            if dyn.state == ST_RETIRED:
                dyn.prev_writer = dyn

    monkeypatch.setattr(Core, "_retire", retire)


def _restore_forced_producers_at_squash(monkeypatch):
    orig = Core._flush

    def flush(self, branch, push_history):
        squashed = list(self.fetchq)
        orig(self, branch, push_history)
        for dyn in squashed:
            dyn.forced_producers = [branch]

    monkeypatch.setattr(Core, "_flush", flush)


@pytest.mark.parametrize(
    "restore, message",
    [
        (_restore_consumers, "completed micro-op still holds its consumers"),
        (_restore_prev_writer_at_retire, "state-4 micro-op still holds prev_writer"),
        (_restore_forced_producers_at_squash,
         "state-5 micro-op still holds forced_producers"),
    ],
)
def test_checker_catches_a_restored_link(monkeypatch, restore, message):
    restore(monkeypatch)
    cfg = replace(SKYLAKE_LIKE, debug_checks=True)
    core = Core(h2p_hammock_workload(), cfg)
    with pytest.raises(InvariantViolation, match=message):
        core.run(1500)
