"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; ``tests/test_smoke.py`` checks
that the two agree and that every run prints all of them.  Every
workload prints every metric of its mode: an untraced run (``--trace 0``)
prints :data:`END_TO_END`, a traced run (``--trace 1``) prints
:data:`PER_LAYER`, with 0 for a layer metric the workload does not
exercise.
"""

from __future__ import annotations

from typing import Dict, Tuple

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    # engine (fig6_cold)
    "core.self_s": "s",
    "core.host_ns_per_uop": "ns",
    "core.sim_instr_per_s": "1/s",
    "core.uops_fetched": "count",
    "core.useful_uop_ratio": "ratio",
    "isa.self_s": "s",
    "isa.dyninst_per_instr": "ratio",
    "branch.self_s": "s",
    "branch.calls": "count",
    "branch.mpki": "1/kinstr",
    "memory.self_s": "s",
    "memory.calls": "count",
    "acb.self_s": "s",
    "acb.calls": "count",
    "acb.predicated_per_kinstr": "1/kinstr",
    "acb_speedup_err": "ratio",
    "acb_heldout_err": "ratio",
    "workloads.self_s": "s",
    "workloads.calls": "count",
    "workloads.build_ms": "ms",
    "harness.runner.prepare_ms": "ms",
    # lookup and persistence (store_regen)
    "harness.runner.self_s": "s",
    "harness.runner.lookup_us_p50": "us",
    "harness.runner.lookup_us_tail": "us",
    "harness.runner.lookup_calls": "count",
    "harness.runner.hit_ratio": "ratio",
    "harness.runner.write_us_p50": "us",
    "harness.parallel.self_s": "s",
    "harness.parallel.overhead_ms": "ms",
    "service.store.self_s": "s",
    "service.store.get_us_p50": "us",
    "service.store.get_us_tail": "us",
    "service.store.put_us_p50": "us",
    "service.store.put_us_tail": "us",
    "service.store.db_mb": "MB",
    # serving (service_mix)
    "service.app.self_s": "s",
    "service.app.submit_ms_p50": "ms",
    "service.app.runs_ms_p50": "ms",
    "service.app.run_detail_ms_p50": "ms",
    "service.app.status_ms_p50": "ms",
    "service.jobs.self_s": "s",
    "service.jobs.queue_wait_ms_p50": "ms",
    "service.jobs.cell_ms_p50": "ms",
    "service.store.query_ms_p50": "ms",
    "harness.distributed.self_s": "s",
    "harness.distributed.overhead_ms_per_cell": "ms",
    "harness.distributed.requeues": "count",
    # every workload
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: per-layer counts that depend only on the inputs: two traced runs with
#: the same seed must print them identically
DETERMINISTIC = (
    "core.uops_fetched", "core.useful_uop_ratio", "isa.dyninst_per_instr",
    "branch.calls", "branch.mpki", "memory.calls", "acb.calls",
    "acb.predicated_per_kinstr", "acb_speedup_err", "acb_heldout_err",
    "workloads.calls", "harness.runner.lookup_calls",
    "harness.runner.hit_ratio", "harness.distributed.requeues",
)


def complete(values: Dict[str, float], trace: bool) -> Dict[str, Tuple[float, str]]:
    """Attach units; a per-layer metric the workload never set reads 0."""
    catalogue = PER_LAYER if trace else END_TO_END
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")
    if not trace:
        missing = set(catalogue) - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in catalogue.items()}
