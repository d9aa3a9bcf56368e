"""fig6_cold: the Fig. 6 matrix simulated cold, one fresh process per pass.

Every pass is a new interpreter that imports the program, builds the
drawn workloads (its set-up), checks that no result cache or store is
installed and that the run memo is empty, and then runs the cells one
``run_matrix`` call at a time on the serial backend.  The parent times
set-up from spawn to the child's ``ready`` line and reads each cell's
latency, stats digest and counters back from a JSON file.

Cells: the paper's 12 ``REPRESENTATIVE`` workloads plus 12 held-out
suite workloads drawn from the seed (two per category), each under
``baseline`` and ``acb`` at the harness default window.  Before each
cell, and once after the last, the child runs the host speed probe
(``common.probe``); each cell's latency is scaled by the probes around it.

Run a child by hand with ``python3 perfbench/fig6_cold.py --child SPEC``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import (  # noqa: E402
    FIG6_CONFIGS,
    FIG6_WINDOW,
    PAPER_ACB_SPEEDUP,
    TINY_WINDOW,
)

#: set-up-only children per run; ``setup_s`` is their median
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


def plan_cells(seed: int, smoke: bool) -> Tuple[List[Tuple], List[str]]:
    """``(cells, paper workloads)``: the paper subset, then the held-out draw."""
    import random

    from repro.workloads import REPRESENTATIVE

    paper = list(REPRESENTATIVE)
    heldout = common.stratified_draw(random.Random(seed), 2, exclude=paper)
    window = FIG6_WINDOW
    if smoke:
        paper, heldout = paper[:2], heldout[:2]
        window = TINY_WINDOW
    cells = [(w, c, *window) for w in paper + heldout for c in FIG6_CONFIGS]
    return cells, paper


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _assert_cold() -> None:
    """No memo entries and no result cache or store before timing."""
    import importlib

    from repro.harness import runner

    if runner.memo_size():
        raise RuntimeError(f"run memo holds {runner.memo_size()} entries")
    for module in ("repro.harness.cache", "repro.harness.runner"):
        mod = importlib.import_module(module)
        for getter in ("get_active_cache", "get_active_store"):
            fn = getattr(mod, getter, None)
            if fn is not None and fn() is not None:
                raise RuntimeError(f"{module}.{getter}() is installed")


def child(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    common.scrub_own_env()
    common.import_program()
    from repro.harness import parallel
    from repro.harness.runner import resolve_workload

    for name in dict.fromkeys(cell[0] for cell in spec["cells"]):
        resolve_workload(name)
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    _assert_cold()
    tracer = profile = None
    if spec["trace"]:
        import cProfile

        from tracing import Tracer, install_harness_spans

        tracer = Tracer()
        hits = install_harness_spans(tracer)
        profile = cProfile.Profile()
    out: Dict = {"cells": [], "probes": []}
    for workload, config, warmup, measure in spec["cells"]:
        out["probes"].append(common.probe())
        request = parallel.RunRequest(workload, config, warmup=warmup,
                                      measure=measure)
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        (result,) = parallel.run_matrix([request], backend="serial")
        elapsed = time.perf_counter() - t0
        if profile is not None:
            profile.disable()
        stats = result.stats
        out["cells"].append({
            "id": common.cell_id(workload, config, warmup, measure),
            "s": elapsed,
            "digest": common.stats_digest(stats.to_dict()),
            "window": warmup + measure,
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "fetched": stats.fetched,
            "retired_uops": stats.retired_uops,
            "mispredicts": stats.mispredicts,
            "predicated": stats.predicated_instances,
        })
    out["probes"].append(common.probe())
    # the pass's time is its cells' time; the checks above are not timed
    out["wall_s"] = sum(cell["s"] for cell in out["cells"])
    if profile is not None:
        tracer.restore()
        out["trace"] = _trace_summary(tracer, hits, profile, out["wall_s"])
    out["peak_rss_mb"] = common.peak_rss_mb_self()
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


def _trace_summary(tracer, hits, profile, wall_s: float) -> Dict:
    import pstats

    from tracing import function_calls, harness_metrics, profile_metrics

    stats = pstats.Stats(profile).stats
    metrics, attributed = profile_metrics(stats)
    metrics.update(harness_metrics(tracer, hits))
    metrics["unattributed_s"] = max(0.0, wall_s - attributed)
    return {"metrics": metrics,
            "dyninst": function_calls(stats, "repro/isa/dyninst.py", "__init__")}


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _spawn(tmp: str, index: int, cells, mode: str, trace: bool) -> Dict:
    spec_path = os.path.join(tmp, f"spec{index}.json")
    out_path = os.path.join(tmp, f"out{index}.json")
    with open(spec_path, "w") as fh:
        json.dump({"cells": cells, "mode": mode, "trace": trace,
                   "out": out_path}, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", spec_path],
        stdout=subprocess.PIPE, env=common.scrubbed_env(), cwd=common.ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"fig6 child ({mode}) failed with exit code {code}")
    result = {"setup_s": setup_s}
    if mode == "pass":
        with open(out_path) as fh:
            result.update(json.load(fh))
    return result


def run(seed: int, seconds: float, trace: bool, smoke: bool):
    cells, paper = plan_cells(seed, smoke)
    pins = common.load_pins("tiny_cells" if smoke else "fig6_cells")
    tmp = common.make_tmpdir("fig6_")
    try:
        setups, setup_probes = [], []
        for i in range(SETUP_REPEATS):
            setup_probes.append(common.probe())
            setups.append(_spawn(tmp, i, cells, "setup", False)["setup_s"])
        setup_probes.append(common.probe())
        passes: List[Dict] = []
        started = time.perf_counter()
        if trace:
            passes.append(_spawn(tmp, 10, cells, "pass", False))
            passes.append(_spawn(tmp, 11, cells, "pass", True))
        else:
            while True:
                passes.append(_spawn(tmp, 10 + len(passes), cells, "pass", False))
                elapsed = time.perf_counter() - started
                mean = elapsed / len(passes)
                if elapsed + mean > seconds + mean / 2:
                    break
    finally:
        common.remove_tmpdir(tmp)

    attempted = failed = 0
    mismatches = []
    for p in passes:
        for cell in p["cells"]:
            attempted += 1
            if pins.get(cell["id"]) != cell["digest"]:
                failed += 1
                mismatches.append(cell["id"])
    raw = [c["s"] for p in passes for c in p["cells"]]
    latencies = [s for p in passes for s in common.host_scaled(
        [c["s"] for c in p["cells"]], p["probes"], 1)]
    ref = passes[0]
    speedup = _speedups(ref["cells"], paper)
    notes = {
        "passes": len(passes),
        "cells_per_pass": len(cells),
        "acb_geomean_paper_subset": round(speedup[0], 6),
        "acb_geomean_heldout": round(speedup[1], 6),
    }
    if mismatches:
        notes["mismatched_cells"] = ",".join(mismatches[:8])
    if not trace:
        value, pct, n = common.tail([s * 1e3 for s in latencies])
        notes["request_tail_ms"] = f"p{pct:.1f} of {n} cell latencies"
        speed = common.host_speed([x for p in passes for x in p["probes"]])
        notes["host_speed"] = round(speed, 4)
        notes["raw setup_s / cells_per_s / request_p50_ms"] = "%.4g / %.4g / %.4g" % (
            common.p50(setups), len(raw) / sum(raw), common.p50(raw) * 1e3)
        metrics = {
            "setup_s": common.p50(common.host_scaled(setups, setup_probes, 1)),
            "cells_per_s": len(latencies) / sum(latencies),
            "request_p50_ms": common.p50(latencies) * 1e3,
            "request_tail_ms": value,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
    else:
        metrics = _layer_metrics(ref, passes[1], speedup)
    return not mismatches, attempted, failed, metrics, notes


def _speedups(cells: List[Dict], paper: List[str]) -> Tuple[float, float]:
    """ACB geomean speedup (IPC ratio) on the paper subset and held-out."""
    ipc = {}
    for cell in cells:
        workload, config = cell["id"].split("|")[:2]
        ipc[(workload, config)] = cell["instructions"] / cell["cycles"]
    workloads = dict.fromkeys(w for w, _ in ipc)
    ratio = {w: ipc[(w, "acb")] / ipc[(w, "baseline")] for w in workloads}
    return (common.geomean(ratio[w] for w in workloads if w in paper),
            common.geomean(ratio[w] for w in workloads if w not in paper))


def _layer_metrics(ref: Dict, traced: Dict, speedup) -> Dict[str, float]:
    trace = traced["trace"]
    cells = traced["cells"]
    instructions = sum(c["instructions"] for c in cells)
    window = sum(c["window"] for c in cells)
    fetched = sum(c["fetched"] for c in cells)
    out = dict(trace["metrics"])
    out.update({
        "core.host_ns_per_uop": ref["wall_s"] * 1e9 / max(1, trace["dyninst"]),
        "core.sim_instr_per_s": window / ref["wall_s"],
        "core.uops_fetched": fetched,
        "core.useful_uop_ratio":
            sum(c["retired_uops"] for c in cells) / max(1, fetched),
        "isa.dyninst_per_instr": trace["dyninst"] / max(1, window),
        "branch.mpki":
            1e3 * sum(c["mispredicts"] for c in cells) / max(1, instructions),
        "acb.predicated_per_kinstr":
            1e3 * sum(c["predicated"] for c in cells) / max(1, instructions),
        "acb_speedup_err": abs(speedup[0] - PAPER_ACB_SPEEDUP),
        "acb_heldout_err": abs(speedup[1] - PAPER_ACB_SPEEDUP),
        "trace_overhead_ratio": traced["wall_s"] / ref["wall_s"],
    })
    return out


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        raise SystemExit(child(sys.argv[2]))
    print("usage: fig6_cold.py --child SPEC (run workloads through run.py)",
          file=sys.stderr)
    raise SystemExit(2)
