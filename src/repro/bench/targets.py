"""The pinned bench target matrix.

Four groups, chosen so a single report answers the questions we actually
ask of it:

* ``fig6`` — the Figure 6 smoke set (the 12-workload representative subset
  × baseline/ACB at the harness default windows): end-to-end throughput on
  the workloads every evaluation matrix is built from.  This is the group
  the repository's headline cycles/sec number comes from.
* ``scheme`` — one workload under each of the paper's seven comparison
  schemes: catches slowdowns confined to one scheme's machinery.
* ``micro`` — per-pipeline-stage stressors (:mod:`repro.bench.micro`):
  localizes a regression to fetch/issue/memory/predication before
  profiling.
* ``trace`` — a committed mini-trace replayed under baseline/ACB
  (:mod:`repro.workloads.trace`): times the trace-reconstruction path,
  whose programs are shaped by recorded control flow rather than the
  synthetic generator.
* ``frontier`` — one frontier workload under the dynamic-reconvergence
  and Bullseye backends (:mod:`repro.workloads.frontier`): times the
  merge-point learner's retired-stream scanning and the long-history
  predictor, neither of which the other groups exercise.
* ``matrix`` — end-to-end ``run_matrix`` over the fig6 cells under serial
  dispatch, reported as cells/sec: what the harness around the engine
  (lookup, dedup, manifests) costs on top of the simulations.

``quick=True`` shrinks the matrix (fewer workloads, smaller windows) to a
CI-sized smoke run.  Target *names* are stable across quick and full modes
so ``--compare`` matches runs by name; the windows ride along in each run
record and the comparison warns when they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.workloads import Workload

#: The paper's comparison points (Figure 6/8/9/11 configurations).
SCHEME_SWEEP = ("baseline", "oracle-bp", "acb", "dmp", "dmp-pbh", "dhp", "wish")

#: Workload the per-scheme sweep runs on (a named paper outlier with real
#: predication activity).
SCHEME_WORKLOAD = "lammps"


@dataclass(frozen=True)
class BenchTarget:
    """One timed simulation: a workload under a configuration and window."""

    name: str                 # stable identifier, e.g. ``fig6:lammps:acb``
    group: str                # fig6 | scheme | micro | trace | frontier | matrix
    workload: str             # suite name, or micro kernel name
    config: str               # scheme configuration (repro.harness.runner)
    warmup: int
    measure: int
    #: factory for non-suite workloads (micro kernels); ``None`` loads
    #: ``workload`` from the suite.
    factory: Optional[Callable[[], Workload]] = None
    #: matrix targets: when non-empty, the target times one end-to-end
    #: ``run_matrix`` over ``matrix_workloads × matrix_configs`` instead of
    #: a single core run; ``workload``/``config`` become summary labels.
    matrix_workloads: tuple = ()
    matrix_configs: tuple = ()


def bench_targets(quick: bool = False) -> List[BenchTarget]:
    """The pinned target list for one bench invocation."""
    from repro.bench.micro import MICRO_WORKLOADS
    from repro.harness.runner import default_measure, default_warmup
    from repro.workloads import REPRESENTATIVE

    targets: List[BenchTarget] = []

    fig6_names = REPRESENTATIVE[:4] if quick else REPRESENTATIVE
    fig6_warmup = 3000 if quick else default_warmup()
    fig6_measure = 3000 if quick else default_measure()
    for name in fig6_names:
        for config in ("baseline", "acb"):
            targets.append(BenchTarget(
                name=f"fig6:{name}:{config}", group="fig6",
                workload=name, config=config,
                warmup=fig6_warmup, measure=fig6_measure,
            ))

    scheme_warmup, scheme_measure = (2000, 2000) if quick else (8000, 8000)
    for config in SCHEME_SWEEP:
        targets.append(BenchTarget(
            name=f"scheme:{SCHEME_WORKLOAD}:{config}", group="scheme",
            workload=SCHEME_WORKLOAD, config=config,
            warmup=scheme_warmup, measure=scheme_measure,
        ))

    from repro.workloads.trace import load_trace_workload, registered_traces

    if "h2p_loop" in registered_traces():
        trace_warmup, trace_measure = (2000, 2000) if quick else (8000, 8000)
        for config in ("baseline", "acb"):
            targets.append(BenchTarget(
                name=f"trace:h2p_loop:{config}", group="trace",
                workload="trace:h2p_loop", config=config,
                warmup=trace_warmup, measure=trace_measure,
                factory=lambda: load_trace_workload("trace:h2p_loop"),
            ))

    from repro.workloads.frontier import load_frontier_workload

    frontier_warmup, frontier_measure = (2000, 2000) if quick else (8000, 8000)
    for config in ("acb-dmp-reconv", "acb@bullseye"):
        targets.append(BenchTarget(
            name=f"frontier:frontier_far_merge:{config}", group="frontier",
            workload="frontier_far_merge", config=config,
            warmup=frontier_warmup, measure=frontier_measure,
            factory=lambda: load_frontier_workload("frontier_far_merge"),
        ))

    # end-to-end run_matrix throughput over the fig6 cells.  jobs is pinned
    # to 1 inside the runner so this times the engine, not the worker pool.
    targets.append(BenchTarget(
        name="matrix:fig6:scalar", group="matrix",
        workload="representative", config="baseline+acb",
        warmup=fig6_warmup, measure=fig6_measure,
        matrix_workloads=tuple(fig6_names),
        matrix_configs=("baseline", "acb"),
    ))

    micro_warmup, micro_measure = (1000, 4000) if quick else (2000, 12000)
    for kernel, factory in MICRO_WORKLOADS.items():
        config = "acb" if kernel == "predication-hammock" else "baseline"
        targets.append(BenchTarget(
            name=f"micro:{kernel}", group="micro",
            workload=kernel, config=config,
            warmup=micro_warmup, measure=micro_measure,
            factory=factory,
        ))

    return targets
