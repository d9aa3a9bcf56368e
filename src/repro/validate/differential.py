"""Differential cross-check: golden vs. timing-engine retirement traces.

One :func:`check_workload` call runs a workload through the golden in-order
model and through any number of timing configurations (baseline OOO,
OOO+ACB, …) with the invariant checker armed, then verifies that every
configuration retired the identical architectural trace.  Any discrepancy —
a trace mismatch, an invariant violation, or a pipeline deadlock — comes
back as a structured :class:`ValidationFailure` the fuzz driver can shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.core import Core, CoreConfig, DeadlockError
from repro.harness.runner import prepare_run
from repro.validate.checker import InvariantViolation
from repro.validate.events import RetireEvent, diff_traces
from repro.validate.golden import GoldenExecutor
from repro.workloads import Workload

#: configurations the validator exercises by default: the plain OOO machine,
#: the full ACB mechanism (the paper's headline configuration), ACB over the
#: dynamic merge-point learner, and ACB over the Bullseye H2P predictor — the
#: whole scheme space has to retire the identical architectural trace.
DEFAULT_CONFIGS = ("baseline", "acb", "acb-dmp-reconv", "acb@bullseye")


@dataclass
class ValidationFailure:
    """One reproducible validation discrepancy."""

    kind: str          # "mismatch" | "invariant" | "deadlock" | "error"
    config: str        # timing configuration that failed
    detail: str        # human-readable description
    workload: str = ""

    def describe(self) -> str:
        return f"[{self.kind}] {self.workload} × {self.config}: {self.detail}"


@dataclass
class ConfigTrace:
    """Retirement trace plus bookkeeping from one timing run."""

    config: str
    trace: List[RetireEvent]
    checker_summary: Dict[str, int]
    predicated_instances: int = 0
    failure: Optional[ValidationFailure] = None


def run_config_trace(
    workload: Workload,
    config: str,
    instructions: int,
    core_config: Optional[CoreConfig] = None,
    debug_checks: bool = True,
) -> ConfigTrace:
    """Run *workload* under *config* and capture its architectural trace.

    *config* is any harness configuration name, ``@<predictor>`` spellings
    included: the architectural trace must stay identical no matter which
    scheme or predictor steers speculation.
    """
    cfg, scheme, predictor = prepare_run(workload, config, core_config=core_config)
    if debug_checks and not cfg.debug_checks:
        cfg = replace(cfg, debug_checks=True)
    core = Core(workload, cfg, scheme=scheme, predictor=predictor)
    trace = core.enable_arch_trace()
    out = ConfigTrace(config=config, trace=trace, checker_summary={})
    try:
        core.run(instructions)
        if core.checker is not None:
            core.checker.final_check()
    except InvariantViolation as exc:
        out.failure = ValidationFailure(
            kind="invariant", config=config, detail=str(exc), workload=workload.name
        )
    except DeadlockError as exc:
        out.failure = ValidationFailure(
            kind="deadlock", config=config, detail=str(exc), workload=workload.name
        )
    if core.checker is not None:
        out.checker_summary = core.checker.summary()
    out.predicated_instances = core.stats.predicated_instances
    return out


def check_workload(
    workload: Workload,
    instructions: int = 1200,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    core_config: Optional[CoreConfig] = None,
    debug_checks: bool = True,
    regions: Optional[Dict[str, int]] = None,
) -> Optional[ValidationFailure]:
    """Cross-check golden vs. every timing configuration on one workload.

    Returns ``None`` when everything agrees, else the first failure found.
    When *regions* is given, it records each configuration's count of
    predicated regions opened.
    Each configuration's trace is compared against the golden trace truncated
    to the same length (runs stop mid-retire-group, so a config may retire a
    handful of events past the instruction budget).
    """
    golden = GoldenExecutor(workload)
    for config in configs:
        run = run_config_trace(
            workload, config, instructions,
            core_config=core_config, debug_checks=debug_checks,
        )
        if regions is not None:
            regions[config] = run.checker_summary.get("regions_opened", 0)
        if run.failure is not None:
            return run.failure
        if len(run.trace) < instructions:
            return ValidationFailure(
                kind="mismatch",
                config=config,
                detail=(
                    f"engine retired only {len(run.trace)} architectural "
                    f"instructions of the {instructions} requested"
                ),
                workload=workload.name,
            )
        if len(golden.trace) < len(run.trace):
            golden.run(len(run.trace) - len(golden.trace))
        mismatch = diff_traces(
            golden.trace[: len(run.trace)], run.trace,
            left_name="golden", right_name=config,
        )
        if mismatch is not None:
            return ValidationFailure(
                kind="mismatch",
                config=config,
                detail=mismatch.describe(),
                workload=workload.name,
            )
    return None
