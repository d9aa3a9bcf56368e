"""Single-run driver: workload × configuration → statistics.

Every experiment in the paper reduces to comparing named *configurations*
over workloads.  A configuration bundles a predication scheme, a branch
predictor, and a core scale factor.  Runs use trace-slice methodology: a
warm-up window (caches, predictor, ACB tables, Dynamo) followed by a fresh
measurement window.

This module is the only one that resolves a configuration name:
:func:`config_problem` validates it, :func:`canonical_config` folds its
spellings together, and :func:`prepare_run` builds the core from it.

Window sizes default to the reduced scale of DESIGN.md §6 and can be
overridden through the ``REPRO_WARMUP`` / ``REPRO_MEASURE`` environment
variables (or per call).

Completed runs are memoized in-process and, when an experiment store is
installed via :func:`repro.harness.cache.set_active_store`, persisted to
its SQLite database so repeated invocations skip already-simulated cells.
Both layers share the same *normalized* key (see
:func:`normalized_run_key`): configurations that denote the identical
simulation — e.g. ``oracle-bp`` versus ``baseline`` with an explicit
``predictor="oracle"`` — collapse to one entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

from repro.acb import AcbConfig, AcbScheme
from repro.baselines import DhpScheme, DmpPbhScheme, DmpScheme, WishScheme
from repro.branch import PREDICTORS
from repro.core import SKYLAKE_LIKE, Core, CoreConfig, scaled
from repro.core.predication import PredicationScheme
from repro.core.stats import SimStats
from repro.harness.cache import get_active_store
from repro.workloads import Workload, load_suite
from repro.workloads.trace import (
    TraceReplayWorkload,
    is_trace_name,
    load_trace_workload,
    resolve_trace_path,
    trace_content_digest,
)


def default_warmup() -> int:
    return int(os.environ.get("REPRO_WARMUP", 16_000))


def default_measure() -> int:
    return int(os.environ.get("REPRO_MEASURE", 12_000))


def reduced_acb_config() -> AcbConfig:
    """The reduced-trace ACB configuration used throughout the harness."""
    return AcbConfig().reduced(10)


#: ACB configuration names → ``AcbConfig`` field overrides applied on top of
#: whatever base configuration the run uses (see :func:`prepare_run`).
ACB_VARIANTS: Dict[str, Dict[str, object]] = {
    "acb": {},
    "acb-nodynamo": {"dynamo_enabled": False},
    "acb-select": {"select_uops": True},
    "acb-pbh": {"oracle_history": True},
    "acb-stalls": {"throttle": "stalls"},
    "acb-multireconv": {"multi_reconv": True},
    "acb-dmp-reconv": {"learning_backend": "dmp"},
}


def split_config(config: str) -> Tuple[str, Optional[str]]:
    """Split a ``scheme[@predictor]`` spelling into its two parts.

    Configuration names accept an optional ``@<predictor>`` suffix —
    ``"acb@bullseye"`` runs the ACB scheme over the Bullseye predictor.
    Returns ``(scheme, predictor_or_None)``.
    """
    if "@" in config:
        scheme, _, predictor = config.partition("@")
        return scheme, predictor
    return config, None


#: Configuration name → scheme factory, called with the run's base
#: ``AcbConfig`` (only the ACB variants read it); ``None`` = no predication.
SCHEME_FACTORIES: Dict[str, Callable[[AcbConfig], Optional[PredicationScheme]]] = {
    "baseline": lambda base: None,
    "oracle-bp": lambda base: None,   # perfect branch prediction (predictor swap)
    **{
        name: (lambda base, overrides=overrides: AcbScheme(replace(base, **overrides)))
        for name, overrides in ACB_VARIANTS.items()
    },
    "dmp": lambda base: DmpScheme(),
    "dmp-pbh": lambda base: DmpPbhScheme(),
    "dhp": lambda base: DhpScheme(),
    "wish": lambda base: WishScheme(),
}


def config_problem(config: object, predictor: Optional[str] = None) -> Optional[str]:
    """What is wrong with configuration name *config* (and an explicit
    *predictor*), or ``None`` when it names a runnable cell.

    The one check behind the CLI's argument types, the HTTP API's request
    validation and :func:`prepare_run`.
    """
    if not isinstance(config, str) or not config:
        return f"config must be a non-empty string, got {config!r}"
    scheme, suffix = split_config(config)
    if scheme not in SCHEME_FACTORIES:
        return (
            f"unknown config {scheme!r}; choose from {sorted(SCHEME_FACTORIES)} "
            f"(optionally suffixed '@<predictor>', e.g. acb@bullseye)"
        )
    for name in (suffix, predictor):
        if name is not None and name not in PREDICTORS:
            return f"unknown predictor {name!r}; choose from {sorted(PREDICTORS)}"
    return None


def canonical_config(
    config: str, predictor: Optional[str] = None
) -> Tuple[str, Optional[str]]:
    """The ``(scheme name, predictor)`` a configuration name denotes.

    A ``@predictor`` suffix overrides *predictor*, and ``oracle-bp`` is
    ``baseline`` with the predictor forced to ``oracle``, whichever one
    was asked for.
    """
    scheme, suffix = split_config(config)
    if scheme == "oracle-bp":
        return "baseline", "oracle"
    return scheme, suffix if suffix is not None else predictor


def resolve_workload(name: str) -> Workload:
    """Map a workload name — suite, frontier, or ``trace:<ref>``."""
    if is_trace_name(name):
        return load_trace_workload(name)
    from repro.workloads.frontier import is_frontier_name, load_frontier_workload

    if is_frontier_name(name):
        return load_frontier_workload(name)
    (workload,) = load_suite([name])
    return workload


@dataclass
class RunResult:
    """Stats plus identification for one simulation run."""

    workload: str
    category: str
    paper_tag: str
    config: str
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def normalized_run_key(
    workload: str,
    config: str,
    core_scale: int = 1,
    predictor: Optional[str] = None,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
) -> Tuple[str, str, int, Optional[str], int, int]:
    """Canonical memo/store key for a suite-workload run.

    The configuration is keyed by :func:`canonical_config`, so spellings
    that denote the identical simulation share one cell: ``oracle-bp``
    and ``baseline`` with ``predictor="oracle"``, or ``"acb@bullseye"``
    and ``config="acb", predictor="bullseye"``.

    Trace workloads are keyed by *content*: the ``trace:<ref>`` name is
    extended with a digest of the trace file's bytes, so re-converting or
    editing a trace in place can never serve stale cached results.
    """
    config, predictor = canonical_config(config, predictor)
    if is_trace_name(workload):
        digest = trace_content_digest(resolve_trace_path(workload))
        workload = f"{workload}@{digest}"
    return (
        workload,
        config,
        core_scale,
        predictor,
        warmup if warmup is not None else default_warmup(),
        measure if measure is not None else default_measure(),
    )


#: memo of completed runs — simulations are deterministic, so experiments
#: sharing a normalized (workload, config, scale, predictor, window) tuple
#: reuse results.  Keyed only for suite workloads addressed by name with
#: default core/ACB config.
_MEMO: Dict[tuple, "RunResult"] = {}


def clear_memo() -> None:
    _MEMO.clear()


def memo_size() -> int:
    return len(_MEMO)


def store_result(memo_key: tuple, result: RunResult) -> None:
    """Record *result* in the memo and (when installed) the durable
    experiment store — write-through across both layers."""
    _MEMO[memo_key] = result
    store = get_active_store()
    if store is not None:
        store.put(memo_key, result)


def _relabel(result: RunResult, config: str) -> RunResult:
    """Return *result* presented under the caller's configuration name."""
    if result.config == config:
        return result
    return replace(result, config=config)


def lookup_many(keys) -> Dict[tuple, Tuple[RunResult, str]]:
    """Probe the memo, then the durable experiment store, for *keys*.

    Returns ``{key: (result, source)}`` for every key found, source
    ``"memo"`` or ``"store"``.  The memo misses cost one store read
    between them; store hits enter the memo.
    """
    found: Dict[tuple, Tuple[RunResult, str]] = {}
    misses = []
    for key in keys:
        if key in _MEMO:
            found[key] = (_MEMO[key], "memo")
        else:
            misses.append(key)
    store = get_active_store()
    if misses and store is not None:
        for key, hit in store.get_many(misses).items():
            _MEMO[key] = hit
            found[key] = (hit, "store")
    return found


def lookup_cached(memo_key: tuple) -> Tuple[Optional[RunResult], Optional[str]]:
    """:func:`lookup_many` for one key: ``(result, source)`` or ``(None, None)``."""
    return lookup_many([memo_key]).get(memo_key, (None, None))


def prepare_run(
    workload_obj: Workload,
    config: str,
    core_scale: int = 1,
    predictor: Optional[str] = None,
    acb_config: Optional[AcbConfig] = None,
    core_config: Optional[CoreConfig] = None,
) -> Tuple[CoreConfig, Optional[PredicationScheme], Optional[str]]:
    """Resolve one cell's ``(core config, scheme, predictor)``.

    The only code that turns a configuration name into
    :class:`~repro.core.Core` constructor arguments.  ACB variants apply
    their :data:`ACB_VARIANTS` overrides to *acb_config*, which defaults
    to :func:`reduced_acb_config` — or, for a trace-replay workload, which
    loops a short recorded window, to an ``AcbConfig`` reduced by the
    trace's proportional scale (EXPERIMENTS.md methodology).
    """
    problem = config_problem(config, predictor)
    if problem is not None:
        raise ValueError(problem)
    scheme_name, predictor = canonical_config(config, predictor)
    if acb_config is None:
        if isinstance(workload_obj, TraceReplayWorkload):
            acb_config = AcbConfig().reduced(workload_obj.acb_scale)
        else:
            acb_config = reduced_acb_config()
    cfg = core_config if core_config is not None else scaled(core_scale, SKYLAKE_LIKE)
    return cfg, SCHEME_FACTORIES[scheme_name](acb_config), predictor


def run_workload(
    workload: Union[str, Workload],
    config: str = "baseline",
    core_config: Optional[CoreConfig] = None,
    core_scale: int = 1,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    acb_config: Optional[AcbConfig] = None,
    predictor: Optional[str] = None,
) -> RunResult:
    """Run one workload under one named configuration."""
    memo_key = None
    if isinstance(workload, str) and core_config is None and acb_config is None:
        memo_key = normalized_run_key(
            workload, config, core_scale, predictor, warmup, measure
        )
        cached, _source = lookup_cached(memo_key)
        if cached is not None:
            return _relabel(cached, config)
    result = simulate(workload, config, core_config, core_scale, warmup,
                      measure, acb_config, predictor)
    if memo_key is not None:
        store_result(memo_key, result)
    return result


def simulate(
    workload: Union[str, Workload],
    config: str = "baseline",
    core_config: Optional[CoreConfig] = None,
    core_scale: int = 1,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    acb_config: Optional[AcbConfig] = None,
    predictor: Optional[str] = None,
) -> RunResult:
    """:func:`run_workload` without the lookup and the write-through:
    always simulates."""
    if isinstance(workload, str):
        workload_obj = resolve_workload(workload)
    else:
        workload_obj = workload
    cfg, scheme, predictor = prepare_run(
        workload_obj, config, core_scale=core_scale, predictor=predictor,
        acb_config=acb_config, core_config=core_config,
    )
    core = Core(workload_obj, cfg, scheme=scheme, predictor=predictor)
    stats = core.run_window(
        warmup if warmup is not None else default_warmup(),
        measure if measure is not None else default_measure(),
    )
    return RunResult(
        workload=workload_obj.name,
        category=workload_obj.category,
        paper_tag=workload_obj.paper_tag,
        config=config,
        stats=stats,
    )


def compare_configs(
    names,
    configs,
    **kwargs,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every workload in *names* under every configuration.

    The full matrix is submitted through :mod:`repro.harness.parallel`
    (worker count from ``REPRO_JOBS``); with one job it degenerates to the
    original serial loop.  Returns ``{workload: {config: RunResult}}``.
    """
    from repro.harness.parallel import RunRequest, run_matrix

    names = list(names)
    configs = list(configs)
    requests = [
        RunRequest(workload=name, config=config, **kwargs)
        for name in names
        for config in configs
    ]
    results = run_matrix(requests)
    out: Dict[str, Dict[str, RunResult]] = {name: {} for name in names}
    for request, result in zip(requests, results):
        out[request.workload][request.config] = result
    return out
