"""Single-run driver: workload × configuration → statistics.

Every experiment in the paper reduces to comparing named *configurations*
over workloads.  A configuration bundles a predication scheme, a branch
predictor, and a core scale factor.  Runs use trace-slice methodology: a
warm-up window (caches, predictor, ACB tables, Dynamo) followed by a fresh
measurement window.

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
#: whatever base configuration the run uses (the suite default, or a
#: trace-proportional one — see :func:`make_scheme`).
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
    Returns ``(scheme, predictor_or_None)``; plain names pass through
    unchanged, so every existing call site can adopt the convention by
    splitting first.
    """
    if "@" in config:
        scheme, _, predictor = config.partition("@")
        return scheme, predictor
    return config, None


def make_scheme(
    config: str, acb_config: Optional[AcbConfig] = None
) -> Optional[PredicationScheme]:
    """Instantiate the predication scheme for a configuration name.

    ACB variants apply their field overrides to *acb_config* (default: the
    reduced suite configuration), so the same variant can run at a
    different window scale — trace workloads supply a base proportional to
    their window length.  A ``@predictor`` suffix is ignored here (the
    predictor is the core's concern, not the scheme's).
    """
    config, _ = split_config(config)
    if config in ACB_VARIANTS:
        base = acb_config if acb_config is not None else reduced_acb_config()
        overrides = ACB_VARIANTS[config]
        return AcbScheme(replace(base, **overrides) if overrides else base)
    factory = SCHEME_FACTORIES.get(config)
    if factory is None:
        raise ValueError(
            f"unknown config {config!r}; choose from {sorted(SCHEME_FACTORIES)}"
        )
    return factory()


def _acb_factory(name: str) -> Callable[[], Optional[PredicationScheme]]:
    return lambda: make_scheme(name)


#: Configuration name → scheme factory (None = no predication).
SCHEME_FACTORIES: Dict[str, Callable[[], Optional[PredicationScheme]]] = {
    "baseline": lambda: None,
    "oracle-bp": lambda: None,   # perfect branch prediction (predictor swap)
    "acb": _acb_factory("acb"),
    "acb-nodynamo": _acb_factory("acb-nodynamo"),
    "acb-select": _acb_factory("acb-select"),
    "acb-pbh": _acb_factory("acb-pbh"),
    "acb-stalls": _acb_factory("acb-stalls"),
    "acb-multireconv": _acb_factory("acb-multireconv"),
    "acb-dmp-reconv": _acb_factory("acb-dmp-reconv"),
    "dmp": lambda: DmpScheme(),
    "dmp-pbh": lambda: DmpPbhScheme(),
    "dhp": lambda: DhpScheme(),
    "wish": lambda: WishScheme(),
}


def resolve_workload(name: str) -> Workload:
    """Map a workload name — suite, frontier, or ``trace:<ref>``."""
    if is_trace_name(name):
        return load_trace_workload(name)
    from repro.workloads.frontier import is_frontier_name, load_frontier_workload

    if is_frontier_name(name):
        return load_frontier_workload(name)
    (workload,) = load_suite([name])
    return workload


def scheme_for(
    workload_obj: Workload,
    config: str,
    acb_config: Optional[AcbConfig] = None,
) -> Optional[PredicationScheme]:
    """Scheme for *config* run on *workload_obj*.

    Trace-replay workloads loop a short recorded window, so ACB variants
    default to an ``AcbConfig`` reduced by the trace's proportional scale
    (EXPERIMENTS.md methodology) instead of the suite-wide one.
    """
    if (
        acb_config is None
        and split_config(config)[0] in ACB_VARIANTS
        and isinstance(workload_obj, TraceReplayWorkload)
    ):
        acb_config = AcbConfig().reduced(workload_obj.acb_scale)
    return make_scheme(config, acb_config=acb_config)


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

    ``oracle-bp`` is ``baseline`` with the predictor forcibly swapped to
    ``oracle`` — any ``predictor`` argument is ignored by the simulator.
    Normalizing here means the two spellings share one cell instead
    of aliasing (``oracle-bp`` + stale predictor in the key) or missing
    (re-simulating a ``predictor="oracle"`` baseline already in the store).

    Trace workloads are keyed by *content*: the ``trace:<ref>`` name is
    extended with a digest of the trace file's bytes, so re-converting or
    editing a trace in place can never serve stale cached results.

    ``@predictor`` config spellings normalize the same way: the suffix is
    folded into the predictor slot, so ``"acb@bullseye"`` and
    ``config="acb", predictor="bullseye"`` share one cell.
    """
    config, cfg_predictor = split_config(config)
    if cfg_predictor is not None:
        predictor = cfg_predictor
    if config == "oracle-bp":
        config, predictor = "baseline", "oracle"
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


def lookup_cached(memo_key: tuple) -> Tuple[Optional[RunResult], Optional[str]]:
    """Probe the memo, then the durable experiment store.

    Returns ``(result, source)`` where source is ``"memo"``, ``"store"``
    or ``None``.  A store hit enters the memo.
    """
    if memo_key in _MEMO:
        return _MEMO[memo_key], "memo"
    store = get_active_store()
    if store is not None:
        hit = store.get(memo_key)
        if hit is not None:
            _MEMO[memo_key] = hit
            return hit, "store"
    return None, None


def prepare_run(
    workload_obj: Workload,
    config: str,
    core_scale: int = 1,
    predictor: Optional[str] = None,
    acb_config: Optional[AcbConfig] = None,
    core_config: Optional[CoreConfig] = None,
) -> Tuple[CoreConfig, Optional[PredicationScheme], Optional[str]]:
    """Resolve one cell's ``(core config, scheme, predictor)``.

    The single source of truth for how a named configuration turns into
    :class:`~repro.core.Core` constructor arguments.
    """
    scheme_name, cfg_predictor = split_config(config)
    if scheme_name not in SCHEME_FACTORIES:
        raise ValueError(
            f"unknown config {scheme_name!r}; "
            f"choose from {sorted(SCHEME_FACTORIES)} "
            f"(optionally suffixed '@<predictor>')"
        )
    if cfg_predictor is not None:
        predictor = cfg_predictor
    scheme = scheme_for(workload_obj, config, acb_config=acb_config)
    cfg = core_config if core_config is not None else scaled(core_scale, SKYLAKE_LIKE)
    if scheme_name == "oracle-bp":
        predictor = "oracle"
    return cfg, scheme, predictor


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
    result = RunResult(
        workload=workload_obj.name,
        category=workload_obj.category,
        paper_tag=workload_obj.paper_tag,
        config=config,
        stats=stats,
    )
    if memo_key is not None:
        store_result(memo_key, result)
    return result


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
