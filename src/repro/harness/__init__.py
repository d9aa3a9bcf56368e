"""Experiment harness: run drivers for every figure and table."""

from repro.harness import experiments
from repro.harness.cache import (
    CACHE_SCHEMA_VERSION,
    get_active_store,
    set_active_store,
)
from repro.harness.parallel import (
    MatrixManifest,
    RunRequest,
    default_jobs,
    last_manifest,
    run_matrix,
    session_summary,
)
from repro.harness.reporting import (
    format_manifest,
    format_table,
    geomean,
    pct,
    per_category,
    summarize_session,
)
from repro.harness.runner import (
    ACB_VARIANTS,
    SCHEME_FACTORIES,
    RunResult,
    compare_configs,
    default_measure,
    default_warmup,
    normalized_run_key,
    reduced_acb_config,
    resolve_workload,
    run_workload,
)

__all__ = [
    "ACB_VARIANTS",
    "CACHE_SCHEMA_VERSION",
    "MatrixManifest",
    "RunRequest",
    "RunResult",
    "SCHEME_FACTORIES",
    "compare_configs",
    "default_jobs",
    "default_measure",
    "default_warmup",
    "experiments",
    "format_manifest",
    "format_table",
    "geomean",
    "get_active_store",
    "last_manifest",
    "normalized_run_key",
    "pct",
    "per_category",
    "reduced_acb_config",
    "resolve_workload",
    "run_matrix",
    "run_workload",
    "session_summary",
    "set_active_store",
    "summarize_session",
]
