"""Run identity and the process-wide durable result store.

Simulation runs are deterministic, so a (workload, configuration, scale,
predictor, window) cell always produces the same :class:`SimStats`.  The
in-memory memo in :mod:`repro.harness.runner` exploits that within one
process; the store installed here with :func:`set_active_store` (in
practice :class:`repro.service.store.ExperimentStore`) extends it across
processes and invocations.

Both layers share one identity: :func:`key_digest` over the *normalized*
run key (see :func:`repro.harness.runner.normalized_run_key`) plus
:data:`CACHE_SCHEMA_VERSION`.  Bumping the version re-keys every run, which
is the invalidation story for simulator-visible changes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

#: Bump whenever simulator behaviour or the serialized layout changes in a
#: way that invalidates previously stored stats.
CACHE_SCHEMA_VERSION = 1

#: Normalized run key: (workload, scheme, core_scale, predictor, warmup,
#: measure) — always built by ``normalized_run_key``, never by hand.
RunKey = Tuple[str, str, int, Optional[str], int, int]


def key_digest(key: RunKey) -> str:
    """Stable digest of a normalized run key (the store's ``run_id``)."""
    payload = json.dumps([CACHE_SCHEMA_VERSION, *key], sort_keys=False)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


#: Anything with ``get(key) -> RunResult|None`` and ``put(key, result)``
#: keyed by normalized run keys.  Registered here (rather than imported) so
#: the harness stays ignorant of the service layer.
_ACTIVE_STORE = None


def set_active_store(store):
    """Install *store* as the durable result layer; returns the old one.

    The lookup chain becomes memo → *store*; store hits enter the memo,
    and completed runs write through to both
    (:func:`repro.harness.runner.store_result`).
    """
    global _ACTIVE_STORE
    previous, _ACTIVE_STORE = _ACTIVE_STORE, store
    return previous


def get_active_store():
    return _ACTIVE_STORE
