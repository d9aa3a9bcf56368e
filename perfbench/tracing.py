"""Benchmark-side tracing: spans around public calls plus a module profile.

The program itself is not instrumented.  :class:`Tracer` swaps public
functions and methods of the program for wrappers that record a span
(name, start, end, parent) and restores them afterwards; spans nest per
thread, so a layer's self time is its span time minus the spans its call
opened.  :func:`layer_profile` turns a ``cProfile`` run into self time
and call counts per layer by the file each function lives in; time in
built-ins and the standard library goes to the nearest program caller.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import common
from common import SRC

#: engine packages: ``repro/<pkg>/...`` → layer ``<pkg>``
ENGINE_LAYERS = ("core", "isa", "branch", "memory", "acb", "workloads")
#: dispatch, lookup, persistence and serving: ``repro/<pkg>/<mod>.py``
SYSTEM_LAYERS = (
    "harness.runner", "harness.parallel", "harness.distributed",
    "service.store", "service.jobs", "service.app",
)
LAYERS = ENGINE_LAYERS + SYSTEM_LAYERS

#: source files under this prefix belong to the program
PROGRAM_PREFIX = os.path.join(SRC, "repro") + os.sep


class Tracer:
    """In-memory span recorder with reversible monkeypatching."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent index or -1)
        self.spans: List[Tuple[str, int, int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _record(self, name: str, fn: Callable, args, kwargs, observe=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0, 0, stack[-1] if stack else -1))
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans[index] = (name, start, end, self.spans[index][3])

    def _wrapper(self, name: str, fn: Callable, observe=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, observe)

        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set *owner.attr* to *value* until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str,
                      observe: Optional[Callable] = None) -> None:
        """Trace *module.attr* under every ``repro`` module that binds it.

        ``from x import f`` copies the binding, so each importing module
        is patched too; the match is by identity with the original.
        *observe*, if given, sees every return value.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrapper(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, wrapper)

    def wrap_attr(self, owner: Any, attr: str, name: str) -> None:
        """Trace one binding only (a class attribute or a module name)."""
        self.patch(owner, attr, self._wrapper(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every finished span called *name*."""
        return [(e - s) / 1e9 for n, s, e, _ in self.spans if n == name and e]

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name → (count, total seconds, self seconds)``."""
        child = defaultdict(int)
        for _, s, e, parent in self.spans:
            if parent >= 0 and e:
                child[parent] += e - s
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, s, e, _) in enumerate(self.spans):
            if not e:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += (e - s) / 1e9
            entry[2] += (e - s - child[index]) / 1e9
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


# ----------------------------------------------------------------------
# module profile → layers
# ----------------------------------------------------------------------
def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file, ``"other"`` for the rest of ``repro``,
    ``None`` outside the program (built-ins, stdlib, the benchmark)."""
    if not filename.startswith(PROGRAM_PREFIX):
        return None
    parts = filename[len(PROGRAM_PREFIX):].split(os.sep)
    if parts[0] in ENGINE_LAYERS:
        return parts[0]
    if len(parts) == 2 and parts[1].endswith(".py"):
        layer = f"{parts[0]}.{parts[1][:-3]}"
        if layer in SYSTEM_LAYERS:
            return layer
    return "other"


def layer_profile(stats: Dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls per layer from ``pstats.Stats(...).stats``.

    A function outside the program hands its self time to its callers in
    proportion to the time it spent under each, recursively, until a
    program frame takes it; what never reaches one is ``"unattributed"``.
    Calls count only functions defined in the layer's own files.
    """
    shares_memo: Dict[Any, Dict[str, float]] = {}

    def shares(func, depth: int) -> Dict[str, float]:
        if func in shares_memo:
            return shares_memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        shares_memo[func] = {"unattributed": 1.0}  # cycle guard
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        if depth > 30 or total <= 0:
            return shares_memo[func]
        out: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer_name, share in shares(caller, depth + 1).items():
                out[layer_name] += share * weight / total
        shares_memo[func] = dict(out)
        return shares_memo[func]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += nc
        for layer_name, share in shares(func, 0).items():
            self_s[layer_name] += tt * share
    return dict(self_s), dict(calls)


def function_calls(stats: Dict, filename_suffix: str, funcname: str) -> int:
    """Primitive call count of one program function in a profile."""
    suffix = filename_suffix.replace("/", os.sep)
    return sum(
        nc for (path, _line, name), (_cc, nc, *_rest) in stats.items()
        if name == funcname and path.endswith(suffix)
    )


# ----------------------------------------------------------------------
# what every workload traces in the harness
# ----------------------------------------------------------------------
def install_harness_spans(tracer: Tracer) -> List[bool]:
    """Span the harness entry points; returns the list lookups append
    their hit (True) or miss (False) to."""
    from repro.core import engine
    from repro.harness import runner

    hits: List[bool] = []
    tracer.wrap_function("repro.harness.parallel", "run_matrix", "run_matrix")
    tracer.wrap_function("repro.harness.runner", "lookup_cached", "lookup",
                         observe=lambda found: hits.append(found[0] is not None))
    tracer.wrap_function("repro.harness.runner", "store_result", "write")
    tracer.wrap_function("repro.harness.runner", "resolve_workload", "build")
    tracer.wrap_function("repro.harness.runner", "prepare_run", "prepare")
    tracer.wrap_attr(runner, "Core", "prepare")
    tracer.wrap_attr(engine.Core, "run_window", "simulate")
    return hits


def harness_metrics(tracer: Tracer, hits: List[bool]) -> Dict[str, float]:
    totals = tracer.totals()
    zero = (0, 0.0, 0.0)
    lookups = tracer.durations("lookup")
    matrix = totals.get("run_matrix", zero)
    return {
        "workloads.build_ms": totals.get("build", zero)[1] * 1e3,
        "harness.runner.prepare_ms": totals.get("prepare", zero)[1] * 1e3,
        "harness.runner.lookup_us_p50": common.p50(lookups) * 1e6,
        "harness.runner.lookup_us_tail": common.tail(lookups)[0] * 1e6,
        "harness.runner.lookup_calls": len(lookups),
        "harness.runner.hit_ratio": sum(hits) / max(1, len(hits)),
        "harness.runner.write_us_p50":
            common.p50(tracer.durations("write")) * 1e6,
        "harness.parallel.overhead_ms": matrix[2] * 1e3 / max(1, matrix[0]),
    }


def profile_metrics(stats: Dict, layers=LAYERS) -> Tuple[Dict[str, float], float]:
    """Per-layer ``self_s`` (for *layers*) and engine ``calls`` from a
    profile, plus the seconds the listed layers account for."""
    self_s, calls = layer_profile(stats)
    out: Dict[str, float] = {f"{layer}.self_s": self_s.get(layer, 0.0)
                             for layer in layers}
    for layer in ("branch", "memory", "acb", "workloads"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    return out, sum(self_s.get(layer, 0.0) for layer in layers)
