"""store_regen: regenerate figure-shaped matrices from a populated store.

Inputs: one short real simulation of every suite workload under
``baseline`` and ``acb`` (checked against the pinned digests).  Set-up
fills a fresh SQLite ``ExperimentStore`` through its public ``put`` with
one row per (workload, config, window) of :data:`STORE_WINDOWS`, each row
holding that pair's real ``SimStats``; it is done three times and the
median reported.  Only the store is installed, never the JSON cache.

Measured phase: figure regenerations, one after another.  Each starts
with a cleared memo, the way a new session starts, and makes twelve
``run_matrix`` calls on the serial backend over 12 seeded workloads (two
per category) x 2 configs x 2 of the regeneration's three windows, plus
8 repeated cells, so store hits, memo hits and in-matrix dedup all
occur.  After every third matrix one new result is written through
``store_result`` under a fresh key.  A regeneration's latency is its time
in those calls.  Nothing is simulated: every read must return exactly
the stats written under its key, and after the last regeneration every
written key is read back from the store.
"""

from __future__ import annotations

import importlib
import os
import random
import time
from typing import Dict, List

import common
from common import FIG6_CONFIGS, TINY_WINDOW

#: row windows: (warm-up, measure); keys differ, stats are the pair's
STORE_WINDOWS = tuple((1_000 * i, 12_000) for i in range(1, 17))
SETUP_REPEATS = 3
MATRICES_PER_PASS = 12
#: a write follows every third matrix: writes are a small share of a
#: regeneration's operations, as new results are among a figure's reads
WRITE_EVERY = 3
REPEATED_CELLS = 8
#: the host speed probe runs before every fourth regeneration (and once
#: after the last); each regeneration is scaled by the probes around it
PROBE_EVERY = 4
#: traced runs do a fixed amount of work so their counts repeat exactly
TRACE_PASSES = 20


def _install_store(store) -> None:
    """Install *store* as the durable result layer behind the memo.

    The setter lives with the JSON cache today; the runner is where it
    goes once that cache is deleted, so both are looked up.
    """
    for module in ("repro.harness.cache", "repro.harness.runner"):
        setter = getattr(importlib.import_module(module), "set_active_store", None)
        if setter is not None:
            setter(store)
            return
    raise RuntimeError("no set_active_store in the harness")


def _pool(workloads: List[str], pins: Dict[str, str]):
    """Real results of a short run of each (workload, config) pair."""
    from repro.harness.runner import clear_memo, run_workload

    warmup, measure = TINY_WINDOW
    pool, bad = {}, []
    for workload in workloads:
        for config in FIG6_CONFIGS:
            result = run_workload(workload, config, warmup=warmup,
                                  measure=measure)
            digest = common.stats_digest(result.stats.to_dict())
            if pins.get(common.cell_id(workload, config, warmup, measure)) != digest:
                bad.append(f"{workload}|{config}")
            pool[(workload, config)] = (result, digest)
    clear_memo()
    return pool, bad


class Session:
    """Seeded matrix passes against one installed store."""

    def __init__(self, workloads_by_cat, windows, pool, expected):
        self.by_cat = workloads_by_cat
        self.windows = windows
        self.pool = pool
        self.expected = expected  # run key -> digest
        self.fresh = 100_000      # warm-up of the next written key
        self.written: List[tuple] = []
        self.matrices = 0
        self.pass_s: List[float] = []
        #: a traced run profiles only the program calls, not the checks
        self.profile = None
        self.write_s: List[float] = []
        self.requests = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def _matrix(self, rng: random.Random, windows) -> list:
        from repro.harness.parallel import RunRequest

        names = [w for names in self.by_cat.values()
                 for w in rng.sample(names, min(2, len(names)))]
        cells = [RunRequest(w, c, warmup=wu, measure=m)
                 for w in names for c in FIG6_CONFIGS
                 for wu, m in rng.sample(windows, 2)]
        return cells + [rng.choice(cells) for _ in range(REPEATED_CELLS)]

    def run_pass(self, rng: random.Random) -> None:
        """One figure regeneration; its latency is the time spent in
        ``run_matrix`` and ``store_result``, not in the checks."""
        from repro.harness.parallel import run_matrix
        from repro.harness.runner import clear_memo, normalized_run_key, store_result

        clear_memo()
        windows = rng.sample(self.windows, 3)
        pairs = list(self.pool)
        busy = 0.0
        for index in range(MATRICES_PER_PASS):
            requests = self._matrix(rng, windows)
            self._profile(True)
            t0 = time.perf_counter()
            results = run_matrix(requests, backend="serial")
            busy += time.perf_counter() - t0
            self._profile(False)
            self.matrices += 1
            self.requests += len(requests)
            for request, result in zip(requests, results):
                self._check(request.memo_key(), result)
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                workload, config = rng.choice(pairs)
                key = normalized_run_key(workload, config, 1, None,
                                         self.fresh, TINY_WINDOW[1])
                self.fresh += 1
                result, digest = self.pool[(workload, config)]
                self._profile(True)
                t0 = time.perf_counter()
                store_result(key, result)
                elapsed = time.perf_counter() - t0
                self._profile(False)
                busy += elapsed
                self.write_s.append(elapsed)
                self.expected[key] = digest
                self.written.append(key)
        self.pass_s.append(busy)

    def _profile(self, on: bool) -> None:
        if self.profile is not None:
            (self.profile.enable if on else self.profile.disable)()

    def _check(self, key, result) -> None:
        got = None if result is None else common.stats_digest(result.stats.to_dict())
        if got is None or got != self.expected.get(key):
            self.failed += 1
            self.mismatches.append(f"{key[0]}|{key[1]}|{key[4]}|{key[5]}")

    def verify_written(self) -> int:
        """Read every written key back from the store; returns reads."""
        from repro.harness.runner import clear_memo, lookup_cached

        clear_memo()
        for key in self.written:
            result, source = lookup_cached(key)
            self._check(key, result if source == "store" else None)
        return len(self.written)


def _fill(path: str, rows) -> tuple:
    from repro.service.store import ExperimentStore

    t0 = time.perf_counter()
    store = ExperimentStore(path, strict=True)
    for key, result in rows:
        store.put(key, result)
    return store, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, smoke: bool):
    from repro.harness.runner import normalized_run_key

    by_cat = common.suite_by_category()
    if smoke:
        by_cat = {cat: names[:2] for cat, names in by_cat.items()}
    workloads = [w for names in by_cat.values() for w in names]
    windows = STORE_WINDOWS[:3] if smoke else STORE_WINDOWS
    pool, bad_pool = _pool(workloads, common.load_pins("tiny_cells"))
    rows, expected = [], {}
    for (workload, config), (result, digest) in pool.items():
        for warmup, measure in windows:
            key = normalized_run_key(workload, config, 1, None, warmup, measure)
            rows.append((key, result))
            expected[key] = digest

    tmp = common.make_tmpdir("store_")
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            store, elapsed = _fill(os.path.join(tmp, f"db{i}.sqlite"), rows)
            setups.append(elapsed)
        _install_store(store)
        session = Session(by_cat, windows, pool, expected)
        if trace:
            metrics = _traced(session, store, seed)
        else:
            rng = random.Random(seed)
            probes = []
            started = time.perf_counter()
            while time.perf_counter() - started < seconds:
                if len(session.pass_s) % PROBE_EVERY == 0:
                    probes.append(common.probe())
                session.run_pass(rng)
            probes.append(common.probe())
            scaled = common.host_scaled(session.pass_s, probes, PROBE_EVERY)
            tail, pct, n = common.tail([s * 1e3 for s in scaled])
            speed = common.host_speed(probes)
            notes = {
                "host_speed": round(speed, 4),
                "raw setup_s / cells_per_s / request_p50_ms": "%.4g / %.4g / %.4g" % (
                    common.p50(setups), session.requests / sum(session.pass_s),
                    common.p50(session.pass_s) * 1e3),
            }
            metrics = {
                "setup_s": common.p50(setups) * speed,
                "cells_per_s": session.requests / sum(scaled),
                "request_p50_ms": common.p50(scaled) * 1e3,
                "request_tail_ms": tail,
                "peak_rss_mb": common.peak_rss_mb_self(),
            }
        reads = session.verify_written()
        _install_store(None)
    finally:
        common.remove_tmpdir(tmp)
    attempted = len(pool) + session.requests + len(session.write_s) + reads
    failed = len(bad_pool) + session.failed
    notes = {
        **(notes if not trace else {}),
        "rows": len(rows),
        "matrices": session.matrices,
        "written": len(session.written),
    }
    if not trace:
        notes["request_tail_ms"] = f"p{pct:.1f} of {n} regeneration latencies"
    if bad_pool or session.mismatches:
        notes["mismatched_cells"] = ",".join((bad_pool + session.mismatches)[:8])
    return not failed, attempted, failed, metrics, notes


def _traced(session: Session, store, seed: int) -> Dict[str, float]:
    import cProfile
    import pstats

    from repro.service.store import ExperimentStore
    from tracing import Tracer, harness_metrics, install_harness_spans, profile_metrics

    rng = random.Random(seed)
    for _ in range(TRACE_PASSES):
        session.run_pass(rng)
    reference = sum(session.pass_s[-TRACE_PASSES:])

    tracer = Tracer()
    hits = install_harness_spans(tracer)
    tracer.wrap_attr(ExperimentStore, "get", "store.get")
    tracer.wrap_attr(ExperimentStore, "put", "store.put")
    profile = session.profile = cProfile.Profile()
    rng = random.Random(seed)
    try:
        for _ in range(TRACE_PASSES):
            session.run_pass(rng)
    finally:
        session.profile = None
        tracer.restore()
    traced = sum(session.pass_s[-TRACE_PASSES:])

    out, attributed = profile_metrics(pstats.Stats(profile).stats)
    out.update(harness_metrics(tracer, hits))
    gets, puts = tracer.durations("store.get"), tracer.durations("store.put")
    out.update({
        "service.store.get_us_p50": common.p50(gets) * 1e6,
        "service.store.get_us_tail": common.tail(gets)[0] * 1e6,
        "service.store.put_us_p50": common.p50(puts) * 1e6,
        "service.store.put_us_tail": common.tail(puts)[0] * 1e6,
        "service.store.db_mb": os.path.getsize(store.path) / 1e6,
        "unattributed_s": max(0.0, traced - attributed),
        "trace_overhead_ratio": traced / reference,
    })
    return out
