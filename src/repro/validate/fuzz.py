"""Differential fuzzing: seeded random programs, cross-checked and shrunk.

Each seed deterministically expands to a :class:`WorkloadSpec` drawn from the
full generator vocabulary — every hammock shape (including the irregular
``nested``/``nested_else``/``multi_exit`` regions), stores inside predicated
arms, shared store streams, loop-carried dependences through the arms, slow
branch sources, follower branches, inner loops and every memory pattern.
:func:`run_fuzz` fans the seeds out over the harness worker pool, runs the
golden/baseline/ACB cross-check on each (:func:`repro.validate.differential.
check_workload`), and greedily shrinks any failing spec to a minimal
reproducer that it writes to disk as JSON (replayable with
:func:`replay_file` or ``python -m repro validate --replay``).
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import default_jobs, run_tasks
from repro.validate.differential import (
    DEFAULT_CONFIGS,
    ValidationFailure,
    check_workload,
)
from repro.workloads import Workload
from repro.workloads.generator import build_workload
from repro.workloads.specs import HammockSpec, WorkloadSpec

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "fuzz_seed",
    "random_spec",
    "replay_file",
    "run_fuzz",
    "shrink_failure",
    "spec_from_dict",
    "spec_to_dict",
]

_SHAPES = ("if", "if_else", "type3", "nested", "nested_else", "multi_exit")
_KINDS = ("bernoulli", "bernoulli", "bernoulli", "periodic", "phased", "markov")
_MEMORIES = ("none", "strided", "strided", "random", "chase")


# ----------------------------------------------------------------------
# seed -> spec
# ----------------------------------------------------------------------
def _random_hammock(rng: random.Random) -> HammockSpec:
    shape = rng.choice(_SHAPES)
    kind = rng.choice(_KINDS)
    store = rng.random() < 0.45
    return HammockSpec(
        shape=shape,
        taken_len=rng.randint(0, 5),
        nt_len=rng.randint(1, 7),
        p=round(rng.uniform(0.05, 0.95), 3),
        kind=kind,
        pattern=tuple(rng.random() < 0.5 for _ in range(rng.randint(2, 5))),
        phases=((rng.randint(300, 900), round(rng.uniform(0.05, 0.9), 2)),
                (rng.randint(300, 900), round(rng.uniform(0.05, 0.9), 2))),
        p_stay=round(rng.uniform(0.5, 0.95), 2),
        followers=rng.choice((0, 0, 0, 1, 2)),
        follower_slow_kb=rng.choice((64, 256)),
        body_feeds_load=rng.random() < 0.2,
        store_in_body=store,
        shared_store=store and rng.random() < 0.6,
        carry_in_body=rng.random() < 0.4,
        slow_source=rng.random() < 0.25,
        slow_span_kb=rng.choice((256, 1024, 4096)),
        join_feeds_chain=rng.random() < 0.25,
        body_op=rng.choice(("alu", "alu", "mul")),
        escape_p=round(rng.uniform(0.05, 0.4), 2),
        live_outs=rng.randint(1, 3),
    )


def random_spec(seed: int) -> WorkloadSpec:
    """Deterministically expand *seed* into a randomized workload spec."""
    rng = random.Random(0x5EED0 + seed * 2654435761)
    n_hammocks = rng.choice((1, 1, 2, 2, 3))
    return WorkloadSpec(
        name=f"fuzz{seed:05d}",
        category="fuzz",
        seed=rng.randint(1, 1 << 30),
        hammocks=tuple(_random_hammock(rng) for _ in range(n_hammocks)),
        ilp=rng.randint(0, 6),
        chain=rng.randint(1, 3),
        memory=rng.choice(_MEMORIES),
        mem_span_kb=rng.choice((4, 16, 64)),
        mem_ops=rng.randint(1, 2),
        inner_loop=rng.choice((None, None, (rng.randint(2, 6), rng.randint(0, 2)))),
        description=f"fuzz-generated spec, seed {seed}",
    )


# ----------------------------------------------------------------------
# spec <-> JSON
# ----------------------------------------------------------------------
def spec_to_dict(spec: WorkloadSpec) -> dict:
    """JSON-serialisable dict round-trippable via :func:`spec_from_dict`."""
    return asdict(spec)


def spec_from_dict(data: dict) -> WorkloadSpec:
    data = dict(data)
    hammocks = []
    for h in data.pop("hammocks"):
        h = dict(h)
        h["pattern"] = tuple(bool(x) for x in h.get("pattern", ()))
        h["phases"] = tuple(tuple(p) for p in h.get("phases", ()))
        hammocks.append(HammockSpec(**h))
    if data.get("inner_loop") is not None:
        data["inner_loop"] = tuple(data["inner_loop"])
    return WorkloadSpec(hammocks=tuple(hammocks), **data)


def _build(spec: WorkloadSpec) -> Workload:
    return build_workload(spec)


# ----------------------------------------------------------------------
# one seed
# ----------------------------------------------------------------------
def fuzz_seed(
    seed: int,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    instructions: int = 1200,
    regions: Optional[Dict[str, int]] = None,
) -> Optional[ValidationFailure]:
    """Cross-check the random program for *seed*; ``None`` means it passed.

    *regions*, when given, collects each configuration's regions opened
    (see :func:`~repro.validate.differential.check_workload`).
    """
    spec = random_spec(seed)
    try:
        return check_workload(
            _build(spec), instructions=instructions, configs=configs,
            regions=regions,
        )
    except Exception as exc:  # driver bug or unpicklable engine error
        return ValidationFailure(
            kind="error",
            config="*",
            detail=f"{type(exc).__name__}: {exc}",
            workload=spec.name,
        )


def _fuzz_cell(args: Tuple[int, Tuple[str, ...], int]):
    """Pool worker: one seed → (seed, failure-or-None, regions opened per
    config).  Must stay top-level and must never raise, so results always
    pickle back to the parent."""
    seed, configs, instructions = args
    regions: Dict[str, int] = {}
    failure = fuzz_seed(seed, configs=configs, instructions=instructions,
                        regions=regions)
    return seed, failure, regions


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
_HAMMOCK_BOOLS = (
    "body_feeds_load", "store_in_body", "shared_store", "carry_in_body",
    "slow_source", "join_feeds_chain",
)


def _candidates(spec: WorkloadSpec):
    """Yield progressively simpler variants of *spec*, boldest first."""
    hs = spec.hammocks
    if len(hs) > 1:
        for i in range(len(hs)):
            yield replace(spec, hammocks=hs[:i] + hs[i + 1:])
    if spec.inner_loop is not None:
        yield replace(spec, inner_loop=None)
    if spec.memory != "none":
        yield replace(spec, memory="none")
    if spec.ilp > 0:
        yield replace(spec, ilp=spec.ilp // 2)
    if spec.chain > 1:
        yield replace(spec, chain=1)
    for i, h in enumerate(hs):
        def with_h(new_h, i=i):
            return replace(spec, hammocks=hs[:i] + (new_h,) + hs[i + 1:])

        for name in _HAMMOCK_BOOLS:
            if getattr(h, name):
                yield with_h(replace(h, **{name: False}))
        if h.followers:
            yield with_h(replace(h, followers=0))
        if h.live_outs > 1:
            yield with_h(replace(h, live_outs=1))
        if h.nt_len > 1:
            yield with_h(replace(h, nt_len=h.nt_len // 2))
        if h.taken_len > 1:
            yield with_h(replace(h, taken_len=h.taken_len // 2))
        if h.kind != "bernoulli":
            yield with_h(replace(h, kind="bernoulli"))


def _spec_size(spec: WorkloadSpec) -> int:
    size = spec.ilp + spec.chain + 2 * len(spec.hammocks)
    size += 2 if spec.inner_loop else 0
    size += 1 if spec.memory != "none" else 0
    for h in spec.hammocks:
        size += h.taken_len + h.nt_len + h.followers + h.live_outs
        size += sum(1 for name in _HAMMOCK_BOOLS if getattr(h, name))
    return size


def shrink_failure(
    spec: WorkloadSpec,
    failure: ValidationFailure,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    instructions: int = 1200,
    max_checks: int = 60,
) -> Tuple[WorkloadSpec, ValidationFailure]:
    """Greedily simplify *spec* while it still fails validation.

    Accepts any failure (not only the original kind): a simpler spec that
    trips a different check is still a better reproducer.  Bounded by
    *max_checks* cross-check runs.
    """
    checks = 0
    current, current_failure = spec, failure
    improved = True
    while improved and checks < max_checks:
        improved = False
        for cand in _candidates(current):
            if checks >= max_checks:
                break
            checks += 1
            try:
                f = check_workload(
                    _build(cand), instructions=instructions, configs=configs
                )
            except Exception:
                continue  # shrink candidate broke the generator; skip it
            if f is not None:
                current, current_failure = cand, f
                improved = True
                break
    return current, current_failure


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One failing seed, with its shrunk reproducer."""

    seed: int
    failure: ValidationFailure
    spec: WorkloadSpec
    shrunk_spec: Optional[WorkloadSpec] = None
    shrunk_failure: Optional[ValidationFailure] = None
    repro_path: str = ""


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    requested: int
    completed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False
    #: config → predicated regions opened, summed over completed seeds
    regions_opened: Counter[str] = field(default_factory=Counter)
    #: config → completed seeds on which it opened at least one region
    seeds_with_regions: Counter[str] = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures


def _write_repro(
    fail: FuzzFailure, repro_dir: str, configs: Sequence[str], instructions: int
) -> str:
    os.makedirs(repro_dir, exist_ok=True)
    path = os.path.join(repro_dir, f"seed{fail.seed:05d}.json")
    shrunk = fail.shrunk_spec if fail.shrunk_spec is not None else fail.spec
    shrunk_failure = (
        fail.shrunk_failure if fail.shrunk_failure is not None else fail.failure
    )
    payload = {
        "seed": fail.seed,
        "configs": list(configs),
        "instructions": instructions,
        "failure": asdict(fail.failure),
        "shrunk_failure": asdict(shrunk_failure),
        "spec": spec_to_dict(fail.spec),
        "shrunk_spec": spec_to_dict(shrunk),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path


def replay_file(path: str, shrunk: bool = True) -> Optional[ValidationFailure]:
    """Re-run a written reproducer; ``None`` means it no longer fails."""
    with open(path) as fh:
        payload = json.load(fh)
    key = "shrunk_spec" if shrunk and payload.get("shrunk_spec") else "spec"
    spec = spec_from_dict(payload[key])
    return check_workload(
        _build(spec),
        instructions=payload.get("instructions", 1200),
        configs=tuple(payload.get("configs", DEFAULT_CONFIGS)),
    )


def run_fuzz(
    seeds: int = 50,
    start_seed: int = 0,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    instructions: int = 1200,
    budget_s: Optional[float] = None,
    jobs: Optional[int] = None,
    shrink: bool = True,
    repro_dir: str = ".repro_failures",
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run a differential fuzzing campaign over ``seeds`` random programs.

    Seeds are submitted to the worker pool in chunks so a wall-clock
    ``budget_s`` can stop the campaign between chunks; completed seeds are
    never abandoned mid-run, so results are deterministic per seed.
    """
    say = progress or (lambda _msg: None)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    configs = tuple(configs)
    report = FuzzReport(requested=seeds)
    started = time.monotonic()
    todo = list(range(start_seed, start_seed + seeds))
    chunk = max(jobs * 2, 4)
    while todo:
        if budget_s is not None and time.monotonic() - started > budget_s:
            report.budget_exhausted = True
            say(
                f"budget exhausted after {report.completed}/{seeds} seeds "
                f"({time.monotonic() - started:.0f}s)"
            )
            break
        batch, todo = todo[:chunk], todo[chunk:]
        outcomes = run_tasks(
            _fuzz_cell, [(s, configs, instructions) for s in batch], jobs=jobs
        )
        for seed, failure, regions in outcomes:
            report.completed += 1
            report.regions_opened.update(regions)
            report.seeds_with_regions.update(c for c, n in regions.items() if n)
            if failure is None:
                continue
            say(f"seed {seed}: {failure.describe()}")
            fail = FuzzFailure(seed=seed, failure=failure, spec=random_spec(seed))
            report.failures.append(fail)
    for fail in report.failures:
        if shrink and fail.failure.kind != "error":
            say(f"shrinking seed {fail.seed} …")
            fail.shrunk_spec, fail.shrunk_failure = shrink_failure(
                fail.spec, fail.failure,
                configs=configs, instructions=instructions,
            )
            say(
                f"seed {fail.seed} shrunk: size {_spec_size(fail.spec)} -> "
                f"{_spec_size(fail.shrunk_spec)}"
            )
        fail.repro_path = _write_repro(fail, repro_dir, configs, instructions)
        say(f"reproducer written to {fail.repro_path}")
    report.elapsed = time.monotonic() - started
    return report
