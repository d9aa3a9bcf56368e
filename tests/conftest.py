"""Shared fixtures and workload factories for the test suite."""

from __future__ import annotations

import os

import pytest

# Keep the unit suite hermetic: no experiment store unless a test
# opts in explicitly (the CLI honours REPRO_CACHE via ExperimentStore.from_env).
os.environ.setdefault("REPRO_CACHE", "0")

from repro.program import ProgramBuilder
from repro.workloads import Bernoulli, Periodic, UniformRandom, Workload


def h2p_hammock_workload(
    p: float = 0.4,
    body: int = 3,
    seed: int = 7,
    ilp: int = 2,
    with_mem: bool = True,
) -> Workload:
    """Small IF-hammock kernel with a hard-to-predict branch."""
    b = ProgramBuilder("h2p")
    b.label("top")
    b.alu(dst=1, srcs=(1,))
    b.compare(srcs=(1,))
    b.cond_branch("skip", behavior="h2p")
    b.alu(dst=2, srcs=(1,), note="body.0")
    for i in range(1, body):
        b.alu(dst=2, srcs=(2,), note=f"body.{i}")
    b.label("skip")
    b.alu(dst=3, srcs=(2,), note="join")
    for i in range(ilp):
        reg = 8 + i % 4
        b.alu(dst=reg, srcs=(reg,))
    if with_mem:
        b.load(dst=4, srcs=(3,))
        b.store(srcs=(4,))
    b.jump("top")
    return Workload(
        "h2p", "test", b.build(), {"h2p": Bernoulli("h2p", p)}, seed=seed
    )


def predictable_workload(seed: int = 7) -> Workload:
    """Kernel whose only branch follows a short period: near-zero flushes."""
    b = ProgramBuilder("predictable")
    b.label("top")
    b.alu(dst=1, srcs=(1,))
    b.compare(srcs=(1,))
    b.cond_branch("skip", behavior="pat")
    b.alu(dst=2, srcs=(1,))
    b.label("skip")
    b.alu(dst=3, srcs=(2,))
    b.jump("top")
    return Workload(
        "predictable", "test", b.build(),
        {"pat": Periodic("pat", (True, False, False))}, seed=seed,
    )


def chase_workload(seed: int = 7, span_mb: int = 64) -> Workload:
    """Serialized DRAM pointer chase plus an H2P branch off the chain."""
    b = ProgramBuilder("chase")
    b.label("top")
    b.load(dst=14, srcs=(14,), behavior="chase")
    b.alu(dst=1, srcs=(1, 14))
    b.compare(srcs=(2,))
    b.cond_branch("skip", behavior="h2p")
    b.alu(dst=2, srcs=(2,))
    b.alu(dst=2, srcs=(2,))
    b.label("skip")
    b.alu(dst=3, srcs=(2,))
    b.jump("top")
    return Workload(
        "chase", "test", b.build(),
        {
            "chase": UniformRandom("chase", base=1 << 28, span=span_mb << 20),
            "h2p": Bernoulli("h2p", 0.4),
        },
        seed=seed,
    )


@pytest.fixture
def h2p_workload() -> Workload:
    return h2p_hammock_workload()
