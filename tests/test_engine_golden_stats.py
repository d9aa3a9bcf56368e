"""Bit-identical SimStats regression gate for engine optimizations.

The hot-loop work in ``repro.core.engine`` (heap event queue, idle-skip,
hoisted locals, precomputed decode flags, predictor index caching) is
*purely* an execution-speed concern: the paper's numbers must not move.
This suite pins the complete :class:`~repro.core.stats.SimStats` output —
every counter, including the per-branch profiles — for every scheme
configuration over a corpus of differential-fuzz seeds, against golden JSON
generated before the optimizations landed.

Any change to these numbers is an architectural change, not an
optimization, and must regenerate the goldens *deliberately*::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_engine_golden_stats.py

The fuzz corpus seeds exercise every generator shape (nested/multi-exit
hammocks, stores in predicated arms, loop-carried dependences, slow
sources), so together with the scheme sweep this covers each engine path
the optimizations touched.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import SKYLAKE_LIKE, Core
from repro.harness.runner import SCHEME_FACTORIES, prepare_run
from repro.validate.fuzz import random_spec
from repro.workloads.generator import build_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "simstats_fuzz.json"
)

#: ≥10 fuzz-corpus seeds (ISSUE 5 acceptance floor).
SEEDS = tuple(range(10))
#: every scheme configuration the harness can run, not just the paper's 7 —
#: plus the ``@predictor`` cross-products that pin the Bullseye backend.
CONFIGS = tuple(sorted(SCHEME_FACTORIES)) + (
    "acb@bullseye", "baseline@bullseye",
)
#: architectural instructions per run — small enough that the full
#: seeds × configs matrix stays in unit-test time, large enough to reach
#: steady predication/flush activity.
INSTRUCTIONS = 400


def simulate(seed: int, config: str) -> dict:
    """One deterministic run; returns the JSON-normalized stats dict."""
    workload = build_workload(random_spec(seed))
    cfg, scheme, predictor = prepare_run(workload, config, core_config=SKYLAKE_LIKE)
    core = Core(workload, cfg, scheme=scheme, predictor=predictor)
    stats = core.run(INSTRUCTIONS)
    # round-trip through JSON so the comparison matches what the golden
    # file stores (string keys, no tuples)
    return json.loads(json.dumps(stats.to_dict()))


def _regen_requested() -> bool:
    return bool(os.environ.get("REPRO_REGEN_GOLDEN"))


@pytest.fixture(scope="module")
def golden() -> dict:
    if _regen_requested():
        data = {
            str(seed): {config: simulate(seed, config) for config in CONFIGS}
            for seed in SEEDS
        }
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_corpus(golden):
    assert set(golden) == {str(s) for s in SEEDS}
    for seed in SEEDS:
        assert set(golden[str(seed)]) == set(CONFIGS)


@pytest.mark.parametrize("seed", SEEDS)
def test_simstats_bit_identical(golden, seed):
    for config in CONFIGS:
        got = simulate(seed, config)
        want = golden[str(seed)][config]
        assert got == want, (
            f"SimStats drifted for seed={seed} config={config!r}: an engine "
            f"'optimization' changed architectural numbers (or goldens need "
            f"a deliberate REPRO_REGEN_GOLDEN=1 regeneration)"
        )
