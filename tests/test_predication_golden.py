"""Golden SimStats for every configuration name on predicating workloads.

``simstats_fuzz.json`` runs 400 instructions per fuzz program, too few for
any ACB variant to predicate, and ``simstats_traces.json`` sees ACB
predicate on one mini-trace only, identically under three of its configs.
So neither golden can tell two ACB variants apart.  This one runs three
suite workloads on which the variants diverge — each ACB configuration
predicates on at least one of them — under all 13 registry names plus the
``@bullseye`` spellings, and pins every counter.

A deliberate behaviour change must regenerate it::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_predication_golden.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.runner import ACB_VARIANTS, SCHEME_FACTORIES, simulate

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "simstats_predication.json"
)

WORKLOADS = ("gobmk", "omnetpp", "chrome")
CONFIGS = tuple(sorted(SCHEME_FACTORIES)) + ("acb@bullseye", "baseline@bullseye")
WARMUP = 2000
MEASURE = 2000


def run(workload: str, config: str) -> dict:
    result = simulate(workload, config, warmup=WARMUP, measure=MEASURE)
    return json.loads(json.dumps(result.stats.to_dict()))


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        data = {
            workload: {config: run(workload, config) for config in CONFIGS}
            for workload in WORKLOADS
        }
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_matrix(golden):
    assert set(golden) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert set(golden[workload]) == set(CONFIGS)


def test_every_acb_variant_predicates(golden):
    """The pin is only as strong as its coverage: a variant that never
    predicates here could be swapped for another unnoticed."""
    for config in (*ACB_VARIANTS, "acb@bullseye"):
        assert any(
            golden[w][config]["predicated_instances"] > 0 for w in WORKLOADS
        ), config


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simstats_bit_identical(golden, workload):
    for config in CONFIGS:
        assert run(workload, config) == golden[workload][config], (
            f"SimStats drifted for workload={workload} config={config!r}"
        )
