"""Regenerate the pinned SimStats digests the correctness gate checks.

    python3 perfbench/pin.py [fig6_cells] [tiny_cells] [service_cells]

``fig6_cells`` pins every suite workload under ``baseline`` and ``acb`` at
the fig6 window, so any seed's held-out draw is covered; ``tiny_cells``
pins the same pairs at the tiny window of stored stats and smoke runs,
and ``service_cells`` at each window service jobs use.  The
simulator is deterministic and must stay bit-identical, so these files
change only with a deliberate change of simulated behaviour.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def universe(name: str):
    from repro.workloads import suite_names

    if name == "fig6_cells":
        windows = [common.FIG6_WINDOW]
    elif name == "tiny_cells":
        windows = [common.TINY_WINDOW]
    elif name == "service_cells":
        windows = [(w, common.SERVICE_MEASURE) for w in common.SERVICE_WARMUPS]
    else:
        raise SystemExit(f"unknown pin set {name!r}")
    return [(w, c, *win) for w in suite_names()
            for c in common.FIG6_CONFIGS for win in windows]


def pin(name: str) -> None:
    from repro.harness.runner import clear_memo, run_workload

    digests = {}
    for workload, config, warmup, measure in universe(name):
        result = run_workload(workload, config, warmup=warmup, measure=measure)
        clear_memo()
        key = common.cell_id(workload, config, warmup, measure)
        digests[key] = common.stats_digest(result.stats.to_dict())
    path = os.path.join(common.PINNED_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"description": __doc__.split("\n\n")[0],
                   "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{path}: {len(digests)} cells")


if __name__ == "__main__":
    common.scrub_own_env()
    common.import_program()
    for set_name in sys.argv[1:] or ["fig6_cells", "tiny_cells", "service_cells"]:
        pin(set_name)
