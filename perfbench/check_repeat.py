"""Check that the deterministic per-layer counts repeat exactly.

    python3 perfbench/check_repeat.py --workload fig6_cold [--seed 0] [--smoke]

Runs the traced workload twice with the same seed and compares every
metric in ``metrics.DETERMINISTIC``; exits 1 and names the metric if any
differs.  Timings are not compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from metrics import DETERMINISTIC  # noqa: E402


def traced_counts(workload: str, seed: int, smoke: bool) -> dict:
    argv = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", "1"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=common.ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    first = traced_counts(args.workload, args.seed, args.smoke)
    second = traced_counts(args.workload, args.seed, args.smoke)
    differ = [name for name in DETERMINISTIC if first[name] != second[name]]
    for name in DETERMINISTIC:
        mark = "DIFFERS" if name in differ else "same"
        print(f"  {name:<32} {first[name]!r:>22} {second[name]!r:>22}  {mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
