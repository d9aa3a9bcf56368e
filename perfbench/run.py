"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload fig6_cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` runs the workload again under spans and a module profile
and prints the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit).  Any wrong output makes the run
exit 1 after printing; a program that cannot be imported from the
checkout's ``src`` makes it exit 2 without printing a result.

See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("fig6_cold", "store_regen", "service_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the self-test; not a measurement")
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the processes it started are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    common.scrub_own_env()
    try:
        common.import_program()
    except ImportError as exc:
        print(f"perfbench: the program is not importable: {exc}", file=sys.stderr)
        return 2

    import metrics as catalogue

    module = __import__(args.workload)
    try:
        correct, attempted, failed, values, notes = module.run(
            args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except Exception:
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} failed", file=sys.stderr)
        return 3
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    common.emit(correct, attempted, failed,
                catalogue.complete(values, bool(args.trace)), notes)
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
