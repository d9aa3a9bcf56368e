"""Helpers shared by the perfbench workloads.

Everything here is benchmark-side: paths, the scrubbed child environment,
sample statistics, result digests and the seeded input draws.  No module
of the program is imported at module level, so ``run.py`` can check
that the program is importable from the checkout before touching it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import socket
import statistics
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PINNED_DIR = os.path.join(BENCH_DIR, "pinned")
#: scratch space for databases and child outputs; removed after every run
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: the paper's headline: ACB geomean speedup over baseline (Fig. 6)
PAPER_ACB_SPEEDUP = 1.080

#: fig6 cells run at the harness default window (runner.default_warmup /
#: default_measure); pinned here so the environment cannot change it
FIG6_WINDOW = (16_000, 12_000)
FIG6_CONFIGS = ("baseline", "acb")

#: the tiny window of store_regen's stored stats and of smoke runs
TINY_WINDOW = (200, 300)
#: the tiny windows service jobs simulate at
SERVICE_WARMUPS = (200, 240, 280, 320, 360, 400)
SERVICE_MEASURE = 300


#: the benchmark only talks to its own service on 127.0.0.1
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy")


def scrubbed_env() -> Dict[str, str]:
    """Environment for program processes: no ``REPRO_*`` knob survives.

    ``REPRO_JOBS``, ``REPRO_BACKEND``, ``REPRO_LANES``, ``REPRO_WARMUP``,
    ``REPRO_MEASURE``, ``REPRO_CACHE*``, ``REPRO_DIST_*``, ``REPRO_STORE``
    and ``REPRO_SERVICE_URL`` would each steer the traffic; the JSON cache
    is pinned off as well, and proxy settings are dropped.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k.lower() not in PROXY_VARS}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def scrub_own_env() -> None:
    """Apply :func:`scrubbed_env` to this process (before importing repro)."""
    for key in [k for k in os.environ
                if k.startswith("REPRO_") or k.lower() in PROXY_VARS]:
        del os.environ[key]
    os.environ["REPRO_CACHE"] = "0"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_program():
    """Import the program from this checkout's ``src``; raise if it is absent.

    A ``repro`` importable from anywhere else would be measured in place
    of the checkout, so that counts as absent too.
    """
    import repro

    here = os.path.realpath(os.path.dirname(repro.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"repro imported from {here}, not from {SRC}")
    return repro


def make_tmpdir(prefix: str) -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT)


def remove_tmpdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only when no other run still uses it
    except OSError:
        pass


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: The probe's duration on a shared 2-core VM at its usual speed.  That
#: VM's CPU throughput drifted by a third over seconds to minutes while
#: nothing else ran in it (the host's other tenants), so host times are
#: scaled to this nominal speed: measured x nominal / probe time.
NOMINAL_PROBE_S = 0.023


def probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host speed probe.

    Workloads call it between measured units, never inside one, and only
    while no program process is busy, so the program's own load cannot
    slow it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_speed(probes: Sequence[float]) -> float:
    """Nominal / median probe time: above 1 on a faster host than nominal."""
    return NOMINAL_PROBE_S / statistics.median(probes)


def host_scaled(samples: Sequence[float], probes: Sequence[float],
                every: int) -> List[float]:
    """Each sample scaled to nominal host speed by the probes around it.

    Probe *k* ran before sample ``k * every`` and one more after the last
    sample; a sample is scaled by the median of the two probes before and
    the two after its span, so a slow phase of a few seconds is scaled out
    of the samples it slowed and no others.
    """
    out = []
    for i, sample in enumerate(samples):
        k = i // every
        out.append(sample * host_speed(probes[max(0, k - 1):k + 3]))
    return out


# ----------------------------------------------------------------------
# sample statistics
# ----------------------------------------------------------------------
def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``: nearest rank ``n - 10`` of
    the sorted samples.  With ten samples or fewer no percentile has ten
    beyond it; the maximum is returned and the percentile reads 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return statistics.geometric_mean(vals)


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# cells, digests and pins
# ----------------------------------------------------------------------
def cell_id(workload: str, config: str, warmup: int, measure: int) -> str:
    return f"{workload}|{config}|{warmup}|{measure}"


def stats_digest(stats: Dict) -> str:
    """Digest of ``SimStats.to_dict()`` (or its JSON round trip)."""
    payload = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def load_pins(name: str) -> Dict[str, str]:
    with open(os.path.join(PINNED_DIR, f"{name}.json")) as fh:
        return json.load(fh)["digests"]


def suite_by_category() -> Dict[str, List[str]]:
    from repro.workloads import categories

    return {cat: sorted(names) for cat, names in sorted(categories().items())}


def stratified_draw(rng: random.Random, per_category: int,
                    exclude: Sequence[str] = ()) -> List[str]:
    """*per_category* workloads from each suite category, in a seeded order."""
    skip = set(exclude)
    out: List[str] = []
    for names in suite_by_category().values():
        pool = [n for n in names if n not in skip]
        out.extend(rng.sample(pool, min(per_category, len(pool))))
    return out


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]],
         notes: Optional[Dict] = None) -> None:
    """Print the human-readable block, then the one-line JSON result."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for name, value in (notes or {}).items():
        print(f"  # {name}: {value}")
    if attempted:
        print(f"  # error_rate: {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    sys.stdout.flush()
