"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run WORKLOAD [--config acb] [--scale 1]``
    Simulate one workload under a named configuration and print the
    measurement-window statistics.  ``WORKLOAD`` is a suite name or a
    trace reference — ``trace:<mini-trace>`` (committed under
    ``tests/traces/``) or ``trace:<path>`` for any trace file on disk.
``compare WORKLOAD [CONFIG ...]``
    Run several configurations on one workload side by side.
``suite``
    List the 70 workloads by category (Table III).
``convert-trace INPUT [--window N] [--offset N] [--out FILE]``
    Ingest a branch trace (native ``.rbt.gz`` or CBP-style text), cut a
    replay window out of it with proportional ACB/Dynamo epoch scaling,
    print its summary statistics (static branches, taken rate, per-PC
    misprediction concentration under TAGE), and write the converted
    native trace (see docs/workloads.md, "Trace-driven workloads").
``experiment NAME``
    Run one figure/table driver (``fig6``, ``fig8``, ``table1`` ...) and
    print its structured result.
``validate [--seeds 50] [--budget 120s]``
    Differential fuzzing: cross-check golden vs. baseline vs. ACB
    retirement traces on seeded random programs, shrinking any failure to
    a minimal reproducer on disk (see docs/validation.md).
``trace WORKLOAD [--config acb] [--out DIR] [--formats ...]``
    Re-simulate one workload with the cycle-level trace collector enabled
    and export pipeline/decision artifacts: a Konata log, a Chrome
    trace-event JSON (Perfetto), the ACB decision log, and a per-branch
    timeline (see docs/observability.md).
``bench [--quick] [--compare BASELINE.json] [--profile]``
    Time the simulator itself on a pinned target matrix (the Figure 6
    smoke set, a per-scheme sweep, per-stage microbenchmarks) and emit a
    schema-versioned ``BENCH_<tag>.json``; ``--compare`` prints speedups
    against an earlier report and exits nonzero past the regression
    threshold (see docs/performance.md).
``serve [--port 8321] [--db FILE]``
    Run the simulation service: an HTTP API that accepts experiment
    matrices as JSON, executes them on a background job queue, and backs
    them with the SQLite experiment database (see docs/service.md).
``submit WORKLOAD [WORKLOAD ...] [--configs ...] [--url URL]``
    Client for a running service: submit a workload × config matrix over
    HTTP, stream progress, and print the fetched results.
``runs [--workload W] [--config C] [--url URL | --db FILE]``
    Query the experiment database — every run ever executed, keyed by
    config hash — over HTTP or directly from the SQLite file.
``worker [--url URL] [--id NAME] [--ttl S] [--max-idle S]``
    Run one distributed worker: pull leased matrix cells from a service,
    simulate them through the standard runner path, and post the stats
    back (lease → heartbeat → ack; see docs/distributed.md).
``dashboard [--db FILE] [--out FILE] [--bench-dir DIR]``
    Render the experiment database (and any ``BENCH_<tag>.json`` reports
    next to it) into one self-contained HTML file — no external assets,
    works from ``file://`` (see docs/dashboard.md).

Global options
--------------
``--jobs N``       fan simulation matrices out over N worker processes
                   (default: ``REPRO_JOBS`` env var, else all cores).
``--backend B``    matrix dispatch backend: ``serial``, ``pool`` or
                   ``distributed`` (sets ``REPRO_BACKEND``; default: the
                   env var, else picked from --jobs).  ``distributed``
                   shards cells across worker processes via the service
                   API (see docs/distributed.md).
``--store FILE``   the experiment database results are read from and
                   written to (default: ``REPRO_STORE``, else
                   ``.repro_store/experiments.sqlite``); repeated
                   invocations of the same matrix skip already-simulated
                   cells, and ``repro runs`` / the dashboard show them.
                   ``serve`` opens its own ``--db``; ``worker`` results
                   go to the service's.
``--no-cache``     attach no experiment database for this invocation
                   (same as ``REPRO_CACHE=0``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.harness import experiments, format_table, pct
from repro.harness.cache import set_active_store
from repro.harness.parallel import (
    BACKENDS,
    RunRequest,
    resolve_backend,
    run_matrix,
    session_summary,
)
from repro.harness.reporting import summarize_session
from repro.harness.runner import config_problem
from repro.validate.differential import DEFAULT_CONFIGS
from repro.workloads import categories, suite_names
from repro.workloads.frontier import is_frontier_name
from repro.workloads.trace import is_trace_name, resolve_trace_path

EXPERIMENTS = {
    "fig1": experiments.fig1_scaling_potential,
    "sec2": experiments.sec2_characterization,
    "eq1": experiments.eq1_profitability,
    "fig6": experiments.fig6_acb_summary,
    "fig6-traces": experiments.fig6_traces_summary,
    "fig7": experiments.fig7_correlation,
    "fig8": experiments.fig8_vs_dmp,
    "fig8-frontier": experiments.fig8_frontier,
    "fig9": experiments.fig9_dmp_pbh,
    "fig10": experiments.fig10_alloc_stalls,
    "fig11": experiments.fig11_vs_dhp,
    "table1": experiments.table1_storage,
    "table2": experiments.table2_core_params,
    "table3": experiments.table3_workloads,
    "sec5d": experiments.sec5d_core_scaling,
    "sec5e": experiments.sec5e_power_proxies,
}


def _workload_ref(name: str) -> str:
    """argparse type: a suite workload name or ``trace:<name-or-path>``."""
    if is_trace_name(name):
        try:
            resolve_trace_path(name)
        except KeyError as exc:
            raise argparse.ArgumentTypeError(str(exc).strip("'\"")) from None
        return name
    if name in suite_names() or is_frontier_name(name):
        return name
    raise argparse.ArgumentTypeError(
        f"unknown workload {name!r}: not a suite workload (see `repro suite`), "
        f"not a frontier workload, and not a trace:<name-or-path> reference"
    )


def _config_ref(name: str) -> str:
    """argparse type: a configuration name, optionally ``@<predictor>``.

    ``choices=`` can't express the open ``scheme@predictor`` product, so
    this defers to the harness's own :func:`config_problem`.
    """
    problem = config_problem(name)
    if problem is not None:
        raise argparse.ArgumentTypeError(problem)
    return name


def _config_list(text: str) -> tuple[str, ...]:
    """argparse type: comma-separated configuration names."""
    return tuple(_config_ref(c.strip()) for c in text.split(",") if c.strip())


def _cmd_run(args: argparse.Namespace) -> int:
    # one-cell matrix rather than a bare run_workload() call, so the
    # --backend / --jobs plumbing applies to `run` too
    result = run_matrix(
        [RunRequest(args.workload, args.config, core_scale=args.scale)]
    )[0]
    print(f"{result.workload} [{result.category}] under {result.config}:")
    for key, value in result.stats.summary().items():
        print(f"  {key:14s} {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = run_matrix([
        RunRequest(args.workload, config, core_scale=args.scale)
        for config in args.configs
    ])
    base = results[0].stats.cycles if results else 0
    rows = []
    for config, result in zip(args.configs, results):
        rows.append([
            config,
            f"{result.stats.ipc:.3f}",
            str(result.stats.flushes),
            str(result.stats.predicated_instances),
            pct(base / result.stats.cycles),
        ])
    print(format_table(["config", "ipc", "flushes", "predicated", "vs first"], rows))
    return 0


def _cmd_suite(_args: argparse.Namespace) -> int:
    for category, names in categories().items():
        print(f"{category} ({len(names)}):")
        print("  " + ", ".join(sorted(names)))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS.get(args.name)
    if driver is None:
        print(f"unknown experiment {args.name!r}; choose from {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    result = driver()
    result.pop("results", None)  # strip non-serializable run objects
    print(json.dumps(result, indent=2, default=str))
    return 0


def _parse_budget(text: str) -> float:
    """Parse a wall-clock budget like ``120``, ``120s``, or ``2m``."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r}; use e.g. 90, 120s, or 2m"
        ) from None
    return value * factor


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.fuzz import replay_file, run_fuzz

    if args.replay:
        failure = replay_file(args.replay)
        if failure is None:
            print(f"{args.replay}: passes (no divergence, no violations)")
            return 0
        print(f"{args.replay}: still failing\n  {failure.describe()}")
        return 1

    configs = args.configs
    report = run_fuzz(
        seeds=args.seeds,
        start_seed=args.start_seed,
        configs=configs,
        instructions=args.instructions,
        budget_s=args.budget,
        shrink=not args.no_shrink,
        repro_dir=args.repro_dir,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    status = "OK" if report.ok else "FAIL"
    tail = " (budget exhausted)" if report.budget_exhausted else ""
    print(
        f"validate: {status} — {report.completed}/{report.requested} seeds, "
        f"{len(report.failures)} failure(s), configs={','.join(configs)}, "
        f"{report.elapsed:.1f}s{tail}"
    )
    for config in configs:
        print(
            f"  regions opened by {config}: {report.regions_opened[config]} on "
            f"{report.seeds_with_regions[config]}/{report.completed} seeds"
        )
    for fail in report.failures:
        print(f"  seed {fail.seed}: {fail.failure.describe()}")
        if fail.repro_path:
            print(f"    reproducer: {fail.repro_path}")
    return 0 if report.ok else 1


_TRACE_FORMATS = ("konata", "chrome", "log", "timeline")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.harness.parallel import record_artifacts
    from repro.trace.driver import run_traced

    try:
        traced = run_traced(
            args.workload, args.config,
            out_dir=args.out, formats=args.formats,
            warmup=args.warmup, measure=args.measure, scale=args.scale,
            pc=args.pc, uop_capacity=args.uop_capacity,
            acb_capacity=args.acb_capacity,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for artifact in traced.artifacts:
        print(f"  {artifact.path}: {artifact.detail}")
    record_artifacts(traced.paths, workload=args.workload, config=args.config,
                     wall_time=traced.wall_time)
    stats = traced.stats
    print(
        f"{args.workload} [{args.config}]: {stats.instructions} instructions, "
        f"{stats.cycles} cycles (IPC {stats.ipc:.3f}) — "
        f"{traced.trace_summary}"
    )
    if traced.truncated_uops or traced.truncated_acb:
        print(
            f"  warning: ring buffers wrapped "
            f"({traced.truncated_uops} uops, "
            f"{traced.truncated_acb} ACB events dropped); "
            f"raise --uop-capacity/--acb-capacity or shrink the window",
            file=sys.stderr,
        )
    return 0


def _cmd_convert_trace(args: argparse.Namespace) -> int:
    from repro.workloads.trace import (
        TraceFormatError,
        TraceMeta,
        downsample,
        load_branch_trace,
        recommended_acb_scale,
        summarize,
        trace_stem,
        write_trace,
    )

    try:
        meta, records = load_branch_trace(args.input)
        window, offset = downsample(records, args.window, args.offset)
    except (TraceFormatError, ValueError) as exc:
        print(f"convert-trace: {exc}", file=sys.stderr)
        return 2
    if not window:
        print(f"convert-trace: {args.input} holds no branch events",
              file=sys.stderr)
        return 2

    summary = summarize(window)
    scale = recommended_acb_scale(len(window))
    print(f"{args.input}: {len(records)} events"
          + (f", window [{offset}, {offset + len(window)})" if args.window else ""))
    print(summary.format())
    print(f"acb scale        {scale} (windows reduced 1/{scale})")
    if args.stats_only:
        return 0

    name = args.name or trace_stem(args.input)
    out = args.out or os.path.join(
        ".repro_traces", "converted", f"{name}.rbt.gz"
    )
    out_meta = TraceMeta(
        name=name,
        records=len(window),
        source=meta.source or args.input,
        source_records=meta.source_records or len(records),
        window_offset=meta.window_offset + offset,
        acb_scale=scale,
        notes=meta.notes,
    )
    write_trace(out, window, out_meta)
    print(f"wrote {out} ({os.path.getsize(out)} bytes, {len(window)} records)")
    print(f"replay with: python -m repro run trace:{out} --config acb")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import compare_reports, format_compare, run_bench, validate_report

    baseline = None
    if args.compare:
        try:
            with open(args.compare) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.compare}: {exc}", file=sys.stderr)
            return 2
        problems = validate_report(baseline)
        if problems:
            print(f"baseline {args.compare} is not a valid bench report:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 2

    report = run_bench(
        quick=args.quick,
        tag=args.tag,
        groups=args.groups,
        profile=args.profile,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )

    out_path = args.out or f"BENCH_{args.tag}.json"
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    total_wall = sum(r["wall_s"] for r in report["runs"])
    print(f"{out_path}: {len(report['runs'])} runs, {total_wall:.1f}s total "
          f"({'quick' if args.quick else 'full'} matrix)")
    if report["profile"] is not None:
        top = report["profile"]["functions"][:8]
        print("hottest simulator functions (tottime):")
        for row in top:
            print(f"  {row['tottime_s']:8.3f}s  {row['calls']:>10d}  "
                  f"{row['function']}")

    if baseline is None:
        return 0
    result = compare_reports(baseline, report)
    print(format_compare(result, baseline_tag=baseline.get("tag", "baseline")))
    if not result.rows:
        print("no comparable runs between the two reports", file=sys.stderr)
        return 2
    if result.regressed(args.threshold):
        print(
            f"REGRESSION: overall {result.overall:.2f}x is past the "
            f"1/{args.threshold:.2f} threshold", file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.app import ROUTES, Service, make_server
    from repro.service.store import StoreSchemaError

    # a shell starts background jobs with SIGINT ignored, and Python then
    # keeps it ignored: restore it so `kill -INT` shuts down cleanly
    signal.signal(signal.SIGINT, signal.default_int_handler)

    try:
        # Service.create installs the store behind the run memo, so
        # resubmitted matrices are served from the DB without re-simulation
        service = Service.create(
            db_path=args.db, artifact_dir=args.artifact_dir, jobs=args.jobs,
        )
    except StoreSchemaError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro service on http://{host}:{port}  "
          f"(db: {service.store.path}, {service.store.count_runs()} stored runs)")
    print(f"  {len(ROUTES)} routes under /api/v1 — see docs/service.md")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    # `repro --backend distributed submit ...` queues the matrix for
    # pull-based workers instead of the server's local job queue
    backend = resolve_backend(None)
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        job = client.submit(
            workloads=args.workloads, configs=args.configs,
            warmup=args.warmup, measure=args.measure,
            core_scale=args.scale,
            backend="distributed" if backend == "distributed" else None,
        )
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    print(f"job {job['job_id']}: {job['total']} cells submitted "
          f"to {client.url}")
    if args.no_wait:
        print(f"poll with: python -m repro runs --url {client.url}  "
              f"(or GET /api/v1/jobs/{job['job_id']})")
        return 0

    def show(event):
        if event["event"] == "cell":
            print(f"  [{event['done']}/{event['total']}] "
                  f"{event['workload']} × {event['config']} "
                  f"({event['source']})", file=sys.stderr)

    try:
        status = client.wait(job["job_id"], timeout=args.timeout,
                             on_event=show)
        results = client.results(job["job_id"])
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    rows = []
    for result in results:
        stats = result["stats"]
        cycles = stats.get("cycles", 0)
        rows.append([
            result["workload"],
            result["config"],
            f"{stats.get('instructions', 0) / cycles:.3f}" if cycles else "-",
            str(stats.get("flushes", 0)),
            result["run_id"],
            result["source"],
        ])
    print(format_table(
        ["workload", "config", "ipc", "flushes", "run_id", "source"], rows
    ))
    print(f"job {status['job_id']}: {status['simulated']} simulated, "
          f"{status['cache_hits']} cache/store hits, "
          f"wall {status['wall_time']:.2f}s")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    if args.url is not None:
        from repro.service.client import ServiceClient, ServiceError

        try:
            rows = ServiceClient(args.url).runs(
                workload=args.workload, config=args.config, limit=args.limit
            )
        except ServiceError as exc:
            print(f"runs: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.service.store import ExperimentStore, StoreSchemaError

        store = ExperimentStore(args.db, strict=True)
        try:
            rows = store.query_runs(
                workload=args.workload, config=args.config, limit=args.limit
            )
        except StoreSchemaError as exc:
            print(f"runs: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no stored runs match")
        return 0
    print(format_table(
        ["run_id", "workload", "config", "window", "ipc", "created"],
        [[r["run_id"], r["workload"], r["config"],
          f"{r['warmup']}+{r['measure']}", f"{r['ipc']:.3f}", r["created"]]
         for r in rows],
    ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.harness.distributed import run_worker
    from repro.service.client import ServiceError, service_url

    url = service_url(args.url)
    options = {}
    if args.ttl is not None:
        options["ttl"] = args.ttl
    try:
        completed = run_worker(
            url=url,
            worker_id=args.id,
            max_idle=args.max_idle,
            once=args.once,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr),
            **options,
        )
    except ServiceError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker: interrupted", file=sys.stderr)
        return 1
    print(f"worker done: {completed} cell(s) completed from {url}")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.dashboard import generate

    try:
        report = generate(
            db_path=args.db,
            out_path=args.out,
            bench_dir=args.bench_dir,
            limit=args.limit,
            title=args.title,
        )
    except OSError as exc:
        print(f"dashboard: {exc}", file=sys.stderr)
        return 2
    print(f"{report.out_path}: {report.size_bytes} bytes — "
          f"{report.runs} stored runs, {report.jobs} jobs, "
          f"{report.bench_reports} bench report(s)")
    print("self-contained HTML; open it directly in a browser")
    return 0


def _report_manifests() -> None:
    summary = session_summary()
    if summary.matrices:
        print(summarize_session(summary), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="ACB (ISCA 2020) reproduction harness"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for experiment matrices "
             "(default: REPRO_JOBS, else all cores)",
    )
    parser.add_argument(
        "--backend", default=None, choices=BACKENDS,
        help="matrix dispatch backend (sets REPRO_BACKEND; 'distributed' "
             "shards cells across worker processes via the service API, "
             "see docs/distributed.md)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the experiment database",
    )
    parser.add_argument(
        "--store", default=None, metavar="FILE",
        help="experiment database results are read from and written to "
             "(default: REPRO_STORE, else .repro_store/experiments.sqlite; "
             "see docs/service.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload", type=_workload_ref, metavar="WORKLOAD",
                       help="suite workload or trace:<name-or-path>")
    p_run.add_argument("--config", default="acb", type=_config_ref,
                       help="configuration name, optionally @<predictor> "
                            "(e.g. acb@bullseye)")
    p_run.add_argument("--scale", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare configurations")
    p_cmp.add_argument("workload", type=_workload_ref, metavar="WORKLOAD",
                       help="suite workload or trace:<name-or-path>")
    p_cmp.add_argument("configs", nargs="*",
                       default=["baseline", "acb", "dmp", "dhp"])
    p_cmp.add_argument("--scale", type=int, default=1)
    p_cmp.set_defaults(func=_cmd_compare)

    p_suite = sub.add_parser("suite", help="list the workload suite")
    p_suite.set_defaults(func=_cmd_suite)

    p_exp = sub.add_parser("experiment", help="run a figure/table driver")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.set_defaults(func=_cmd_experiment)

    p_val = sub.add_parser(
        "validate", help="differential fuzzing of the timing engine"
    )
    p_val.add_argument("--seeds", type=int, default=50,
                       help="number of random programs to cross-check")
    p_val.add_argument("--start-seed", type=int, default=0,
                       help="first seed of the campaign")
    p_val.add_argument("--budget", type=_parse_budget, default=None,
                       metavar="TIME", help="wall-clock budget, e.g. 120s or 2m")
    p_val.add_argument("--configs", default=",".join(DEFAULT_CONFIGS),
                       type=_config_list,
                       help="comma-separated timing configurations to check "
                            "(scheme names, optionally @<predictor>)")
    p_val.add_argument("--instructions", type=int, default=1200,
                       help="architectural instructions per program")
    p_val.add_argument("--repro-dir", default=".repro_failures",
                       help="directory for shrunk failure reproducers")
    p_val.add_argument("--no-shrink", action="store_true",
                       help="write failures without shrinking them first")
    p_val.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run a written reproducer instead of fuzzing")
    p_val.set_defaults(func=_cmd_validate)

    p_trc = sub.add_parser(
        "trace", help="export cycle-level pipeline and ACB decision traces"
    )
    p_trc.add_argument("workload", type=_workload_ref, metavar="WORKLOAD",
                       help="suite workload or trace:<name-or-path>")
    p_trc.add_argument("--config", default="acb", type=_config_ref,
                       help="configuration name, optionally @<predictor>")
    p_trc.add_argument("--scale", type=int, default=1)
    p_trc.add_argument("--warmup", type=int, default=3000,
                       help="warm-up instructions before the traced window")
    p_trc.add_argument("--measure", type=int, default=2000,
                       help="instructions in the traced measurement window")
    p_trc.add_argument("--out", default=None, metavar="DIR",
                       help="output directory "
                            "(default: .repro_traces/WORKLOAD-CONFIG)")
    p_trc.add_argument("--formats", nargs="*", metavar="FMT",
                       help=f"subset of {_TRACE_FORMATS} (default: all)")
    p_trc.add_argument("--pc", type=int, default=None,
                       help="restrict the timeline to one branch PC")
    p_trc.add_argument("--uop-capacity", type=int, default=1 << 16,
                       help="uop ring-buffer capacity (oldest dropped)")
    p_trc.add_argument("--acb-capacity", type=int, default=1 << 14,
                       help="ACB event ring-buffer capacity")
    p_trc.set_defaults(func=_cmd_trace)

    p_cvt = sub.add_parser(
        "convert-trace",
        help="ingest a branch trace: downsample, characterize, write native",
    )
    p_cvt.add_argument("input", metavar="INPUT",
                       help="trace file (.rbt[.gz] native, .cbp/.txt[.gz] text)")
    p_cvt.add_argument("--window", type=int, default=None, metavar="N",
                       help="keep only N events (default: the whole trace)")
    p_cvt.add_argument("--offset", type=int, default=0, metavar="N",
                       help="start the window N events in (default 0)")
    p_cvt.add_argument("--out", default=None, metavar="FILE",
                       help="output path (default: "
                            ".repro_traces/converted/<name>.rbt.gz)")
    p_cvt.add_argument("--name", default=None,
                       help="trace name recorded in the header "
                            "(default: input stem)")
    p_cvt.add_argument("--stats-only", action="store_true",
                       help="characterize without writing a converted trace")
    p_cvt.set_defaults(func=_cmd_convert_trace)

    p_bench = sub.add_parser(
        "bench", help="time the simulator on the pinned target matrix"
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="CI-sized matrix: fewer workloads, small windows")
    p_bench.add_argument("--tag", default="local",
                         help="report label; default output is BENCH_<tag>.json")
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="report path (default: BENCH_<tag>.json)")
    p_bench.add_argument("--groups", nargs="*", metavar="GROUP",
                         help="subset of target groups "
                              "(fig6, scheme, trace, frontier, micro)")
    p_bench.add_argument("--compare", default=None, metavar="BASELINE",
                         help="earlier BENCH_*.json to compare against")
    p_bench.add_argument("--threshold", type=float, default=1.5,
                         help="--compare fails past this overall slowdown "
                              "factor (default 1.5)")
    p_bench.add_argument("--profile", action="store_true",
                         help="attach a cProfile per-function breakdown")
    p_bench.set_defaults(func=_cmd_bench)

    p_srv = sub.add_parser(
        "serve", help="run the simulation service (HTTP API + job queue)"
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8321,
                       help="TCP port (default 8321; 0 = ephemeral)")
    p_srv.add_argument("--db", default=None, metavar="FILE",
                       help="experiment database "
                            "(default .repro_store/experiments.sqlite)")
    p_srv.add_argument("--artifact-dir", default=None, metavar="DIR",
                       help="trace artifact directory "
                            "(default: <db dir>/artifacts)")
    p_srv.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    p_srv.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a matrix to a running service over HTTP"
    )
    p_sub.add_argument("workloads", nargs="+", type=_workload_ref,
                       metavar="WORKLOAD",
                       help="suite workloads or trace:<name-or-path> refs")
    p_sub.add_argument("--configs", nargs="+", type=_config_ref,
                       default=["baseline", "acb"],
                       help="configuration names, optionally @<predictor>")
    p_sub.add_argument("--url", default=None,
                       help="service base URL (default: REPRO_SERVICE_URL, "
                            "else http://127.0.0.1:8321)")
    p_sub.add_argument("--warmup", type=int, default=None)
    p_sub.add_argument("--measure", type=int, default=None)
    p_sub.add_argument("--scale", type=int, default=None,
                       help="core scale factor for every cell")
    p_sub.add_argument("--timeout", type=float, default=600.0,
                       help="seconds to wait for completion (default 600)")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="print the job id and return without waiting")
    p_sub.set_defaults(func=_cmd_submit)

    p_runs = sub.add_parser(
        "runs", help="query the experiment database (HTTP or local file)"
    )
    p_runs.add_argument("--url", default=None,
                        help="query a running service instead of a local DB")
    p_runs.add_argument("--db", default=None, metavar="FILE",
                        help="experiment database file "
                             "(default .repro_store/experiments.sqlite)")
    p_runs.add_argument("--workload", default=None)
    p_runs.add_argument("--config", default=None)
    p_runs.add_argument("--limit", type=int, default=50)
    p_runs.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of a table")
    p_runs.set_defaults(func=_cmd_runs)

    p_wrk = sub.add_parser(
        "worker", help="pull and execute distributed matrix cells"
    )
    p_wrk.add_argument("--url", default=None,
                       help="service base URL (default: REPRO_SERVICE_URL, "
                            "else http://127.0.0.1:8321)")
    p_wrk.add_argument("--id", default=None, metavar="NAME",
                       help="worker identity reported in leases "
                            "(default: <hostname>-<pid>)")
    p_wrk.add_argument("--ttl", type=float, default=None, metavar="S",
                       help="lease deadline the worker asks for; renewed by "
                            "heartbeat at ttl/3 (default 15)")
    p_wrk.add_argument("--max-idle", type=float, default=None, metavar="S",
                       help="exit after the queue stays empty this long "
                            "(0 = drain and stop; default: wait forever)")
    p_wrk.add_argument("--once", action="store_true",
                       help="exit after completing a single cell")
    p_wrk.set_defaults(func=_cmd_worker)

    p_dash = sub.add_parser(
        "dashboard", help="render the experiment DB to one HTML file"
    )
    p_dash.add_argument("--db", default=None, metavar="FILE",
                        help="experiment database "
                             "(default .repro_store/experiments.sqlite)")
    p_dash.add_argument("--out", default="repro_dashboard.html",
                        metavar="FILE", help="output HTML path")
    p_dash.add_argument("--bench-dir", default=".", metavar="DIR",
                        help="directory scanned for BENCH_<tag>.json "
                             "trajectory reports (default: cwd)")
    p_dash.add_argument("--limit", type=int, default=500,
                        help="most recent stored runs to include (default 500)")
    p_dash.add_argument("--title", default=None,
                        help="dashboard page title")
    p_dash.set_defaults(func=_cmd_dashboard)

    args = parser.parse_args(argv)
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(max(1, args.jobs))
    if args.backend is not None:
        os.environ["REPRO_BACKEND"] = args.backend
    store = None
    if not args.no_cache and args.command not in ("serve", "worker"):
        from repro.service.store import ExperimentStore

        # tolerant attach: a broken store degrades to warnings, it must
        # never fail a CLI run that would otherwise simulate fine
        store = ExperimentStore.from_env(args.store)
    previous = set_active_store(store)
    try:
        return args.func(args)
    finally:
        set_active_store(previous)
        _report_manifests()


if __name__ == "__main__":
    raise SystemExit(main())
