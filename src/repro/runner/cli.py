"""Command-line front end: ``python -m repro``.

Subcommands
-----------
``list-experiments``
    Table of every figure/table preset and the available scales.
``run``
    Execute one experiment preset at a chosen scale, with ``--workers``
    for pool parallelism (``--executor thread`` for the shared-memory
    pool, ``--kernel-threads`` for OpenMP row-parallel compiled
    kernels), a pluggable result store for resumable
    runs (``--store sqlite:results.db`` / ``--cache-dir`` for the default
    json-dir layout, ``--no-cache`` to disable), cooperative **fleet
    execution** (``--fleet``: several processes pointed at one shared
    store split the sweep under TTL leases with no coordinator),
    ``--kernel`` to pin a :mod:`repro.kernels` backend, ``--seed-scheme``
    to pick the :mod:`repro.seeds` run-stream derivation, and optional
    CSV / appendix-style table output through the analysis layer.
``cache``
    Inspect (``cache info``), empty (``cache clear``, optionally
    ``--scheme`` for one seed scheme's entries), migrate
    (``cache migrate SRC DST``) or serve (``cache serve SRC --host
    --port [--token]``: front the store with the HTTP server so remote
    workers reach it via ``--store http:HOST:PORT``) a result store;
    every action accepts a store URI (``json-dir:PATH``, ``sqlite:PATH``,
    ``memory:NAME``, ``http:HOST:PORT`` or a bare json-dir path).
``rerun-unit``
    Re-execute one work unit from its provenance payload (the exact
    command recorded by the sqlite backend) and print the result payload.

Examples
--------
::

    python -m repro list-experiments
    python -m repro run fig09 --scale tiny --workers 4
    python -m repro run fig09 --scale small --store sqlite:fig09.db --fleet
    python -m repro run table5 --scale small --runs 2 --csv-dir results/
    python -m repro cache info --store sqlite:fig09.db
    python -m repro cache migrate .repro_cache sqlite:results.db
    python -m repro cache serve sqlite:fig09.db --host 0.0.0.0 --port 8737
    python -m repro run fig09 --store http:192.0.2.10:8737 --fleet
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.experiments import (
    EXPERIMENTS,
    SCALES,
    TABLE_TO_EXPERIMENT,
    get_experiment,
    run_experiment,
)
from repro.kernels import KernelUnavailableError, get_backend
from repro.resilience.errors import HttpStoreError, ResilienceError
from repro.resilience.policy import DEFAULT_POLICY, ON_ERROR_ACTIONS, FailurePolicy
from repro.runner.engine import grid_cells
from repro.runner.options import DEFAULT_LEASE_TTL, ExecutionOptions
from repro.runner.units import plan_units
from repro.store.base import LeaseUnsupportedError, ResultStore
from repro.store.json_dir import DEFAULT_CACHE_DIR
from repro.store.registry import DEFAULT_HOST, DEFAULT_PORT, resolve_store


def _seed_value(text: str) -> int:
    """``--seed``: a non-negative integer, as every seed scheme requires."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the figures and tables of Neumann et al. (2005) with "
            "the parallel experiment-execution engine."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list-experiments", help="list experiment presets and scales"
    )

    run = subparsers.add_parser("run", help="run one experiment preset")
    run.add_argument(
        "experiment",
        help="experiment or table id (e.g. fig09, table5); see list-experiments",
    )
    run.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="experiment scale (default: small)",
    )
    run.add_argument("--runs", type=int, default=None, help="override runs per grid point")
    run.add_argument(
        "--seed", type=_seed_value, default=0, help="top-level seed, >= 0 (default: 0)"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size; omit or 1 for the serial executor",
    )
    run.add_argument(
        "--executor",
        choices=("serial", "process", "thread"),
        default=None,
        help=(
            "force an executor: 'serial', 'process' (pickling pool, the "
            "default when --workers > 1), or 'thread' (shared-memory pool "
            "-- compiled kernels release the GIL, so thread workers share "
            "the prototype cache instead of re-pickling it)"
        ),
    )
    cache_group = run.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--resume",
        action="store_true",
        help="use the on-disk result store to skip completed cells (default)",
    )
    cache_group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result store entirely",
    )
    run.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"json-dir store directory (default: {DEFAULT_CACHE_DIR})",
    )
    run.add_argument(
        "--store",
        default=None,
        metavar="URI",
        help=(
            "result-store URI: 'json-dir:PATH' (the historical file-per-"
            "unit layout), 'sqlite:PATH' (single-file indexed store, "
            "recommended for large sweeps and fleets), 'memory:NAME', "
            "'http:HOST:PORT' (a remote store behind 'cache serve' -- "
            "what multi-host fleets use), or a bare directory path "
            "(json-dir).  Overrides --cache-dir"
        ),
    )
    run.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "cooperative fleet execution: claim work units from the shared "
            "--store under TTL leases, so several processes running this "
            "exact command split the sweep with no coordinator and no "
            "duplicated work; every process prints the complete result"
        ),
    )
    run.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help=(
            "fleet lease time-to-live; a worker that stops heartbeating "
            f"has its units reclaimed after this long (default: "
            f"{DEFAULT_LEASE_TTL:.0f}s)"
        ),
    )
    run.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="fleet worker identity (default: <hostname>:<pid>)",
    )
    run.add_argument(
        "--kernel",
        default=None,
        metavar="BACKEND",
        help=(
            "kernel backend for the decode hot loops: 'numpy' (reference), "
            "'cext' (compiled on demand with the system C compiler), or "
            "'auto' (default: cext if a compiler is present, else numpy).  "
            "Results are bit-identical across backends.  Also settable "
            "via the REPRO_KERNEL environment variable"
        ),
    )
    run.add_argument(
        "--kernel-threads",
        default=None,
        metavar="THREADS",
        help=(
            "row-parallel thread count for compiled kernels (cext with "
            "OpenMP): a positive integer or 'auto' (physical cores divided "
            "by the executor's worker count times the live --fleet peers "
            "on this host, so workers x kernel threads x peers never "
            "oversubscribes the socket).  Bit-identical at "
            "any value.  Also settable via the REPRO_KERNEL_THREADS "
            "environment variable"
        ),
    )
    run.add_argument(
        "--seed-scheme",
        default=None,
        metavar="SCHEME",
        help=(
            "seed scheme deriving the per-run random streams: 'per-run' "
            "(default; the historical bit-reproducible "
            "SeedSequence-per-run streams) or 'unit' (one counter-based "
            "Philox generator per work unit; whole-unit block draws, "
            "deterministic but a different stream, cached separately).  "
            "Also settable via the REPRO_SEED_SCHEME environment variable"
        ),
    )
    run.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "adaptive sweep: stop each grid cell as soon as its Wilson "
            "interval on the decode probability (--ci-width) and its "
            "t-interval on the mean inefficiency (--rel-tol) are settled "
            "at --confidence, escalating run counts geometrically up to "
            "the budget (--max-runs / --runs / the scale's runs).  "
            "Settled cells are bit-identical to a fixed sweep at the "
            "same per-cell run count"
        ),
    )
    run.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        metavar="LEVEL",
        help="confidence level of the adaptive stopping intervals (default: 0.95)",
    )
    run.add_argument(
        "--ci-width",
        type=float,
        default=0.25,
        metavar="WIDTH",
        help=(
            "maximum Wilson-interval width on the decode probability for "
            "a cell to settle (default: 0.25)"
        ),
    )
    run.add_argument(
        "--rel-tol",
        type=float,
        default=0.02,
        metavar="FRACTION",
        help=(
            "maximum t-interval half-width on the mean inefficiency, as a "
            "fraction of the mean, for a fully-decoding cell to settle "
            "(default: 0.02)"
        ),
    )
    run.add_argument(
        "--min-runs",
        type=int,
        default=8,
        metavar="N",
        help=(
            "adaptive first-round run count and round-schedule granule "
            "(default: 8); under --seed-scheme unit also the size of every "
            "planned unit"
        ),
    )
    run.add_argument(
        "--max-runs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "adaptive per-cell run budget (default: --runs, else the "
            "scale's runs); cells that refuse to settle stop here"
        ),
    )
    run.add_argument(
        "--refine-cliff",
        nargs="?",
        type=float,
        const=0.01,
        default=None,
        metavar="RESOLUTION",
        help=(
            "after the adaptive grid settles, bisect (p, q) between "
            "decodable/undecodable neighbours until the decode cliff is "
            "localised to this resolution (default when given without a "
            "value: 0.01); implies --adaptive.  Refined cells appear in "
            "the grid metadata and the summary"
        ),
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "plan the sweep and print the unit counts (for --adaptive: "
            "the first round's) without executing anything"
        ),
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=DEFAULT_POLICY.max_retries,
        metavar="N",
        help=(
            "retry a failing work unit up to N times with deterministic "
            "exponential backoff before applying --on-error (default: "
            f"{DEFAULT_POLICY.max_retries} -- with the default --on-error "
            "the first unit error aborts the run)"
        ),
    )
    run.add_argument(
        "--unit-timeout",
        type=float,
        default=DEFAULT_POLICY.unit_timeout,
        metavar="SECONDS",
        help=(
            "treat a work-unit attempt running longer than this as failed "
            "(counts against --max-retries)"
        ),
    )
    run.add_argument(
        "--on-error",
        choices=ON_ERROR_ACTIONS,
        default=DEFAULT_POLICY.on_error,
        help=(
            "what to do with a unit that exhausts its retries: 'raise' "
            "aborts the run with the unit's error (default), 'skip' drops "
            "the unit (its cell "
            "aggregates from the surviving runs), 'quarantine' also "
            "records it in the store with the exact rerun command "
            "(inspect with 'cache info', heal with 'rerun-unit --store')"
        ),
    )
    run.add_argument(
        "--store-retries",
        type=int,
        default=DEFAULT_POLICY.store_retries,
        metavar="N",
        help=(
            "retry a transiently failing store operation (connection "
            "refused, timeout, 5xx, locked database) up to N times with "
            "deterministic backoff before giving up (default: "
            f"{DEFAULT_POLICY.store_retries}; raise it so fleet workers "
            "ride out a result-store server restart)"
        ),
    )
    run.add_argument(
        "--csv-dir",
        default=None,
        help="write one CSV grid per configuration into this directory",
    )
    run.add_argument(
        "--table",
        action="store_true",
        help="print the full appendix-style table for every configuration",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the progress meter"
    )

    cache = subparsers.add_parser(
        "cache", help="inspect, clear or migrate a result store"
    )
    cache.add_argument(
        "action",
        choices=("info", "clear", "migrate", "serve"),
        help=(
            "info: entry count, size and per-scheme breakdown; clear: "
            "delete entries (all, or one --scheme's); migrate: copy every "
            "entry from SOURCE to DEST, verifying the round-trip; serve: "
            "front the SOURCE store with the HTTP result-store server so "
            "remote fleet workers reach it via --store http:HOST:PORT"
        ),
    )
    cache.add_argument(
        "source",
        nargs="?",
        default=None,
        metavar="SOURCE",
        help="migrate: source store URI; serve: the store to front",
    )
    cache.add_argument(
        "dest",
        nargs="?",
        default=None,
        metavar="DEST",
        help="migrate: destination store URI or json-dir path",
    )
    cache.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"json-dir store directory (default: {DEFAULT_CACHE_DIR})",
    )
    cache.add_argument(
        "--store",
        default=None,
        metavar="URI",
        help="store URI for info/clear (overrides --cache-dir)",
    )
    cache.add_argument(
        "--scheme",
        default=None,
        metavar="NAME",
        help=(
            "restrict clear/migrate to entries of one seed scheme "
            "(e.g. 'per-run/v1', 'unit/v1')"
        ),
    )
    cache.add_argument(
        "--no-verify",
        action="store_true",
        help="migrate: skip the per-entry round-trip verification",
    )
    cache.add_argument(
        "--host",
        default=DEFAULT_HOST,
        help=(
            f"serve: bind address (default: {DEFAULT_HOST}; use 0.0.0.0 "
            f"to accept remote workers)"
        ),
    )
    cache.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=(
            f"serve: bind port (default: {DEFAULT_PORT}; 0 binds an "
            f"ephemeral port and prints it)"
        ),
    )
    cache.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help=(
            "serve: require this bearer token from every client (workers "
            "append '?token=SECRET' to their http: store URI)"
        ),
    )

    rerun = subparsers.add_parser(
        "rerun-unit",
        help="re-execute one work unit from its provenance payload",
    )
    rerun.add_argument(
        "payload",
        help=(
            "the work unit's JSON payload as recorded in store provenance "
            "('-' reads it from stdin)"
        ),
    )
    rerun.add_argument(
        "--store",
        default=None,
        metavar="URI",
        help=(
            "also write the result into this store and clear the unit's "
            "quarantine record, healing a quarantined cell in place"
        ),
    )

    return parser


def _cmd_list_experiments(out) -> int:
    print("Experiments:", file=out)
    for experiment_id in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[experiment_id]
        print(
            f"  {experiment_id:8s} {spec.paper_reference:22s} "
            f"{len(spec.configs):2d} configs  {spec.title}",
            file=out,
        )
    print("\nAppendix tables:", file=out)
    for table_id in sorted(TABLE_TO_EXPERIMENT):
        experiment_id, code, ratio = TABLE_TO_EXPERIMENT[table_id]
        print(
            f"  {table_id:8s} -> {experiment_id} ({code}, ratio {ratio})", file=out
        )
    print("\nScales:", file=out)
    for name in ("tiny", "small", "paper"):
        scale = SCALES[name]
        grid = len(scale.grid_percent)
        print(
            f"  {name:6s} k={scale.k:<6d} runs={scale.runs:<4d} grid={grid}x{grid}",
            file=out,
        )
    return 0


def _open_store(args, *, create: bool = True) -> Optional[ResultStore]:
    """Resolve the run/cache commands' store flags to a store (or None).

    ``create=False`` (``cache info`` / ``clear``) reads a ``sqlite:`` file
    that does not exist as an empty store instead of creating it, as a
    missing json-dir directory already reads.
    """
    if getattr(args, "no_cache", False):
        return None
    spec = args.store if args.store is not None else args.cache_dir
    backend, _, location = spec.partition(":")
    if not create and backend == "sqlite" and location:
        from repro.store.sqlite import SqliteStore

        return SqliteStore(location, create=False)
    return resolve_store(spec)


def _cmd_run(args, out, err) -> int:
    spec = get_experiment(args.experiment)
    total_configs = len(spec.configs)
    policy = FailurePolicy(
        max_retries=args.max_retries,
        unit_timeout=args.unit_timeout,
        on_error=args.on_error,
        store_retries=args.store_retries,
    )

    adaptive_cfg = None
    if args.adaptive or args.refine_cliff is not None:
        from repro.adaptive import AdaptiveConfig, plan_first_round

        adaptive_cfg = AdaptiveConfig(
            confidence=args.confidence,
            ci_width=args.ci_width,
            rel_tol=args.rel_tol,
            min_runs=args.min_runs,
            refine_cliff=args.refine_cliff is not None,
            refine_resolution=(
                args.refine_cliff if args.refine_cliff is not None else 0.01
            ),
        )
    elif args.max_runs is not None:
        raise ValueError("--max-runs needs --adaptive (or --refine-cliff)")
    runs_arg = args.runs
    if adaptive_cfg is not None and args.max_runs is not None:
        runs_arg = args.max_runs

    # One options object serves the fixed run, the adaptive run and
    # --dry-run alike.  Building it is where a bad --kernel-threads or
    # --seed-scheme, and --fleet or --on-error quarantine without a
    # store, fail fast; the kernel is resolved here too, so an unknown or
    # unavailable backend never reaches a worker process.  A dry run
    # executes nothing, so it resolves (and compiles) no kernel.
    options = ExecutionOptions(
        executor=args.executor,
        workers=args.workers,
        store=_open_store(args),
        kernel=None if args.dry_run else get_backend(args.kernel).name,
        kernel_threads=args.kernel_threads,
        seed_scheme=args.seed_scheme,
        fleet=args.fleet,
        lease_ttl=args.lease_ttl,
        worker_id=args.worker_id,
        failure_policy=policy,
        adaptive=adaptive_cfg,
    )
    store = options.store

    if args.dry_run:
        if store is not None:
            store.close()
        scale = SCALES[args.scale]
        budget = runs_arg if runs_arg is not None else scale.runs
        total_units = 0
        for config in spec.scaled_configs(scale):
            if adaptive_cfg is not None:
                units = plan_first_round(
                    config,
                    scale.p_values,
                    scale.q_values,
                    runs=budget,
                    seed=args.seed,
                    options=options,
                )
                kind = (
                    f"first adaptive round, "
                    f"{min(adaptive_cfg.min_runs, budget)} runs/cell "
                    f"of a {budget}-run budget"
                )
            else:
                _p_values, _q_values, cells = grid_cells(
                    config, scale.p_values, scale.q_values
                )
                units = plan_units(
                    cells, runs=budget, base_seed=args.seed, options=options
                )
                kind = f"{budget} runs/cell"
            total_units += len(units)
            print(
                f"  {config.display_label:55s} {len(units):4d} units ({kind})",
                file=out,
            )
        print(
            f"dry run: {total_units} units planned across "
            f"{total_configs} configs; nothing executed",
            file=out,
        )
        return 0

    print(
        f"{spec.paper_reference}: {spec.title}\n"
        f"scale={args.scale} seed={args.seed} seed-scheme={options.seed_scheme} "
        f"workers={args.workers or 1} "
        f"store={'off' if store is None else store.uri()} "
        f"kernel={options.kernel}"
        + (
            f" kernel-threads={options.kernel_threads}"
            if options.kernel_threads
            else ""
        )
        + (f" fleet=on ttl={options.lease_ttl:g}s" if options.fleet else "")
        + f" retries={policy.max_retries} on-error={policy.on_error}"
        + (
            f" adaptive=on confidence={adaptive_cfg.confidence:g}"
            f" ci-width={adaptive_cfg.ci_width:g}"
            f" rel-tol={adaptive_cfg.rel_tol:g}"
            + (
                f" refine-cliff={adaptive_cfg.refine_resolution:g}"
                if adaptive_cfg.refine_cliff
                else ""
            )
            if adaptive_cfg is not None
            else ""
        ),
        file=out,
    )

    started = time.perf_counter()
    config_index = 0

    def progress(done: int, total: int) -> None:
        if args.quiet:
            return
        print(
            f"\r  config {config_index}/{total_configs}: {done}/{total} grid points",
            end="",
            file=err,
            flush=True,
        )

    def per_config_progress(index: int):
        nonlocal config_index
        config_index = index
        return progress

    quarantined = ""
    try:
        results = run_experiment(
            args.experiment,
            scale=args.scale,
            seed=args.seed,
            runs=runs_arg,
            options=options,
            progress_factory=per_config_progress,
        )
        if policy.on_error == "quarantine":
            from repro.resilience.report import format_quarantine_report, quarantine_entries

            entries = quarantine_entries(store)
            quarantined = format_quarantine_report(entries) if entries else ""
    finally:
        if store is not None:
            store.close()
    if not args.quiet:
        print(file=err)
    elapsed = time.perf_counter() - started

    for label, grid in results.items():
        print(
            f"  {label:55s} inefficiency {grid.min_inefficiency():.3f}"
            f"..{grid.max_inefficiency():.3f} "
            f"(mean {grid.mean_over_decodable():.3f}), "
            f"decodable on {grid.coverage:.0%} of the grid",
            file=out,
        )
        adaptive_meta = grid.metadata.get("adaptive")
        if adaptive_meta:
            line = (
                f"    adaptive: {adaptive_meta['executed_runs']}"
                f"/{adaptive_meta['exhaustive_runs']} runs executed "
                f"({adaptive_meta['saved_fraction']:.0%} saved, "
                f"{adaptive_meta['rounds']} rounds)"
            )
            refined = adaptive_meta.get("refined")
            if refined is not None:
                line += (
                    f"; {len(refined)} refined cells localise "
                    f"{len(adaptive_meta['cliffs'])} cliff edges to "
                    f"{adaptive_meta['resolution']:g}"
                )
            print(line, file=out)
    if args.table:
        from repro.analysis.tables import format_grid_table, format_runs_table

        for label, grid in results.items():
            print(file=out)
            print(format_grid_table(grid, title=label), file=out)
            if grid.metadata.get("adaptive"):
                print(file=out)
                print(
                    format_runs_table(grid, title=f"{label} (runs per cell)"),
                    file=out,
                )

    if args.csv_dir is not None:
        from repro.analysis.csvio import grid_to_csv, label_slug

        csv_dir = Path(args.csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
        for label, grid in results.items():
            destination = csv_dir / f"{spec.experiment_id}_{label_slug(label)}.csv"
            grid_to_csv(grid, destination)
            print(f"  wrote {destination}", file=out)

    if quarantined:
        print(quarantined, file=out)

    summary = f"done in {elapsed:.1f}s"
    if store is not None:
        summary += (
            f" (cache: {store.stats.hits} hits, {store.stats.misses} misses,"
            f" {store.stats.writes} writes)"
        )
    print(summary, file=out)
    return 0


def _cmd_cache_serve(args, out) -> int:
    if args.source is None:
        raise ValueError(
            "cache serve needs the store to front, e.g. "
            "'cache serve sqlite:results.db'"
        )
    from repro.store.server import StoreServer

    with resolve_store(args.source) as store:
        server = StoreServer(
            store, host=args.host, port=args.port, token=args.token
        )
        print(
            f"serving {store.uri()} on http://{server.host}:{server.port}"
            + (" (token required)" if args.token else ""),
            file=out,
            flush=True,
        )
        worker_uri = server.store_uri() + ("?token=..." if args.token else "")
        print(
            f"workers: python -m repro run <experiment> "
            f"--store {worker_uri} --fleet",
            file=out,
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nserver stopped", file=out)
        finally:
            server.shutdown()
    return 0


def _cmd_cache(args, out) -> int:
    if args.action == "serve":
        return _cmd_cache_serve(args, out)
    if args.action == "migrate":
        if args.source is None or args.dest is None:
            raise ValueError("cache migrate needs SOURCE and DEST store URIs")
        from repro.store.migrate import migrate_store

        with resolve_store(args.source) as source, resolve_store(args.dest) as dest:
            report = migrate_store(
                source,
                dest,
                scheme=args.scheme,
                verify=not args.no_verify,
            )
            print(
                f"migrated {source.uri()} -> {dest.uri()}: {report.summary()}",
                file=out,
            )
        return 0

    if args.source is not None or args.dest is not None:
        raise ValueError(f"cache {args.action} takes no positional arguments")
    with _open_store(args, create=False) as store:
        if args.action == "info":
            info = store.info()
            print(
                f"store {store.uri()} [{info.backend}]: {info.entries} entries, "
                f"{info.size_bytes / 1024:.1f} KiB",
                file=out,
            )
            for scheme, count in info.scheme_counts.items():
                print(f"  seed-scheme {scheme}: {count} entries", file=out)
            from repro.resilience.report import format_quarantine_report, quarantine_entries

            entries = quarantine_entries(store)
            if entries:
                print(format_quarantine_report(entries), file=out)
            return 0
        removed = store.clear(scheme=args.scheme)
        scope = f" ({args.scheme} entries)" if args.scheme is not None else ""
        print(f"store {store.uri()}: removed {removed} entries{scope}", file=out)
    return 0


def _cmd_rerun_unit(args, out) -> int:
    from repro.resilience.report import clear_quarantine
    from repro.runner.units import WorkUnit, execute_unit
    from repro.store.codec import encode_result, unit_key

    text = sys.stdin.read() if args.payload == "-" else args.payload
    unit = WorkUnit.from_payload(json.loads(text))
    result = execute_unit(unit)
    print(json.dumps(encode_result(unit, result)), file=out)
    if args.store is not None:
        with resolve_store(args.store) as store:
            store.put(unit, result)
            healed = clear_quarantine(store, unit_key(unit))
        print(
            f"stored unit {unit_key(unit)[:12]} in {args.store}"
            + (" (quarantine record cleared)" if healed else ""),
            file=out,
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        if args.command == "list-experiments":
            return _cmd_list_experiments(out)
        if args.command == "run":
            return _cmd_run(args, out, err)
        if args.command == "cache":
            return _cmd_cache(args, out)
        if args.command == "rerun-unit":
            return _cmd_rerun_unit(args, out)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=err)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid unit payload: {exc}", file=err)
        return 2
    except (
        ValueError,
        TypeError,
        KernelUnavailableError,
        LeaseUnsupportedError,
        ResilienceError,
        HttpStoreError,
    ) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted (completed cells are cached; rerun to resume)", file=err)
        return 130
    return 0


__all__ = ["main"]
