"""Command-line front end: ``python -m repro``.

Subcommands
-----------
``list-experiments``
    Table of every figure/table preset and the available scales.
``run``
    Execute one experiment preset at a chosen scale, resumably through a
    result store, optionally as a fleet or an adaptive sweep, and print
    or write (CSV, appendix-style tables) its grids.  The flags of the
    :class:`~repro.runner.options.ExecutionOptions`,
    :class:`~repro.runner.options.AdaptiveConfig` and
    :class:`~repro.resilience.policy.FailurePolicy` fields are built from
    the fields themselves; ``run --help`` lists them all.
``cache``
    Inspect, clear (all entries or one seed scheme's), migrate or serve
    (to remote fleet workers over HTTP) a result store; ``cache --help``
    describes each action.
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
import dataclasses
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
from repro.resilience.policy import FailurePolicy
from repro.runner.engine import grid_cells
from repro.runner.options import AdaptiveConfig, ExecutionOptions
from repro.runner.units import plan_units
from repro.store.base import ResultStore
from repro.store.json_dir import DEFAULT_CACHE_DIR
from repro.store.registry import (
    CHAOS_BACKENDS,
    DEFAULT_HOST,
    DEFAULT_PORT,
    resolve_store,
)


def _seed_value(text: str) -> int:
    """``--seed``: a non-negative integer, as every seed scheme requires."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _entry_scheme(text: str) -> str:
    """``cache --scheme``, resolved at parse time (exit 2 when unknown)."""
    from repro.store.codec import entry_scheme

    try:
        return entry_scheme(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


class _NeedsMode(argparse.Action):
    """Store a flag that needs a mode, noting ``(flag, mode)`` in
    ``namespace.mode_flags`` for ``run`` to reject unless the mode is on."""

    def __init__(self, option_strings, dest, needs: str, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.needs = needs

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.mode_flags = (*namespace.mode_flags, (self.option_strings[0], self.needs))


def _add_field_flags(parser: argparse.ArgumentParser, cls, title: str) -> None:
    """A ``--field-name`` flag per field of ``cls`` with help metadata.

    A bool field is a switch; otherwise the field's default is the flag's
    (shown in its help, and its type if int or float).
    """
    group = parser.add_argument_group(title)
    for spec in dataclasses.fields(cls):
        meta = dict(spec.metadata)
        if "help" not in meta:
            continue
        flag = "--" + spec.name.replace("_", "-")
        if isinstance(spec.default, bool):
            group.add_argument(flag, action="store_true", **meta)
            continue
        if spec.default is not None:
            meta["help"] += f" (default: {spec.default})"
        if isinstance(spec.default, (int, float)):
            meta.setdefault("type", type(spec.default))
        if "needs" in meta:
            meta["action"] = _NeedsMode
        group.add_argument(flag, default=spec.default, **meta)


def _from_flags(cls, args, **values):
    """``cls`` built from the parsed flags of its fields, plus ``values``."""
    for spec in dataclasses.fields(cls):
        if "help" in spec.metadata:
            values.setdefault(spec.name, getattr(args, spec.name))
    return cls(**values)


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

    store_flags = argparse.ArgumentParser(add_help=False)
    store_flags.add_argument(
        "--store",
        default=DEFAULT_CACHE_DIR,
        metavar="URI",
        help=(
            "result-store URI: 'json-dir:PATH' (the historical file-per-"
            "unit layout, results only), 'sqlite:PATH' (single-file "
            "indexed store, recommended for large sweeps and required "
            "for fleets on one host), 'memory:NAME', 'http:HOST:PORT' (a "
            "remote store behind 'cache serve', required for fleets "
            "across hosts), or a bare directory path (json-dir; default: "
            f"{DEFAULT_CACHE_DIR})"
        ),
    )

    run = subparsers.add_parser(
        "run", parents=[store_flags], help="run one experiment preset"
    )
    run.set_defaults(mode_flags=())
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
        "--no-cache",
        action="store_true",
        help="disable the result store entirely",
    )
    run.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "adaptive sweep: stop each grid cell as soon as its stopping "
            "intervals settle (see 'adaptive stopping'), escalating run "
            "counts geometrically up to the budget (--max-runs / --runs / "
            "the scale's runs).  Settled cells are bit-identical to a "
            "fixed sweep at the same per-cell run count"
        ),
    )
    run.add_argument(
        "--max-runs",
        type=int,
        default=None,
        metavar="N",
        action=_NeedsMode,
        needs="adaptive",
        help=(
            "adaptive per-cell run budget (default: --runs, else the "
            "scale's runs); cells that refuse to settle stop here"
        ),
    )
    run.add_argument(
        "--refine-cliff",
        nargs="?",
        type=float,
        const=AdaptiveConfig.refine_resolution,
        default=None,
        metavar="RESOLUTION",
        help=(
            "after the adaptive grid settles, bisect (p, q) between "
            "decodable/undecodable neighbours until the decode cliff is "
            "localised to this resolution (default when given without a "
            f"value: {AdaptiveConfig.refine_resolution}); implies "
            "--adaptive.  Refined cells appear in the grid metadata and "
            "the summary"
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
    _add_field_flags(run, ExecutionOptions, "execution")
    _add_field_flags(run, AdaptiveConfig, "adaptive stopping (with --adaptive)")
    _add_field_flags(run, FailurePolicy, "failure policy")

    cache = subparsers.add_parser(
        "cache", parents=[store_flags], help="inspect, clear or migrate a result store"
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
        "--scheme",
        type=_entry_scheme,
        default=None,
        metavar="NAME",
        help=(
            "restrict clear/migrate to entries of one seed scheme: a "
            "scheme name or token as 'cache info' lists them (e.g. "
            "'per-run', 'unit/v1'), or 'pre-seeds'"
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


def _open_store(spec: str) -> ResultStore:
    """Open the store ``spec`` names without creating it.

    ``cache info`` / ``clear`` and dry runs use this: a ``sqlite:`` file
    that does not exist reads as an empty store, as a missing json-dir
    directory already reads.
    """
    backend, _, location = spec.partition(":")
    if backend == "sqlite" and location:
        from repro.store.sqlite import SqliteStore

        return SqliteStore(location, create=False)
    inner_backend = backend.partition("chaos+")[2]
    if backend.startswith("chaos+") and inner_backend in CHAOS_BACKENDS:
        from repro.store.chaos import ChaosStore, parse_chaos_location

        inner_location, config = parse_chaos_location(location)
        inner = _open_store(f"{inner_backend}:{inner_location}")
        return ChaosStore(inner, config, uri_text=spec)
    return resolve_store(spec)


def _cmd_run(args, out, err) -> int:
    spec = get_experiment(args.experiment)
    total_configs = len(spec.configs)
    adaptive = args.adaptive or args.refine_cliff is not None
    modes = {"adaptive": adaptive, "fleet": args.fleet}
    for flag, mode in args.mode_flags:
        if not modes[mode]:
            also = " (or --refine-cliff)" if mode == "adaptive" else ""
            raise ValueError(f"{flag} needs --{mode}{also}")
    policy = _from_flags(FailurePolicy, args)
    adaptive_cfg = None
    if adaptive:
        from repro.adaptive import plan_first_round

        refine = {}
        if args.refine_cliff is not None:
            refine = dict(refine_cliff=True, refine_resolution=args.refine_cliff)
        adaptive_cfg = _from_flags(AdaptiveConfig, args, **refine)
    runs_arg = args.runs if args.max_runs is None else args.max_runs

    # One options object serves the fixed run, the adaptive run and
    # --dry-run alike.  The kernel is resolved here, so an unknown or
    # unavailable backend never reaches a worker; a dry run executes
    # nothing, so it resolves (and compiles) no kernel and opens the
    # store without creating it.  The options open the store once every
    # other flag passed, and reject a fleet on a store without leases.
    store_spec = None if args.no_cache else args.store
    options = _from_flags(
        ExecutionOptions,
        args,
        store=_open_store(store_spec) if args.dry_run and store_spec else store_spec,
        kernel=None if args.dry_run else get_backend(args.kernel).name,
        failure_policy=policy,
        adaptive=adaptive_cfg,
    )
    store = options.store

    if args.dry_run:
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
        if store is not None:
            store.close()
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

    def progress(done: int, total: int) -> None:
        print(f"\r  {done}/{total} grid points", end="", file=err, flush=True)

    quarantined = ""
    try:
        results = run_experiment(
            args.experiment,
            scale=args.scale,
            seed=args.seed,
            runs=runs_arg,
            options=options,
            progress=None if args.quiet else progress,
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
    with _open_store(args.store) as store:
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
