"""Sweep orchestration: plan units, consult the cache, execute, aggregate.

This is the layer the public sweep API (:mod:`repro.core.sweep`), the
experiment presets (:mod:`repro.core.experiments`), the benchmark harness
and the ``python -m repro`` CLI all sit on.  It owns the sequencing:

1. shard the sweep into :class:`~repro.runner.units.WorkUnit` cells,
2. satisfy what it can from the result store,
3. hand the remaining units to an executor (serial or a thread pool)
   -- or, as a fleet, claim them from a lease-capable store first,
4. write fresh results back to the store as they stream in,
5. aggregate the cells into the same :class:`~repro.core.metrics.GridResult`
   / :class:`~repro.core.metrics.SeriesResult` containers the serial loops
   have always produced -- bit-identical for a given seed.

How a sweep executes -- executor, store, kernel, seed scheme, fleet,
failure policy -- is one :class:`~repro.runner.options.ExecutionOptions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.channel.gilbert import paper_grid
from repro.core.config import SimulationConfig
from repro.resilience.policy import UnitFailure, failure_summary
from repro.runner.options import ExecutionOptions
from repro.runner.units import (
    SeedPath,
    UnitResult,
    WorkUnit,
    _share_family,
    merge_cell,
    plan_units,
)
from repro.utils.rng import RandomState, as_seed_int
from repro.utils.validation import validate_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only; aggregation imports on use
    from repro.core.metrics import GridResult, SeriesResult

ProgressCallback = Callable[[int, int], None]

T = TypeVar("T")

#: One sweep point: ``(seed_path, config, p, q)``.
Cell = Tuple[SeedPath, SimulationConfig, float, float]


def grid_cells(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]],
    q_values: Optional[Sequence[float]],
) -> Tuple[np.ndarray, np.ndarray, List[Cell]]:
    """The (p, q) axes -- the paper's grid where omitted -- and their cells."""
    if p_values is None or q_values is None:
        default_p, default_q = paper_grid()
        p_values = default_p if p_values is None else p_values
        q_values = default_q if q_values is None else q_values
    p_values = np.asarray(list(p_values), dtype=float)
    q_values = np.asarray(list(q_values), dtype=float)
    cells = [
        ((i, j), config, float(p), float(q))
        for i, p in enumerate(p_values)
        for j, q in enumerate(q_values)
    ]
    return p_values, q_values, cells


def grid_metadata(
    config: SimulationConfig,
    base_seed: int,
    options: ExecutionOptions,
    unit_failures: Sequence[UnitFailure],
    **extra,
) -> dict:
    """The metadata of a (p, q) grid result; ``extra`` adds sweep-specific keys."""
    metadata = {
        "code": config.code,
        "tx_model": config.tx_model,
        "k": config.k,
        "expansion_ratio": config.expansion_ratio,
        "nsent": config.nsent,
        "seed": base_seed,
        "seed_scheme": options.seed_scheme,
        **extra,
    }
    if unit_failures:
        metadata["failed_units"] = [failure_summary(f) for f in unit_failures]
    return metadata


#: Key of one executed unit in :func:`_execute`'s result and failure maps:
#: ``(config token, seed_path, run_start)``.  The config token keeps the
#: units of one engine pass's configurations apart.
ResultKey = Tuple[str, SeedPath, int]


def _result_key(unit: WorkUnit) -> ResultKey:
    return (unit.config.token, unit.seed_path, unit.run_start)


def _execute(
    units: Sequence[WorkUnit],
    *,
    options: ExecutionOptions,
    progress: Optional[ProgressCallback],
    total_cells: int,
) -> Tuple[Dict[ResultKey, UnitResult], Dict[ResultKey, UnitFailure]]:
    """Run a planned unit list through store + executor.

    Results and failures are keyed by :func:`_result_key`.  Progress is
    reported in completed *cells* (sweep points of one configuration),
    the unit the historical progress callback used; cached cells count
    as done immediately.

    With ``options.fleet`` the pending units go through the store's lease
    protocol (:class:`~repro.runner.fleet.FleetRunner`) instead of
    straight to the executor: concurrent processes sharing the store
    split the units between them, and units finished elsewhere are loaded
    rather than executed.  The fleet runner persists results itself
    (write-before-release), so the engine skips its own ``put``.

    Otherwise each fresh result is ``put`` as it arrives, inside the
    store's write-behind scope
    (:meth:`~repro.resilience.retry.RetryingStore.write_behind`): the puts
    are buffered and land in batches of up to 256 results or one second
    -- one sqlite transaction each -- and whatever is buffered is flushed
    before this function returns or raises, ``KeyboardInterrupt``
    included.  Reads stay one ``get`` per planned unit.

    Store traffic goes through a :class:`RetryingStore` and units run
    under ``options.failure_policy``.  Under the default fail-fast policy
    the first unit that raises aborts the sweep as a
    :class:`~repro.resilience.errors.PoisonUnitError`; with
    ``on_error="skip"``/``"quarantine"`` units that exhaust their
    attempts are returned as the second element (empty on a fully clean
    run) instead.  Skipped/quarantined cells aggregate from whatever
    results they do have (a wholly failed cell becomes the paper's NaN
    rule).
    """
    from repro.resilience.retry import RetryingStore

    policy = options.failure_policy
    fleet = options.fleet
    cache = RetryingStore.wrap(options.store, policy)
    results: Dict[ResultKey, UnitResult] = {}
    failures: Dict[ResultKey, UnitFailure] = {}
    units_per_cell: Dict[Tuple[str, SeedPath], int] = {}
    for unit in units:
        cell = _result_key(unit)[:2]
        units_per_cell[cell] = units_per_cell.get(cell, 0) + 1

    done_units_per_cell: Dict[Tuple[str, SeedPath], int] = {}
    done_cells = 0

    def note_done(key: ResultKey) -> None:
        nonlocal done_cells
        cell = key[:2]
        done_units_per_cell[cell] = done_units_per_cell.get(cell, 0) + 1
        if done_units_per_cell[cell] == units_per_cell[cell]:
            done_cells += 1
            if progress is not None:
                progress(done_cells, total_cells)

    pending: List[WorkUnit] = []
    for unit in units:
        cached = cache.get(unit) if cache is not None else None
        if cached is not None:
            key = _result_key(unit)
            results[key] = cached
            note_done(key)
        else:
            pending.append(unit)

    if pending:

        def on_result(unit: WorkUnit, result: UnitResult) -> None:
            key = _result_key(unit)
            results[key] = result
            if cache is not None and not fleet:
                cache.put(unit, result)
            note_done(key)

        def on_failure(unit: WorkUnit, failure: UnitFailure) -> None:
            key = _result_key(unit)
            failures[key] = failure
            if not fleet and policy.on_error == "quarantine":
                # The fleet runner writes its own quarantine records
                # (verdict-before-release ordering); solo runs record
                # them here so ``cache info`` sees them either way.
                from repro.resilience.report import write_quarantine

                write_quarantine(cache, failure)
            note_done(key)

        from repro.runner.executors import resolve_executor

        runner = resolve_executor(options.executor, options.workers)
        if fleet:
            from repro.runner.fleet import FleetRunner

            runner = FleetRunner(
                cache,
                executor=runner,
                worker_id=options.worker_id,
                lease_ttl=options.lease_ttl,
            )
        if cache is None or fleet:
            runner.run(pending, on_result, on_failure, policy)
        else:
            with cache.write_behind():
                runner.run(pending, on_result, on_failure, policy)

    return results, failures


def _by_config(
    entries: Dict[ResultKey, T], configs: Sequence[SimulationConfig]
) -> List[Dict[ResultKey, T]]:
    """``entries`` of one engine pass, one map per configuration, in order."""
    by_token: Dict[str, Dict[ResultKey, T]] = {config.token: {} for config in configs}
    for key, entry in entries.items():
        by_token[key[0]][key] = entry
    return [by_token[config.token] for config in configs]


def results_by_cell(
    results: Dict[ResultKey, UnitResult]
) -> Dict[SeedPath, List[UnitResult]]:
    """Each cell's unit results in run order, grouped in one pass.

    ``results`` holds one configuration's units (see
    :func:`_by_config`).
    """
    by_cell: Dict[SeedPath, List[UnitResult]] = {}
    for (_token, seed_path, _run_start), result in sorted(
        results.items(), key=lambda item: item[0][2]
    ):
        by_cell.setdefault(seed_path, []).append(result)
    return by_cell


def merge_grid(
    shape: Tuple[int, int], by_cell: Dict[SeedPath, List[UnitResult]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A (p, q) grid's mean inefficiency, mean received ratio and failure
    count arrays: one :func:`merge_cell` per ``(i, j)`` cell of ``by_cell``."""
    mean_inefficiency = np.full(shape, np.nan)
    mean_received = np.full(shape, np.nan)
    failure_counts = np.zeros(shape, dtype=np.int64)
    for i, j in np.ndindex(*shape):
        mean_inefficiency[i, j], mean_received[i, j], failure_counts[i, j] = (
            merge_cell(by_cell.get((i, j), ()))
        )
    return mean_inefficiency, mean_received, failure_counts


def plan_grids(
    configs: Sequence[SimulationConfig],
    cells_by_config: Sequence[List[Cell]],
    **plan_kwargs,
) -> List[WorkUnit]:
    """Every config's units as one list, the units of one cell side by side.

    Configs that differ only in their code draw the same transmissions,
    so their units are interleaved: family by family (configs equal but
    for the code, in first-appearance order), then seed path and run
    start, then config.  Each cell's run range is then one synthesis group
    (:func:`repro.runner.units.synthesis_groups`): executors synthesize
    it once and decode it with every code, and fleets lease it whole.
    The configs need not plan the same cells: an adaptive round plans
    each config's still-active ones.  :func:`grid_cells` enumerates
    cells in seed-path order, so a fixed-run plan keeps each config's
    own unit order.
    """
    families: Dict[tuple, int] = {}
    ordered = []
    for index, (config, cells) in enumerate(zip(configs, cells_by_config)):
        family = families.setdefault(_share_family(config), len(families))
        for unit in plan_units(cells, **plan_kwargs):
            ordered.append(((family, unit.seed_path, unit.run_start, index), unit))
    ordered.sort(key=lambda item: item[0])
    return [unit for _order, unit in ordered]


def run_grids(
    configs: Sequence[SimulationConfig],
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    runs_per_unit: Optional[int] = None,
    options: Optional[ExecutionOptions] = None,
) -> List[GridResult]:
    """Sweep the Gilbert (p, q) grid for several configurations in one pass.

    Every config's cells are planned into one unit list
    (:func:`plan_grids`) and run through one :func:`_execute`: one
    write-behind scope, one pool, one fleet run.  The results are split
    back into one :class:`~repro.core.metrics.GridResult` per config, in
    order, each exactly what :func:`run_grid` returns for that config
    alone: seed paths, cache keys and arrays do not depend on the other
    configs.  ``progress`` counts the cells of every config.
    """
    runs = validate_positive_int(runs, "runs")
    options = options or ExecutionOptions()
    base_seed = as_seed_int(seed)
    axes = [grid_cells(config, p_values, q_values) for config in configs]
    units = plan_grids(
        configs,
        [cells for _p, _q, cells in axes],
        runs=runs,
        base_seed=base_seed,
        fresh_code_per_run=fresh_code_per_run,
        runs_per_unit=runs_per_unit,
        options=options,
    )
    results, unit_failures = _execute(
        units,
        options=options,
        progress=progress,
        total_cells=sum(len(cells) for _p, _q, cells in axes),
    )

    from repro.core.metrics import GridResult

    grids = []
    for config, (p_axis, q_axis, _cells), config_results, config_failures in zip(
        configs,
        axes,
        _by_config(results, configs),
        _by_config(unit_failures, configs),
    ):
        mean_inefficiency, mean_received, failure_counts = merge_grid(
            (p_axis.size, q_axis.size), results_by_cell(config_results)
        )
        grids.append(
            GridResult(
                p_values=p_axis,
                q_values=q_axis,
                mean_inefficiency=mean_inefficiency,
                mean_received_ratio=mean_received,
                failure_counts=failure_counts,
                runs=runs,
                label=config.display_label,
                metadata=grid_metadata(
                    config, base_seed, options, list(config_failures.values())
                ),
            )
        )
    return grids


def run_grid(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    runs_per_unit: Optional[int] = None,
    options: Optional[ExecutionOptions] = None,
) -> GridResult:
    """Sweep the Gilbert (p, q) grid for one configuration (fixed runs).

    Under the default ``"per-run"`` seed scheme this is seed-compatible
    with the historical serial ``simulate_grid``: every (i, j, run) triple
    draws from ``SeedSequence([base_seed, i, j, run])`` and the shared
    code is built from ``default_rng(base_seed)``, so any executor/store
    combination returns bit-identical arrays.  The resolved seed scheme
    is recorded in the grid metadata.

    ``options`` says how the sweep executes
    (:class:`~repro.runner.options.ExecutionOptions`; default serial, no
    store).  With ``options.fleet`` several processes running this exact
    call against one store split the grid without duplicating work, and
    every process returns the complete, bit-identical result.  The
    one-config case of :func:`run_grids`.
    """
    (grid,) = run_grids(
        [config],
        p_values,
        q_values,
        runs=runs,
        seed=seed,
        fresh_code_per_run=fresh_code_per_run,
        progress=progress,
        runs_per_unit=runs_per_unit,
        options=options,
    )
    return grid


def run_series(
    configs: Sequence[SimulationConfig],
    parameter_values: Sequence[float],
    *,
    parameter_name: str = "parameter",
    p: float = 0.0,
    q: float = 1.0,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    runs_per_unit: Optional[int] = None,
    options: Optional[ExecutionOptions] = None,
    label: str = "",
) -> SeriesResult:
    """Sweep a pre-built list of configurations at a fixed (p, q) point.

    ``configs[index]`` is evaluated with run seeds
    ``SeedSequence([base_seed, index, run])`` and a per-index shared code
    built from ``SeedSequence([base_seed, index])``.  Configurations are
    materialised by the caller (rather than passing a factory callable) so
    each unit carries its config as data, which its cache key hashes and a
    fleet peer rebuilds it from.  ``options`` as in :func:`run_grid`.
    """
    runs = validate_positive_int(runs, "runs")
    if len(configs) != len(parameter_values):
        raise ValueError(
            f"got {len(configs)} configs for {len(parameter_values)} parameter values"
        )
    options = options or ExecutionOptions()
    base_seed = as_seed_int(seed)
    values = np.asarray(list(parameter_values), dtype=float)
    cells = [
        ((index,), config, float(p), float(q)) for index, config in enumerate(configs)
    ]
    units = plan_units(
        cells,
        runs=runs,
        base_seed=base_seed,
        fresh_code_per_run=fresh_code_per_run,
        code_seed_by_path=True,
        runs_per_unit=runs_per_unit,
        options=options,
    )
    results, unit_failures = _execute(
        units, options=options, progress=progress, total_cells=len(cells)
    )

    by_cell = results_by_cell(results)
    means = np.full(values.size, np.nan)
    cell_failures_array = np.zeros(values.size, dtype=np.int64)
    for index in range(values.size):
        mean_inefficiency, _received, cell_failures = merge_cell(
            by_cell.get((index,), ())
        )
        means[index] = mean_inefficiency
        cell_failures_array[index] = cell_failures

    metadata = {"seed": base_seed, "seed_scheme": options.seed_scheme}
    if unit_failures:
        metadata["failed_units"] = [failure_summary(f) for f in unit_failures.values()]
    from repro.core.metrics import SeriesResult

    return SeriesResult(
        parameter_name=parameter_name,
        parameter_values=values,
        mean_inefficiency=means,
        failure_counts=cell_failures_array,
        runs=runs,
        label=label,
        metadata=metadata,
    )


__all__ = [
    "ProgressCallback",
    "grid_cells",
    "grid_metadata",
    "merge_grid",
    "plan_grids",
    "results_by_cell",
    "run_grid",
    "run_grids",
    "run_series",
]
