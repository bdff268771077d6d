"""Sweep orchestration: plan units, consult the cache, execute, aggregate.

This is the layer the public sweep API (:mod:`repro.core.sweep`), the
experiment presets (:mod:`repro.core.experiments`), the benchmark harness
and the ``python -m repro`` CLI all sit on.  It owns the sequencing:

1. shard the sweep into :class:`~repro.runner.units.WorkUnit` cells,
2. satisfy what it can from the result store,
3. hand the remaining units to an executor (serial or process pool),
4. write fresh results back to the store as they stream in,
5. aggregate the cells into the same :class:`~repro.core.metrics.GridResult`
   / :class:`~repro.core.metrics.SeriesResult` containers the serial loops
   have always produced -- bit-identical for a given seed.

How a sweep executes -- executor, store, kernel, seed scheme, fleet,
failure policy -- is one :class:`~repro.runner.options.ExecutionOptions`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.gilbert import paper_grid
from repro.core.config import SimulationConfig
from repro.core.metrics import GridResult, SeriesResult
from repro.resilience.policy import UnitFailure, failure_summary
from repro.resilience.report import write_quarantine
from repro.resilience.retry import RetryingStore
from repro.runner.executors import Executor, resolve_executor
from repro.runner.fleet import FleetRunner
from repro.runner.options import ExecutionOptions
from repro.runner.units import (
    SeedPath,
    UnitResult,
    WorkUnit,
    merge_cell,
    plan_units,
)
from repro.utils.rng import RandomState, as_seed_int
from repro.utils.validation import validate_positive_int

ProgressCallback = Callable[[int, int], None]

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


def _execute(
    units: Sequence[WorkUnit],
    *,
    options: ExecutionOptions,
    progress: Optional[ProgressCallback],
    total_cells: int,
) -> Tuple[Dict[Tuple[SeedPath, int], UnitResult], List[UnitFailure]]:
    """Run a planned unit list through store + executor.

    Results are keyed by ``(seed_path, run_start)``.  Progress is reported
    in completed *cells* (sweep points), the unit the historical progress
    callback used; cached cells count as done immediately.

    With ``options.fleet`` the pending units go through the store's lease
    protocol (:class:`~repro.runner.fleet.FleetRunner`) instead of
    straight to the executor: concurrent processes sharing the store
    split the units between them, and units finished elsewhere are loaded
    rather than executed.  The fleet runner persists results itself
    (write-before-release), so the engine skips its own ``put``.

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
    policy = options.failure_policy
    fleet = options.fleet
    cache = RetryingStore.wrap(options.store, policy)
    results: Dict[Tuple[SeedPath, int], UnitResult] = {}
    failures: List[UnitFailure] = []
    units_per_cell: Dict[SeedPath, int] = {}
    for unit in units:
        units_per_cell[unit.seed_path] = units_per_cell.get(unit.seed_path, 0) + 1

    done_units_per_cell: Dict[SeedPath, int] = {}
    done_cells = 0

    def note_done(seed_path: SeedPath) -> None:
        nonlocal done_cells
        done_units_per_cell[seed_path] = done_units_per_cell.get(seed_path, 0) + 1
        if done_units_per_cell[seed_path] == units_per_cell[seed_path]:
            done_cells += 1
            if progress is not None:
                progress(done_cells, total_cells)

    pending: List[WorkUnit] = []
    for unit in units:
        cached = cache.get(unit) if cache is not None else None
        if cached is not None:
            results[(unit.seed_path, unit.run_start)] = cached
            note_done(unit.seed_path)
        else:
            pending.append(unit)

    if pending:
        unit_by_key = {(unit.seed_path, unit.run_start): unit for unit in pending}

        def on_result(result: UnitResult) -> None:
            key = (result.seed_path, result.run_start)
            results[key] = result
            if cache is not None and not fleet:
                cache.put(unit_by_key[key], result)
            note_done(result.seed_path)

        def on_failure(failure: UnitFailure) -> None:
            failures.append(failure)
            if not fleet and policy.on_error == "quarantine":
                # The fleet runner writes its own quarantine records
                # (verdict-before-release ordering); solo runs record
                # them here so ``cache info`` sees them either way.
                write_quarantine(cache, failure)
            note_done(failure.seed_path)

        runner: Executor = resolve_executor(options.executor, options.workers)
        if fleet:
            runner = FleetRunner(
                cache,
                executor=runner,
                worker_id=options.worker_id,
                lease_ttl=options.lease_ttl,
            )
        runner.run(pending, on_result, on_failure, policy)

    return results, failures


def _cell_results(
    results: Dict[Tuple[SeedPath, int], UnitResult], seed_path: SeedPath
) -> List[UnitResult]:
    return [result for key, result in results.items() if key[0] == seed_path]


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
    every process returns the complete, bit-identical result.
    """
    runs = validate_positive_int(runs, "runs")
    options = options or ExecutionOptions()
    p_values, q_values, cells = grid_cells(config, p_values, q_values)
    base_seed = as_seed_int(seed)
    units = plan_units(
        cells,
        runs=runs,
        base_seed=base_seed,
        fresh_code_per_run=fresh_code_per_run,
        runs_per_unit=runs_per_unit,
        options=options,
    )
    results, unit_failures = _execute(
        units, options=options, progress=progress, total_cells=len(cells)
    )

    shape = (p_values.size, q_values.size)
    mean_inefficiency = np.full(shape, np.nan)
    mean_received = np.full(shape, np.nan)
    failure_counts = np.zeros(shape, dtype=np.int64)
    for i in range(p_values.size):
        for j in range(q_values.size):
            inefficiency, received, failures = merge_cell(
                _cell_results(results, (i, j))
            )
            mean_inefficiency[i, j] = inefficiency
            mean_received[i, j] = received
            failure_counts[i, j] = failures

    return GridResult(
        p_values=p_values,
        q_values=q_values,
        mean_inefficiency=mean_inefficiency,
        mean_received_ratio=mean_received,
        failure_counts=failure_counts,
        runs=runs,
        label=config.display_label,
        metadata=grid_metadata(config, base_seed, options, unit_failures),
    )


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
    units stay picklable for the process-pool executor.  ``options`` as in
    :func:`run_grid`.
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

    means = np.full(values.size, np.nan)
    cell_failures_array = np.zeros(values.size, dtype=np.int64)
    for index in range(values.size):
        mean_inefficiency, _received, cell_failures = merge_cell(
            _cell_results(results, (index,))
        )
        means[index] = mean_inefficiency
        cell_failures_array[index] = cell_failures

    metadata = {"seed": base_seed, "seed_scheme": options.seed_scheme}
    if unit_failures:
        metadata["failed_units"] = [failure_summary(f) for f in unit_failures]
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
    "run_grid",
    "run_series",
]
