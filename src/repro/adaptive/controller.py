"""Round-based adaptive sweep controller.

The paper's figures spend a fixed run budget on every (p, q) cell, but
most cells are statistically settled long before the budget is spent: a
cell that decodes 16 times out of 16 already pins its decode probability
tightly, and the mean inefficiency ratio concentrates even faster.  The
controller here replans the grid round by round:

1. every *active* cell is extended from its current run count to the
   next target of a geometric schedule (``min_runs``, ``min_runs *
   growth``, ... capped at the run budget), planned as ordinary work
   units (:class:`~repro.runner.units.WorkUnit`, sized as set out below);
2. the new unit results are folded into per-cell
   :class:`~repro.core.metrics.CellStats` (streaming Welford
   accumulators, so the stopping statistics are O(1));
3. a cell *settles* -- leaves the active set -- once its Wilson score
   interval on the decode probability is narrower than ``ci_width`` and,
   for fully-decoding cells, the Student-t interval on the mean
   inefficiency is within ``rel_tol`` of the mean, both at
   ``confidence``.

Determinism contract
--------------------
Rounds only ever *extend* a cell's run range, starting at run 0, under
the unmodified seed derivations, and a cell that settles after ``n``
runs has executed exactly runs ``[0, n)``.  How a round's increment is
split into units depends on the seed scheme
(:attr:`~repro.seeds.SeedScheme.chunk_invariant`):

* under ``"per-run"`` every run draws from its own stream, so outcomes
  do not depend on unit boundaries.  Each active cell's increment runs
  as one unit, split only every :func:`_round_unit_runs` runs (a
  multiple of ``min_runs``) to bound a unit's memory.  Rounds 1 and 2
  (for ``growth <= 2``) plan the same units, and so the same cache
  keys, as ``min_runs`` chunks would;
* under ``"unit"`` the unit boundaries select the counter windows, so
  every round is planned in ``min_runs`` windows from run 0 -- exactly
  the units of a fixed sweep ``run_grid(runs=n,
  runs_per_unit=min_runs)``.

Either way a settled cell's statistics are bit-identical to that fixed
sweep at its final run count, serial or fleet.  (The schedule targets stay
multiples of ``min_runs`` so that no round boundary splits a
``"unit"``-scheme window.)  The stopping rule's streamed statistics are
folded in ``min_runs`` windows whatever the units, so which round a cell
settles in does not depend on the scheme's unit sizes either.

Cliff refinement
----------------
With ``refine_cliff`` the controller afterwards walks every edge of the
grid whose endpoints disagree on decodability and bisects the channel
parameter between them until the bracket is narrower than
``refine_resolution``, running each probe point as a full adaptive cell.
Probes are planned in lockstep across all cliff edges (one engine round
serves every active bisection), and each probe is emitted as a
first-class grid row -- the full per-cell record (mean inefficiency,
received ratio, failures, run count, Wilson interval) -- under
``metadata["adaptive"]["refined"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.metrics import CellStats, GridResult
from repro.resilience.policy import UnitFailure
from repro.runner.engine import (
    Cell,
    _execute,
    grid_cells,
    grid_metadata,
    merge_grid,
    results_by_cell,
)
# The stopping rule's config lives with the other options, so the CLI
# reads its fields without loading this module; re-exported here.
from repro.runner.options import (
    AdaptiveConfig,
    AdaptiveSpec,
    ExecutionOptions,
    resolve_adaptive,
)
from repro.runner.units import SeedPath, UnitResult, merge_cell, plan_units
from repro.seeds import get_scheme
from repro.utils.rng import RandomState, as_seed_int
from repro.utils.validation import validate_positive_int

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSpec",
    "resolve_adaptive",
    "round_schedule",
    "plan_first_round",
    "adaptive_grid",
]

#: Under a chunk-invariant seed scheme a round runs each active cell's
#: increment in units of at most this many runs, or of ``min_runs`` if
#: larger (:func:`_round_unit_runs`): one unit's ``(runs, n)`` arrays, and
#: so the sweep's peak memory, stay bounded however far the schedule grows.
MAX_ROUND_UNIT_RUNS = 64


def round_schedule(min_runs: int, growth: float, max_runs: int) -> List[int]:
    """Cumulative run targets of the geometric escalation.

    Every target except possibly the final budget is a multiple of
    ``min_runs``, so round boundaries always fall on the fixed-sweep
    chunk grid (the determinism contract).
    """
    max_runs = validate_positive_int(max_runs, "max_runs")
    targets: List[int] = []
    target = min(min_runs, max_runs)
    while True:
        targets.append(target)
        if target >= max_runs:
            return targets
        scaled = int(math.ceil(target * growth / min_runs)) * min_runs
        target = min(max(scaled, target + min_runs), max_runs)


def _round_unit_runs(min_runs: int, seed_scheme: str) -> int:
    """The largest unit a round plans under ``seed_scheme``.

    ``min_runs`` where unit boundaries define the streams; otherwise the
    largest multiple of ``min_runs`` within :data:`MAX_ROUND_UNIT_RUNS`
    (at least ``min_runs``), so every unit covers whole windows.
    """
    if not get_scheme(seed_scheme).chunk_invariant:
        return min_runs
    return max(1, MAX_ROUND_UNIT_RUNS // min_runs) * min_runs


def _fold(stats: CellStats, result: UnitResult, window: int) -> None:
    """Fold one unit's runs into ``stats``, ``window`` runs at a time.

    The streamed Welford variance the stopping rule reads depends on the
    batch boundaries at the ULP level, so the runs are folded in the
    windows of a ``window``-run plan from run 0 whatever the unit spans
    (``run_start`` is a multiple of ``window``).  A unit with a failure
    is folded whole: its inefficiency list no longer lines up with its
    runs, and the streamed variance is not read once a run has failed.
    """
    if result.failures:
        stats.add_ratios(
            result.inefficiency_ratios, result.received_ratios, result.failures
        )
        return
    for start in range(0, len(result.received_ratios), window):
        stop = start + window
        stats.add_ratios(
            result.inefficiency_ratios[start:stop],
            result.received_ratios[start:stop],
            0,
        )


def _settled(stats: CellStats, cfg: AdaptiveConfig) -> bool:
    """The per-cell stopping rule."""
    if stats.runs == 0:
        return False
    low, high = stats.decode_ci(cfg.confidence)
    if high - low > cfg.ci_width:
        return False
    if stats.all_decoded:
        mean = stats.mean_inefficiency
        half = stats.inefficiency_ci_halfwidth(cfg.confidence)
        if not half <= cfg.rel_tol * mean:
            return False
    return True


def _adaptive_options(options: Optional[ExecutionOptions]) -> ExecutionOptions:
    """The sweep's options, defaulting to ``ExecutionOptions(adaptive=True)``."""
    if options is None:
        return ExecutionOptions(adaptive=True)
    if options.adaptive is None:
        raise ValueError(
            "adaptive sweeps need an adaptive config: "
            "ExecutionOptions(adaptive=AdaptiveConfig(...))"
        )
    return options


@dataclass
class _CellRun:
    """Mutable per-cell bookkeeping across rounds."""

    stats: CellStats
    results: List[UnitResult]
    planned_runs: int = 0
    settled: bool = False
    rounds: int = 0


def _run_cells(
    cells: Sequence[Cell],
    cfg: AdaptiveConfig,
    budget: int,
    *,
    plan_kwargs: dict,
    execute,
    failures_out: List[UnitFailure],
) -> Dict[SeedPath, _CellRun]:
    """Drive a set of cells through the round loop until all settle.

    ``execute`` is a closure over :func:`repro.runner.engine._execute`
    with the sweep's options already bound; ``plan_kwargs`` carries the
    :func:`plan_units` arguments shared by every round.  Cells
    that refuse to settle stop at ``budget`` runs with ``settled=False``.
    """
    unit_runs = _round_unit_runs(cfg.min_runs, plan_kwargs["options"].seed_scheme)
    state = {path: _CellRun(stats=CellStats(), results=[]) for path, *_ in cells}
    by_path = {path: cell for cell in cells for path in [cell[0]]}
    active = [path for path, *_ in cells]
    previous = 0
    for target in round_schedule(cfg.min_runs, cfg.growth, budget):
        if not active:
            break
        units = plan_units(
            [by_path[path] for path in active],
            runs=target,
            first_run=previous,
            runs_per_unit=unit_runs,
            **plan_kwargs,
        )
        results, failures = execute(units, total_cells=len(active))
        failures_out.extend(failures)
        by_cell = results_by_cell(results)
        for path in active:
            run = state[path]
            run.planned_runs = target
            run.rounds += 1
            for result in by_cell.get(path, ()):
                run.results.append(result)
                _fold(run.stats, result, cfg.min_runs)
        previous = target
        still_active = []
        for path in active:
            if _settled(state[path].stats, cfg):
                state[path].settled = True
            else:
                still_active.append(path)
        active = still_active
    return state


def plan_first_round(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    options: Optional[ExecutionOptions] = None,
):
    """Plan (without executing) the first adaptive round's units.

    Backs the CLI's ``--dry-run``: the returned list is exactly what the
    first call to the engine would receive for the same ``options``.
    """
    options = _adaptive_options(options)
    runs = validate_positive_int(runs, "runs")
    _p_values, _q_values, cells = grid_cells(config, p_values, q_values)
    first_target = min(options.adaptive.min_runs, runs)
    return plan_units(
        cells,
        runs=first_target,
        runs_per_unit=first_target,
        base_seed=as_seed_int(seed),
        fresh_code_per_run=fresh_code_per_run,
        options=options,
    )


def _refine_cliffs(
    cfg: AdaptiveConfig,
    budget: int,
    config: SimulationConfig,
    p_values: np.ndarray,
    q_values: np.ndarray,
    decodable: np.ndarray,
    *,
    plan_kwargs: dict,
    execute,
    failures_out: List[UnitFailure],
) -> Tuple[List[dict], List[dict], int]:
    """Bisect every decodable/undecodable neighbour pair on the grid.

    Returns ``(refined_rows, cliffs, refined_planned_runs)``.  Probe seed
    paths are 4-tuples ``(axis, i, j, step)`` -- disjoint by length from
    the grid's ``(i, j)`` paths, and unique because each edge probes one
    midpoint per bisection step.
    """
    edges: List[dict] = []
    for j in range(q_values.size):
        for i in range(p_values.size - 1):
            if decodable[i, j] != decodable[i + 1, j]:
                edges.append(
                    {
                        "axis": "p",
                        "i": i,
                        "j": j,
                        "low": float(p_values[i]),
                        "high": float(p_values[i + 1]),
                        "low_decodable": bool(decodable[i, j]),
                    }
                )
    for i in range(p_values.size):
        for j in range(q_values.size - 1):
            if decodable[i, j] != decodable[i, j + 1]:
                edges.append(
                    {
                        "axis": "q",
                        "i": i,
                        "j": j,
                        "low": float(q_values[j]),
                        "high": float(q_values[j + 1]),
                        "low_decodable": bool(decodable[i, j]),
                    }
                )

    refined_rows: List[dict] = []
    refined_runs = 0
    step = 0
    active = [edge for edge in edges if edge["high"] - edge["low"] > cfg.refine_resolution]
    while active and step < 64:
        probes: List[Cell] = []
        probe_edges: Dict[SeedPath, Tuple[dict, float]] = {}
        for edge in active:
            mid = 0.5 * (edge["low"] + edge["high"])
            axis_code = 0 if edge["axis"] == "p" else 1
            path: SeedPath = (axis_code, edge["i"], edge["j"], step)
            if edge["axis"] == "p":
                p, q = mid, float(q_values[edge["j"]])
            else:
                p, q = float(p_values[edge["i"]]), mid
            probes.append((path, config, p, q))
            probe_edges[path] = (edge, mid)
        state = _run_cells(
            probes,
            cfg,
            budget,
            plan_kwargs=plan_kwargs,
            execute=execute,
            failures_out=failures_out,
        )
        for path, _config, p, q in probes:
            run = state[path]
            edge, mid = probe_edges[path]
            refined_runs += run.planned_runs
            mean_ineff, mean_received, cell_failures = merge_cell(run.results)
            low_ci, high_ci = run.stats.decode_ci(cfg.confidence)
            refined_rows.append(
                {
                    "p": p,
                    "q": q,
                    "axis": edge["axis"],
                    "mean_inefficiency": mean_ineff,
                    "mean_received_ratio": mean_received,
                    "failures": cell_failures,
                    "runs": run.stats.runs,
                    "decode_probability": run.stats.decode_probability,
                    "decode_ci": [low_ci, high_ci],
                    "settled": run.settled,
                }
            )
            # Shrink the bracket towards the cliff: the midpoint joins
            # whichever side it agrees with on decodability.
            if run.stats.all_decoded == edge["low_decodable"]:
                edge["low"] = mid
            else:
                edge["high"] = mid
        step += 1
        active = [
            edge for edge in active if edge["high"] - edge["low"] > cfg.refine_resolution
        ]

    cliffs = [
        {
            "axis": edge["axis"],
            "p": float(p_values[edge["i"]]) if edge["axis"] == "q" else None,
            "q": float(q_values[edge["j"]]) if edge["axis"] == "p" else None,
            "bracket": [edge["low"], edge["high"]],
            "decodable_at_low": edge["low_decodable"],
        }
        for edge in edges
    ]
    return refined_rows, cliffs, refined_runs


def adaptive_grid(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 100,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress=None,
    options: Optional[ExecutionOptions] = None,
) -> GridResult:
    """Adaptive (p, q) grid sweep; ``runs`` is the per-cell budget.

    ``options.adaptive`` is the stopping rule (``AdaptiveConfig()`` when
    no options are given); every round executes through the engine with
    the same ``options``, so stores, fleets and failure policies apply
    unchanged.  The result is shaped exactly like
    :func:`repro.runner.engine.run_grid` output -- every settled cell's
    statistics are bit-identical to a fixed sweep at that cell's final
    run count -- with the controller's accounting under
    ``metadata["adaptive"]``: per-cell run counts and settlement, the
    round schedule, the executed-vs-exhaustive run totals, and (with
    ``refine_cliff``) the refined rows and localised cliff brackets.
    """
    options = _adaptive_options(options)
    cfg = options.adaptive
    runs = validate_positive_int(runs, "runs")
    p_values, q_values, cells = grid_cells(config, p_values, q_values)
    base_seed = as_seed_int(seed)
    plan_kwargs = dict(
        base_seed=base_seed, fresh_code_per_run=fresh_code_per_run, options=options
    )

    def execute(units, total_cells):
        return _execute(
            units, options=options, progress=progress, total_cells=total_cells
        )

    unit_failures: List[UnitFailure] = []
    state = _run_cells(
        cells,
        cfg,
        runs,
        plan_kwargs=plan_kwargs,
        execute=execute,
        failures_out=unit_failures,
    )

    shape = (p_values.size, q_values.size)
    mean_inefficiency, mean_received, failure_counts = merge_grid(
        shape, {path: run.results for path, run in state.items()}
    )

    def per_cell(attribute: str, dtype) -> np.ndarray:
        values = [getattr(state[path], attribute) for path, *_ in cells]
        return np.array(values, dtype=dtype).reshape(shape)

    runs_per_cell = per_cell("planned_runs", np.int64)
    settled = per_cell("settled", bool)
    rounds_per_cell = per_cell("rounds", np.int64)

    executed = int(runs_per_cell.sum())
    exhaustive = int(len(cells) * runs)
    adaptive_meta = {
        "confidence": cfg.confidence,
        "ci_width": cfg.ci_width,
        "rel_tol": cfg.rel_tol,
        "min_runs": cfg.min_runs,
        "growth": cfg.growth,
        "budget": runs,
        "schedule": round_schedule(cfg.min_runs, cfg.growth, runs),
        "rounds": int(rounds_per_cell.max()) if rounds_per_cell.size else 0,
        "runs_per_cell": runs_per_cell.tolist(),
        "settled": settled.tolist(),
        "executed_runs": executed,
        "exhaustive_runs": exhaustive,
        "saved_runs": exhaustive - executed,
        "saved_fraction": (
            (exhaustive - executed) / exhaustive if exhaustive else 0.0
        ),
    }

    if cfg.refine_cliff:
        decodable = (failure_counts == 0) & np.isfinite(mean_inefficiency)
        refined_rows, cliffs, refined_runs = _refine_cliffs(
            cfg,
            runs,
            config,
            p_values,
            q_values,
            decodable,
            plan_kwargs=plan_kwargs,
            execute=execute,
            failures_out=unit_failures,
        )
        adaptive_meta["refined"] = refined_rows
        adaptive_meta["cliffs"] = cliffs
        adaptive_meta["refined_runs"] = refined_runs
        adaptive_meta["resolution"] = cfg.refine_resolution

    metadata = grid_metadata(
        config, base_seed, options, unit_failures, adaptive=adaptive_meta
    )
    return GridResult(
        p_values=p_values,
        q_values=q_values,
        mean_inefficiency=mean_inefficiency,
        mean_received_ratio=mean_received,
        failure_counts=failure_counts,
        runs=int(runs_per_cell.max()) if runs_per_cell.size else runs,
        label=config.display_label,
        metadata=metadata,
    )
