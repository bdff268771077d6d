"""Incremental-decoder reference for work units (a test oracle).

The runner always decodes through the vectorised fast path.  This module
rebuilds a unit's outcomes the slow way -- ``Simulator.run`` per run
under the per-run seed scheme, the scheme's block-drawn front end plus
``decode_batch_incremental`` under the unit scheme -- so tests can pin
the fast path to the per-packet reference decoder.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from repro.channel.gilbert import GilbertChannel
from repro.core.metrics import RunResultBatch
from repro.core.simulator import Simulator
from repro.fastpath import decode_batch_incremental
from repro.pipeline.synthesis import synthesize_runs_unit
from repro.runner.units import UnitResult, WorkUnit, merge_cell, plan_units
from repro.seeds import get_scheme


def _shared_code(unit: WorkUnit):
    if unit.code_seed_path is None:
        seed = np.random.default_rng(unit.base_seed)
    else:
        seed = np.random.default_rng(
            np.random.SeedSequence([unit.base_seed, *unit.code_seed_path])
        )
    return unit.config.build_code(seed=seed)


def reference_batch(unit: WorkUnit) -> RunResultBatch:
    """The unit's outcomes, decoded packet by packet."""
    tx_model = unit.config.build_tx_model()
    channel = GilbertChannel(unit.p, unit.q)
    nsent = unit.config.nsent
    streams = get_scheme(unit.seed_scheme).unit_streams(
        unit.base_seed, unit.seed_path, unit.run_start, unit.run_stop
    )
    runs = range(unit.run_start, unit.run_stop)
    if unit.fresh_code_per_run:
        results = []
        for run in runs:
            rng = streams.run_rng(run)
            code = unit.config.build_code(seed=rng)
            results.append(Simulator(code, tx_model, channel).run(rng, nsent=nsent))
        return RunResultBatch.from_results(results)
    code = _shared_code(unit)
    if streams.unit_rng is not None:
        synthesis = synthesize_runs_unit(
            code.layout,
            tx_model,
            channel,
            streams.unit_rng,
            streams.runs,
            nsent=nsent,
            kernel="numpy",
        )
        return decode_batch_incremental(code, synthesis)
    simulator = Simulator(code, tx_model, channel)
    return RunResultBatch.from_results(
        [simulator.run(streams.run_rng(run), nsent=nsent) for run in runs]
    )


def reference_unit_result(unit: WorkUnit) -> UnitResult:
    """What ``execute_unit(unit)`` must return, computed incrementally."""
    batch = reference_batch(unit)
    return UnitResult(
        seed_path=unit.seed_path,
        run_start=unit.run_start,
        run_stop=unit.run_stop,
        inefficiency_ratios=tuple(batch.inefficiency_ratios().tolist()),
        received_ratios=tuple(batch.received_ratios().tolist()),
        failures=batch.failures,
    )


def reference_cells(
    cells: Sequence[tuple], **plan_kwargs
) -> Dict[Tuple[int, ...], Tuple[float, float, int]]:
    """Merged ``(inefficiency, received, failures)`` per planned cell."""
    by_path: Dict[Tuple[int, ...], list] = {}
    for unit in plan_units(cells, **plan_kwargs):
        by_path.setdefault(unit.seed_path, []).append(reference_unit_result(unit))
    return {path: merge_cell(results) for path, results in by_path.items()}


class ReferenceGrid(NamedTuple):
    """The arrays of a grid, as :func:`reference_grid` computes them."""

    mean_inefficiency: np.ndarray
    mean_received_ratio: np.ndarray
    failure_counts: np.ndarray


def reference_grid(
    config, p_values, q_values, *, runs, seed, runs_per_unit=None, options=None
) -> ReferenceGrid:
    """The arrays of the grid ``simulate_grid`` sweeps with these arguments
    (``runs_per_unit`` as the engine's ``run_grid`` takes it)."""
    cells = [
        ((i, j), config, float(p), float(q))
        for i, p in enumerate(p_values)
        for j, q in enumerate(q_values)
    ]
    merged = reference_cells(
        cells, runs=runs, base_seed=seed, runs_per_unit=runs_per_unit, options=options
    )
    shape = (len(p_values), len(q_values))
    grid = ReferenceGrid(
        np.full(shape, np.nan),
        np.full(shape, np.nan),
        np.zeros(shape, dtype=np.int64),
    )
    for (i, j), values in merged.items():
        for array, value in zip(grid, values):
            array[i, j] = value
    return grid


def assert_grids_equal(grid, expected) -> None:
    """Bit-identity of two grids' (or a grid's and a reference's) arrays."""
    assert np.array_equal(
        grid.mean_inefficiency, expected.mean_inefficiency, equal_nan=True
    )
    assert np.array_equal(
        grid.mean_received_ratio, expected.mean_received_ratio, equal_nan=True
    )
    assert np.array_equal(grid.failure_counts, expected.failure_counts)


__all__ = [
    "reference_batch",
    "reference_unit_result",
    "reference_cells",
    "ReferenceGrid",
    "reference_grid",
    "assert_grids_equal",
]
