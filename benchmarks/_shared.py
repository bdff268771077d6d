"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The helpers
here keep the individual bench files short: they run the grid sweeps at the
"small" scale (k = 2000, 4 runs, 7 x 7 grid by default -- the paper uses
k = 20000, 100 runs, 14 x 14), print the rows/series the paper reports and
save the full grids as CSV under ``benchmarks/results/``.

Absolute numbers are not expected to match the paper exactly (smaller k,
fewer runs, re-implemented codecs); the *shape* -- who wins, by roughly what
factor, where decoding fails -- is what each bench file asserts.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.csvio import grid_to_csv, label_slug
from repro.analysis.tables import format_grid_table
from repro.core.experiments import SCALES, ExperimentScale, get_experiment
from repro.core.metrics import GridResult
from repro.core.sweep import simulate_grid
from repro.runner.options import ExecutionOptions

#: Where benchmark outputs (CSV grids, text tables) are written.
RESULTS_DIR = Path(__file__).parent / "results"

#: Seed shared by every benchmark so reruns are comparable.
BENCH_SEED = 20050707  # the HAL submission date of the paper

#: Default scale for the benchmark harness.
BENCH_SCALE = SCALES["small"]

#: Reduced number of runs per grid point used by the heavier figures.
BENCH_RUNS = 3


def bench_workers() -> Optional[int]:
    """Worker count for the benchmark harness (``REPRO_BENCH_WORKERS``).

    Results are bit-identical for any worker count (the runner derives
    per-run seeds from the cell position), so parallelism is purely a
    wall-clock knob; unset or 1 keeps the serial executor.
    """
    value = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if not value:
        return None
    workers = int(value)
    return workers if workers > 1 else None


def results_path(name: str) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR / name


def run_figure_experiment(
    experiment_id: str,
    *,
    runs: int = BENCH_RUNS,
    scale: ExperimentScale = BENCH_SCALE,
    seed: int = BENCH_SEED,
) -> Dict[str, GridResult]:
    """Run every configuration of a figure preset and persist the grids.

    ``REPRO_BENCH_WORKERS`` fans the grid cells out over the runner's
    thread executor; the kernel layer reads ``REPRO_KERNEL`` and
    ``REPRO_KERNEL_THREADS`` itself.
    """
    options = ExecutionOptions(workers=bench_workers())
    spec = get_experiment(experiment_id)
    grids: Dict[str, GridResult] = {}
    for config in spec.scaled_configs(scale):
        grid = simulate_grid(
            config,
            scale.p_values,
            scale.q_values,
            runs=runs,
            seed=seed,
            options=options,
        )
        grids[config.display_label] = grid
        slug = label_slug(config.display_label)
        grid_to_csv(grid, results_path(f"{experiment_id}_{slug}.csv"))
    return grids


def summarize_grid(label: str, grid: GridResult) -> str:
    """One summary line per configuration: range and coverage of the surface."""
    return (
        f"{label:55s} inefficiency {grid.min_inefficiency():.3f}"
        f"..{grid.max_inefficiency():.3f} "
        f"(mean {grid.mean_over_decodable():.3f}), "
        f"decodable on {grid.coverage:.0%} of the grid"
    )


def print_figure_report(experiment_id: str, grids: Dict[str, GridResult]) -> str:
    """Print (and return) the per-figure report: summary lines + full tables."""
    spec = get_experiment(experiment_id)
    lines = [f"{spec.paper_reference}: {spec.title}", ""]
    for label, grid in grids.items():
        lines.append(summarize_grid(label, grid))
    lines.append("")
    for label, grid in grids.items():
        lines.append(format_grid_table(grid, title=label))
        lines.append("")
    report = "\n".join(lines)
    print(report)
    results_path(f"{experiment_id}_report.txt").write_text(report, encoding="utf-8")
    return report


def grid_value(grid: GridResult, p: float, q: float) -> float:
    """Mean inefficiency at the grid point nearest to (p, q)."""
    return grid.value_at(p, q)


def nearest_defined(values: Sequence[float]) -> Optional[float]:
    """First finite value in a sequence, or None."""
    for value in values:
        if np.isfinite(value):
            return float(value)
    return None
