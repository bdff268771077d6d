"""Grid sweeps over the Gilbert (p, q) plane and generic 1-D parameter sweeps.

``simulate_grid`` is the workhorse behind every 3-D figure and appendix
table of the paper: for every (p, q) point it runs ``runs`` independent
transmissions and aggregates them following the paper's rule (a point where
any run failed to decode is reported as not decodable).

Both sweeps are thin wrappers over the execution engine in
:mod:`repro.runner.engine`, which shards a sweep into independent work
units.  How they execute -- executor, result store, kernel backend, seed
scheme, fleet, failure policy, adaptive stopping -- is one
:class:`~repro.runner.options.ExecutionOptions`.  Every run draws from a
stream derived from the seed and its cell, so results are bit-identical
across executors and store states.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.config import SimulationConfig
from repro.core.metrics import GridResult, SeriesResult
from repro.runner.engine import ProgressCallback, run_grid, run_series
from repro.runner.options import ExecutionOptions
from repro.utils.rng import RandomState


def simulate_grid(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    options: Optional[ExecutionOptions] = None,
) -> GridResult:
    """Sweep the Gilbert (p, q) grid for one configuration.

    Parameters
    ----------
    config:
        The (code, tx model, k, ratio) configuration to evaluate.
    p_values, q_values:
        Grid axes (probabilities in [0, 1]); default to the paper's 14-value
        grid.
    runs:
        Independent transmissions per grid point (the paper uses 100); the
        per-cell budget of an adaptive sweep.
    seed:
        Top-level seed; every (p, q, run) triple gets its own derived stream
        so results are reproducible and independent of iteration order.
    fresh_code_per_run:
        Rebuild the FEC code (i.e. draw a new LDGM parity-check matrix) for
        every run instead of encoding once and reusing it.  Slower, closer
        to averaging over code constructions.
    progress:
        Optional callback ``(done_points, total_points)``.
    options:
        How the sweep executes (:class:`~repro.runner.options.ExecutionOptions`;
        default serial, no store).  With ``options.adaptive`` the grid runs
        through the sequential-stopping controller
        (:func:`repro.adaptive.adaptive_grid`), whose settled cells are
        bit-identical to this fixed sweep at the same run count.
    """
    if options is not None and options.adaptive is not None:
        from repro.adaptive.controller import adaptive_grid

        return adaptive_grid(
            config,
            p_values,
            q_values,
            runs=runs,
            seed=seed,
            fresh_code_per_run=fresh_code_per_run,
            progress=progress,
            options=options,
        )
    return run_grid(
        config,
        p_values,
        q_values,
        runs=runs,
        seed=seed,
        fresh_code_per_run=fresh_code_per_run,
        progress=progress,
        options=options,
    )


def sweep_parameter(
    make_config: Callable[[float], SimulationConfig],
    parameter_values: Sequence[float],
    *,
    parameter_name: str = "parameter",
    p: float = 0.0,
    q: float = 1.0,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    options: Optional[ExecutionOptions] = None,
    label: str = "",
) -> SeriesResult:
    """Sweep an arbitrary scalar parameter at a fixed (p, q) point.

    Used for figure 14 (inefficiency vs. number of received source packets)
    and for the ablation benchmarks (e.g. left degree of the LDGM graph).

    Each index of the sweep builds its shared code from
    ``SeedSequence([base_seed, index])``, so neighbouring indices get
    provably disjoint code streams (the historical ``base_seed + index``
    scheme could collide across sweeps).

    Parameters
    ----------
    make_config:
        Callable mapping a parameter value to a :class:`SimulationConfig`.
    parameter_values:
        Values to sweep.
    p, q:
        Gilbert channel parameters shared by every point of the sweep.
    fresh_code_per_run:
        Rebuild the FEC code from the run stream for every run.
    progress:
        Optional callback ``(done_points, total_points)``.
    options:
        How the sweep executes, as in :func:`simulate_grid`.
    """
    values = [float(value) for value in parameter_values]
    configs = [make_config(value) for value in values]
    return run_series(
        configs,
        values,
        parameter_name=parameter_name,
        p=p,
        q=q,
        runs=runs,
        seed=seed,
        fresh_code_per_run=fresh_code_per_run,
        progress=progress,
        options=options,
        label=label,
    )


__all__ = ["simulate_grid", "sweep_parameter"]
