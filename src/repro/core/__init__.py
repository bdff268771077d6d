"""Simulation engine: single runs, grid sweeps, experiments, recommendations.

This is the package that ties the FEC codes, channel models and transmission
models together and produces the paper's metrics:

* :mod:`repro.core.simulator` -- one transmission/reception/decoding run and
  its :class:`~repro.core.metrics.RunResult`.
* :mod:`repro.core.sweep` -- the (p, q) grid sweeps behind every 3-D figure
  and appendix table.
* :mod:`repro.core.experiments` -- declarative presets for every figure and
  table of the paper, at several scales ("tiny", "small", "paper").
* :mod:`repro.core.optimizer` -- the ``n_sent`` optimisation of section 6.2.
* :mod:`repro.core.recommendations` -- the recommendation engine of
  section 6 (best (code, tx model, ratio) tuple for a channel).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": "SimulationConfig",
    "experiments": "EXPERIMENTS ExperimentScale ExperimentSpec SCALES get_experiment",
    "metrics": "GridResult RunResult RunResultBatch",
    "optimizer": "optimal_nsent optimal_nsent_for_object worked_example_section_6_2_1",
    "recommendations": "Recommendation recommend_for_channel universal_recommendations",
    "simulator": "Simulator simulate_once",
    "sweep": "simulate_grid sweep_parameter",
})

__all__ = [
    "SimulationConfig",
    "RunResult",
    "RunResultBatch",
    "GridResult",
    "Simulator",
    "simulate_once",
    "simulate_grid",
    "sweep_parameter",
    "ExperimentSpec",
    "ExperimentScale",
    "EXPERIMENTS",
    "SCALES",
    "get_experiment",
    "optimal_nsent",
    "optimal_nsent_for_object",
    "worked_example_section_6_2_1",
    "Recommendation",
    "recommend_for_channel",
    "universal_recommendations",
]
