"""Parallel experiment-execution engine.

The runner turns the library's sweeps into batches of independent,
plain-data work units, executes them serially or on a thread pool, caches
finished units on disk and reassembles the historical result containers --
bit-identically, whatever the execution strategy:

* :mod:`repro.runner.units` -- the work-unit model and seed derivation.
* :mod:`repro.runner.executors` -- the serial and thread-pool executors;
  both run units under a failure policy.
* :mod:`repro.runner.fleet` -- cooperative fleet execution: work-unit
  leases over a shared store, so N coordinator-free processes split one
  sweep with no duplicated work and crash tolerance.
* :mod:`repro.runner.options` -- :class:`ExecutionOptions`, how a sweep
  executes (executor, store, kernel, seed scheme, fleet, failure policy,
  adaptive stopping), passed as one object through every sweep layer.
* :mod:`repro.runner.engine` -- planning, caching, execution, aggregation.
* :mod:`repro.runner.heap` -- keeps the blocks a unit frees in the heap for
  the next unit (glibc), so a sweep does not fault its buffers in per unit.
* :mod:`repro.runner.cli` -- the ``python -m repro`` command-line front end.

The public sweep API (``repro.core.sweep``), the experiment presets and
the benchmark harness are thin wrappers over :func:`run_grid` /
:func:`run_grids` (one pass over several configurations) /
:func:`run_series`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "engine": "run_grid run_grids run_series",
    "executors": "SerialExecutor resolve_executor",
    "fleet": "FleetRunner FleetStats default_worker_id",
    "options": "DEFAULT_LEASE_TTL ExecutionOptions",
    "units": "UnitResult WorkUnit execute_unit plan_units",
})

__all__ = [
    "DEFAULT_LEASE_TTL",
    "ExecutionOptions",
    "FleetRunner",
    "FleetStats",
    "default_worker_id",
    "run_grid",
    "run_grids",
    "run_series",
    "SerialExecutor",
    "resolve_executor",
    "UnitResult",
    "WorkUnit",
    "execute_unit",
    "plan_units",
]
