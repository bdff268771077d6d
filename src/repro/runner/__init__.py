"""Parallel experiment-execution engine.

The runner turns the library's sweeps into batches of independent,
picklable work units, executes them serially or on a process pool, caches
finished units on disk and reassembles the historical result containers --
bit-identically, whatever the execution strategy:

* :mod:`repro.runner.units` -- the work-unit model and seed derivation.
* :mod:`repro.runner.executors` -- serial, process-pool and thread-pool
  executors; every one runs units under a failure policy.
* :mod:`repro.runner.fleet` -- cooperative fleet execution: work-unit
  leases over a shared store, so N coordinator-free processes split one
  sweep with no duplicated work and crash tolerance.
* :mod:`repro.runner.options` -- :class:`ExecutionOptions`, how a sweep
  executes (executor, store, kernel, seed scheme, fleet, failure policy,
  adaptive stopping), passed as one object through every sweep layer.
* :mod:`repro.runner.engine` -- planning, caching, execution, aggregation.
* :mod:`repro.runner.cli` -- the ``python -m repro`` command-line front end.

The public sweep API (``repro.core.sweep``), the experiment presets and
the benchmark harness are thin wrappers over :func:`run_grid` /
:func:`run_series`.
"""

from repro.runner.engine import run_grid, run_series
from repro.runner.executors import ProcessExecutor, SerialExecutor, resolve_executor
from repro.runner.fleet import (
    DEFAULT_LEASE_TTL,
    FleetRunner,
    FleetStats,
    default_worker_id,
)
from repro.runner.options import ExecutionOptions
from repro.runner.units import UnitResult, WorkUnit, execute_unit, plan_units

__all__ = [
    "DEFAULT_LEASE_TTL",
    "ExecutionOptions",
    "FleetRunner",
    "FleetStats",
    "default_worker_id",
    "run_grid",
    "run_series",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
    "UnitResult",
    "WorkUnit",
    "execute_unit",
    "plan_units",
]
