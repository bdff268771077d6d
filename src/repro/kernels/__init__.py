"""Pluggable kernel backends for the decode hot loops.

The fast path's remaining wall-clock cost is concentrated in four loops:
the LDGM batch-peel cascade, the gallop+bisect prefix search it serves,
the RSE/repetition block count, and the Gilbert sojourn fill.  This
package puts them behind a swappable
:class:`~repro.kernels.base.KernelBackend`:

* ``numpy`` -- the always-available vectorised reference, with a
  chain-aware cascade for the bidiagonal (staircase/triangle) parity
  structures and first-arrival order statistics for the block count.
* ``cext`` -- per-run loop kernels in C, compiled on demand with the
  system compiler (``cc -O2``) and loaded via ctypes; auto-selected when
  a compiler is present.

Selection: ``kernel=`` on ``compile_prototype`` / ``Simulator.run_many``,
``ExecutionOptions.kernel`` for sweeps, ``python -m repro run
--kernel``; the ``REPRO_KERNEL`` environment variable; or ``auto`` (the
default).  Every backend is bit-identical to the incremental reference
decoder -- the equivalence suite enforces it -- so the choice is purely a
wall-clock knob.

The compiled ``cext`` kernels additionally run row-parallel over a work
unit's runs (OpenMP, with a probed serial fallback); the thread count is
the ``kernel_threads`` knob of :mod:`repro.kernels.threads` -- set where
``kernel`` is, resolved from
``REPRO_KERNEL_THREADS`` / ``auto`` = physical cores divided by the
executor's worker count, and bit-identical at any value.
"""

from repro.kernels.base import (
    COUNT_SHIFT,
    NOT_DECODED,
    SENTINEL_WORD,
    SUM_MASK,
    KernelBackend,
    ReceivedBatch,
)
from repro.kernels.registry import (
    AUTO_ORDER,
    ENV_VAR,
    KernelSpec,
    KernelUnavailableError,
    available_backends,
    cext_compiler_available,
    cext_openmp_enabled,
    default_backend_name,
    get_backend,
    get_backend_for_run,
    register_backend,
)
from repro.kernels.threads import (
    THREADS_ENV_VAR,
    ThreadSpec,
    current_thread_count,
    normalize_thread_spec,
    physical_cores,
    resolve_thread_count,
    set_worker_divisor,
    thread_count_context,
    worker_divisor_context,
)

__all__ = [
    "KernelBackend",
    "ReceivedBatch",
    "NOT_DECODED",
    "COUNT_SHIFT",
    "SUM_MASK",
    "SENTINEL_WORD",
    "ENV_VAR",
    "KernelSpec",
    "KernelUnavailableError",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "cext_compiler_available",
    "cext_openmp_enabled",
    "AUTO_ORDER",
    "get_backend",
    "get_backend_for_run",
    "THREADS_ENV_VAR",
    "ThreadSpec",
    "normalize_thread_spec",
    "physical_cores",
    "resolve_thread_count",
    "current_thread_count",
    "thread_count_context",
    "set_worker_divisor",
    "worker_divisor_context",
]
