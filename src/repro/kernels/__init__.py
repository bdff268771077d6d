"""Pluggable kernel backends for the decode hot loops.

The fast path's remaining wall-clock cost is concentrated in a few loops:
the LDGM peel, the RSE/repetition block count, the Gilbert sojourn draws
and fill, the received-batch gather and (on ``cext``) the per-run stream
seeding and shuffles.  This package puts them behind a swappable
:class:`~repro.kernels.base.KernelBackend`:

* ``numpy`` -- the always-available fallback: it decodes LDGM by
  replaying the code's own incremental decoder run by run, and the block
  count as first-arrival order statistics.
* ``cext`` -- per-run loop kernels in C, compiled on demand with the
  system compiler (``cc -O2``) and loaded via ctypes; auto-selected when
  a compiler is present.

Selection: ``ExecutionOptions.kernel`` for sweeps, ``python -m repro run
--kernel``, or :func:`~repro.kernels.threads.kernel_scope` around direct
library calls; the ``REPRO_KERNEL`` environment variable; or ``auto``
(the default).  Every backend is bit-identical to the incremental
reference decoder -- the equivalence suite enforces it -- so the choice
is purely a wall-clock knob.

The compiled ``cext`` kernels additionally run row-parallel over a work
unit's runs (OpenMP, with a probed serial fallback); the thread count is
the ``kernel_threads`` knob, resolved from ``REPRO_KERNEL_THREADS`` /
``auto`` = physical cores divided by the pool threads and same-host
fleet peers sharing them, and bit-identical at any value.  One
:func:`~repro.kernels.threads.kernel_scope` per work unit resolves both
knobs once; the kernel call sites read them with ``current_backend()``
and ``current_thread_count()``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": "NOT_DECODED KernelBackend ReceivedBatch",
    "registry": (
        "AUTO_ORDER ENV_VAR KernelSpec KernelUnavailableError available_backends "
        "cext_compiler_available cext_openmp_enabled default_backend_name "
        "get_backend register_backend"
    ),
    "threads": (
        "THREADS_ENV_VAR ThreadSpec current_backend current_thread_count kernel_scope "
        "normalize_thread_spec physical_cores resolve_thread_count share_cores"
    ),
})

__all__ = [
    "KernelBackend",
    "ReceivedBatch",
    "NOT_DECODED",
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
    "THREADS_ENV_VAR",
    "ThreadSpec",
    "normalize_thread_spec",
    "physical_cores",
    "resolve_thread_count",
    "current_backend",
    "current_thread_count",
    "kernel_scope",
    "share_cores",
]
