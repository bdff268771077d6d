"""Kernel scopes: which backend runs the hot loops, and on how many threads.

Two wall-clock knobs decide how a work unit's kernels run, and neither
changes a single output bit:

* the **backend** (``kernel``): ``numpy``, ``cext`` or a registered
  third-party one (:mod:`repro.kernels.registry`);
* the **thread team** (``kernel_threads``): the compiled kernels
  (:mod:`repro.kernels.cext`) can run their per-run loops row-parallel
  with OpenMP.  Runs within a work unit are independent rows -- each run
  writes its own ``decoded[run]`` / ``n_necessary[run]`` slot and peels
  on private scratch -- so 1 thread and N threads produce bit-identical
  arrays.

Both are excluded from cache keys, and both are resolved together, once,
by :func:`kernel_scope`; every kernel call site below it reads the
result through :func:`current_backend` / :func:`current_thread_count`
instead of taking a ``kernel=`` argument.  A work unit opens one scope
(:func:`repro.runner.units.execute_unit`), direct library calls open one
when none is open (:func:`repro.fastpath.simulate_batch_columnar`), and
the incremental reference simulator pins its channel draws to numpy
with ``kernel_scope("numpy")``.

Resolution order, for each knob on its own:

1. an explicit argument to :func:`kernel_scope` (``--kernel`` /
   ``--kernel-threads`` on the CLI, the ``kernel`` / ``kernel_threads``
   fields of a :class:`~repro.runner.units.WorkUnit`),
2. the enclosing scope's choice,
3. the environment: ``REPRO_KERNEL`` / ``REPRO_KERNEL_THREADS``,
4. ``auto``: ``cext`` when it builds, else numpy; and the machine's
   physical core count divided by the threads and processes that share
   them.

The division in step 4 is the **oversubscription rule**: pool threads x
same-host fleet peers x kernel threads never exceeds the physical cores.
Whatever starts several runners of units on one host says so with
:func:`share_cores`: the thread executor for the threads its pool starts,
a :class:`~repro.runner.fleet.FleetRunner` for the live fleet peers on
its host (counted from the store's presence leases) in each claim round.
Nested shares multiply, so two ``--fleet`` peers with ``--workers 2`` on
a 4-core box run one kernel thread per pool thread.  Explicit counts are
never divided.

The *requested* specs travel as data (plain strings on the work unit);
the scope and the share are :class:`~contextvars.ContextVar` values, not
process state: each thread sees only its own context (a pool's workers
and a unit's watchdog run in copies of their caller's), so concurrent
pools, fleet peers and serial sweeps in one process never see each
other's choice, and a scope cannot outlive its ``with`` block.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator, Optional, Tuple, Union

from repro.kernels.registry import KernelSpec, get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.base import KernelBackend

#: Environment variable consulted when no explicit thread count is given.
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: Thread counts :func:`kernel_scope` and ``ExecutionOptions.kernel_threads``
#: accept: a positive integer, a numeric string, ``"auto"``, or None
#: (environment / auto resolution).
ThreadSpec = Union[int, str, None]

#: The backend, team size and normalised thread request of the innermost
#: :func:`kernel_scope` (None outside one).
_scope: ContextVar[Optional[Tuple["KernelBackend", int, Optional[str]]]] = ContextVar(
    "repro_kernel_scope", default=None
)

#: How many threads or processes share the cores ``auto`` divides: the
#: product of the enclosing :func:`share_cores` scopes.
_core_share: ContextVar[int] = ContextVar("repro_core_share", default=1)

_physical_cores: Optional[int] = None


def normalize_thread_spec(spec: ThreadSpec) -> Optional[str]:
    """Validate a thread spec and normalise it to ``None``/``"auto"``/digits.

    The normalised form is what :class:`~repro.runner.units.WorkUnit`
    stores (a plain string keeps units JSON-clean), and a
    bad ``--kernel-threads`` fails here, at planning time, not inside a
    worker.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        value = spec.strip().lower()
        if not value:
            return None
        if value == "auto":
            return "auto"
        try:
            spec = int(value)
        except ValueError:
            raise ValueError(
                f"kernel_threads must be a positive integer or 'auto', got {spec!r}"
            ) from None
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 1:
        raise ValueError(
            f"kernel_threads must be a positive integer or 'auto', got {spec!r}"
        )
    return str(spec)


def physical_cores() -> int:
    """Physical core count (``auto``'s numerator), hyperthreads excluded.

    Parsed from ``/proc/cpuinfo`` where available -- oversubscribing
    hyperthreads buys nothing for these memory-bound loops -- and capped
    at :func:`available_cpus`, the portable fallback.
    """
    global _physical_cores
    if _physical_cores is None:
        _physical_cores = _count_physical_cores()
    return _physical_cores


def available_cpus() -> int:
    """The CPUs this process may run on (``taskset``, cgroup cpusets) where
    the platform says, else ``os.cpu_count()``: the cap on
    :func:`physical_cores`."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_physical_cores() -> int:
    fallback = available_cpus()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return fallback
    cores = set()
    physical_id = core_id = None
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            physical_id = value.strip()
        elif key == "core id":
            core_id = value.strip()
        elif not line.strip():
            if core_id is not None:
                cores.add((physical_id, core_id))
            physical_id = core_id = None
    if core_id is not None:
        cores.add((physical_id, core_id))
    count = len(cores)
    return min(count, fallback) if count > 0 else fallback


@contextmanager
def share_cores(threads: int) -> Iterator[None]:
    """Divide ``auto`` thread counts by ``threads`` more for the scope.

    ``threads`` is how many runners of units share the cores at this
    level (pool threads, same-host fleet peers); it multiplies any
    enclosing scope's share.  The scope holds in this context alone: a
    thread the caller starts sees it only when it runs in a copy of the
    caller's context (:func:`contextvars.copy_context`).
    """
    token = _core_share.set(_core_share.get() * max(1, int(threads)))
    try:
        yield
    finally:
        _core_share.reset(token)


@contextmanager
def kernel_scope(
    kernel: KernelSpec = None, threads: ThreadSpec = None
) -> Iterator["KernelBackend"]:
    """Resolve the backend and the thread team once, for the ``with`` block.

    ``None`` for either takes the choice in force at entry -- the
    enclosing scope's, else the environment / ``auto`` resolution -- so a
    bare ``kernel_scope()`` inside an open scope changes nothing and
    resolves nothing.  An inherited ``auto`` team is resolved again, so a
    unit's scope divides the cores by the pools and peers around it
    (:func:`share_cores`).  An explicit ``kernel`` goes through the strict
    :func:`~repro.kernels.registry.get_backend`: an unknown or
    unavailable backend raises here.  Yields the scope's backend.
    """
    outer = _scope.get()
    if outer is not None and kernel is None and threads is None:
        yield outer[0]
        return
    spec = normalize_thread_spec(threads)
    if outer is None:
        backend = get_backend(kernel)
    else:
        backend = outer[0] if kernel is None else get_backend(kernel)
        spec = outer[2] if spec is None else spec
    token = _scope.set((backend, resolve_thread_count(spec), spec))
    try:
        yield backend
    finally:
        _scope.reset(token)


def resolve_thread_count(spec: ThreadSpec = None) -> int:
    """Resolve a thread spec to a concrete positive thread count."""
    normalized = normalize_thread_spec(spec)
    if normalized is None:
        normalized = normalize_thread_spec(os.environ.get(THREADS_ENV_VAR))
    if normalized is None or normalized == "auto":
        return max(1, physical_cores() // _core_share.get())
    return int(normalized)


def current_backend() -> "KernelBackend":
    """The backend a kernel call should use *right now*.

    The innermost :func:`kernel_scope`'s backend; outside any scope the
    ``REPRO_KERNEL`` / ``auto`` chain resolves on each call.
    """
    scope = _scope.get()
    return get_backend(None) if scope is None else scope[0]


def current_thread_count() -> int:
    """The thread count a kernel call should use *right now*.

    The innermost :func:`kernel_scope`'s count; outside any scope the
    environment / ``auto`` chain resolves on each call (so direct backend
    calls in tests and notebooks honour ``REPRO_KERNEL_THREADS`` too).
    """
    scope = _scope.get()
    return resolve_thread_count(None) if scope is None else scope[1]


__all__ = [
    "THREADS_ENV_VAR",
    "ThreadSpec",
    "normalize_thread_spec",
    "available_cpus",
    "physical_cores",
    "share_cores",
    "kernel_scope",
    "resolve_thread_count",
    "current_backend",
    "current_thread_count",
]
