"""Kernel thread-count resolution: the ``kernel_threads`` knob.

The compiled kernels (:mod:`repro.kernels.cext`) can run their per-run
loops row-parallel with OpenMP.  Runs within a work unit are independent
rows -- each run writes its own ``decoded[run]`` / ``n_necessary[run]``
slot and peels on private scratch -- so parallel-over-runs is *exact*:
1 thread and N threads produce bit-identical arrays, and the thread count
is a pure wall-clock knob (excluded from cache keys, like ``kernel``).

Resolution order, mirroring the kernel-backend selection:

1. an explicit ``kernel_threads=`` argument (``--kernel-threads`` on the
   CLI, the ``kernel_threads`` field of a :class:`~repro.runner.units.WorkUnit`),
2. the ``REPRO_KERNEL_THREADS`` environment variable,
3. ``auto`` (the default): the machine's physical core count divided by
   the threads and processes that share them.

The division in step 3 is the **oversubscription rule**: pool threads x
same-host fleet peers x kernel threads never exceeds the physical cores.
Whatever starts several runners of units on one host says so with
:func:`share_cores`: the thread executor for the threads its pool starts,
a :class:`~repro.runner.fleet.FleetRunner` for the live fleet peers on
its host (counted from the store's presence leases) in each claim round.
Nested scopes multiply, so two ``--fleet`` peers with ``--workers 2`` on
a 4-core box run one kernel thread per pool thread.  Explicit counts are
never divided.

The *requested* spec travels as data (a normalised string on the work
unit); :func:`thread_count_context` resolves it to an integer once per
work unit, and the kernel call sites read that integer through
:func:`current_thread_count`.  Both the share and the resolved count are
:class:`~contextvars.ContextVar` values, not process state: each thread
sees only its own context (a pool's workers and a unit's watchdog run in
copies of their caller's), so concurrent pools, fleet peers and serial
sweeps in one process never see each other's share, and a scope cannot
outlive its ``with`` block.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Union

#: Environment variable consulted when no explicit thread count is given.
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: ``kernel_threads=`` arguments accepted everywhere: a positive integer,
#: a numeric string, ``"auto"``, or None (environment / auto resolution).
ThreadSpec = Union[int, str, None]

#: The team size of the innermost :func:`thread_count_context` (None
#: outside one).
_team: ContextVar[Optional[int]] = ContextVar("repro_kernel_team", default=None)

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
def thread_count_context(spec: ThreadSpec) -> Iterator[None]:
    """Resolve ``spec`` once and make it this context's kernel team size.

    ``None`` takes the count in force at entry (an enclosing context, the
    environment, or ``auto``), so nesting ``kernel_threads=None`` calls
    inside an explicit selection inherits the outer choice.
    """
    normalized = normalize_thread_spec(spec)
    if normalized is None:
        count = current_thread_count()
    else:
        count = resolve_thread_count(normalized)
    token = _team.set(count)
    try:
        yield
    finally:
        _team.reset(token)


def resolve_thread_count(spec: ThreadSpec = None) -> int:
    """Resolve a thread spec to a concrete positive thread count."""
    normalized = normalize_thread_spec(spec)
    if normalized is None:
        normalized = normalize_thread_spec(os.environ.get(THREADS_ENV_VAR))
    if normalized is None or normalized == "auto":
        return max(1, physical_cores() // _core_share.get())
    return int(normalized)


def current_thread_count() -> int:
    """The thread count a kernel call should use *right now*.

    The innermost :func:`thread_count_context`'s count wins; outside any
    context the environment / ``auto`` chain resolves (so direct backend
    calls in tests and notebooks honour ``REPRO_KERNEL_THREADS`` too).
    """
    count = _team.get()
    return resolve_thread_count(None) if count is None else count


__all__ = [
    "THREADS_ENV_VAR",
    "ThreadSpec",
    "normalize_thread_spec",
    "available_cpus",
    "physical_cores",
    "share_cores",
    "thread_count_context",
    "resolve_thread_count",
    "current_thread_count",
]
