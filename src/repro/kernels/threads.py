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
   the number of executor workers sharing this process' socket, times
   the number of live fleet peers on this host.

The division in step 3 is the **oversubscription rule**: executor workers
x kernel threads x same-host fleet peers never exceeds the physical
cores.  Executors declare their local parallelism through
:func:`set_worker_divisor` before dispatching units (the thread executor
in-process, the process pool via its worker initializer), so
``--workers 4 --kernel-threads auto`` on a 16-core box gives each worker
4 kernel threads instead of 4x16 runnable threads.  A
:class:`~repro.runner.fleet.FleetRunner` declares the live fleet peers
sharing its host through :func:`set_host_peers` (counted from the
store's presence leases), so two ``--fleet`` processes on a 2-core box
run one kernel thread each instead of two.  The two factors are separate
process state and compose: an executor declaring its workers never
overwrites the fleet's peer count, and the process pool hands the peer
count to its workers along with its own size.  Outside a fleet the peer
factor is 1, and explicit counts are never divided.

The *requested* spec travels as data (a normalised string on the work
unit); :func:`thread_count_context` resolves it to an integer once, when
the executing process enters it (once per work unit), and the kernel call
sites read that integer through :func:`current_thread_count`.  A peer
count or divisor declared between units therefore takes effect at the
next unit.  The context is thread-local, so thread-executor workers
cannot race each other's resolution.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import ContextManager, Iterator, Optional, Union

#: Environment variable consulted when no explicit thread count is given.
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: ``kernel_threads=`` arguments accepted everywhere: a positive integer,
#: a numeric string, ``"auto"``, or None (environment / auto resolution).
ThreadSpec = Union[int, str, None]

_local = threading.local()

#: Executor workers sharing this process' cores; ``auto`` divides by it.
_worker_divisor = 1

#: Live fleet peers (this process included) on this host; ``auto``
#: divides by it too.
_host_peers = 1

_physical_cores: Optional[int] = None


def normalize_thread_spec(spec: ThreadSpec) -> Optional[str]:
    """Validate a thread spec and normalise it to ``None``/``"auto"``/digits.

    The normalised form is what :class:`~repro.runner.units.WorkUnit`
    stores (a plain string keeps units picklable and JSON-clean), and a
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
    the platform says, else ``os.cpu_count()``: an unsized pool's size."""
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


def set_worker_divisor(workers: int) -> int:
    """Declare how many executor workers share this process' cores.

    Returns the previous divisor so callers can restore it; ``auto``
    thread counts become ``max(1, physical_cores() // workers)``.
    """
    global _worker_divisor
    previous = _worker_divisor
    _worker_divisor = max(1, int(workers))
    return previous


def worker_divisor() -> int:
    """The currently declared executor-worker divisor."""
    return _worker_divisor


#: Per process-wide factor: its value before its open scopes, then theirs.
_open_scopes: dict = {}
_scopes_lock = threading.Lock()


@contextmanager
def _scoped(setter, value: int) -> Iterator[None]:
    """Hold ``setter(value)`` for the scope.  Scopes may overlap and close in
    any order (two thread pools or fleet peers in one process): the newest
    open one's value holds; the last to close restores the value before all.
    """
    with _scopes_lock:
        scopes = _open_scopes.setdefault(setter, [])
        previous = setter(value)
        scopes.extend([value] if scopes else [previous, value])
    try:
        yield
    finally:
        with _scopes_lock:
            # The last equal entry: never the base at index 0.
            del scopes[len(scopes) - 1 - scopes[::-1].index(value)]
            setter(scopes[-1])
            if len(scopes) == 1:
                scopes.clear()


def worker_divisor_context(workers: int) -> ContextManager[None]:
    """Scope :func:`set_worker_divisor` to a dispatch loop."""
    return _scoped(set_worker_divisor, workers)


def set_host_peers(peers: int) -> int:
    """Declare how many live fleet peers share this host's cores.

    Returns the previous count so callers can restore it; ``auto``
    thread counts become ``max(1, physical_cores() // (workers * peers))``.
    """
    global _host_peers
    previous = _host_peers
    _host_peers = max(1, int(peers))
    return previous


def host_peers() -> int:
    """The currently declared same-host fleet-peer count."""
    return _host_peers


def host_peers_context(peers: int = 1) -> ContextManager[None]:
    """Scope :func:`set_host_peers` to a fleet run.

    The fleet runner enters it before registering its presence and
    updates the count with :func:`set_host_peers` as peers come and go.
    """
    return _scoped(set_host_peers, peers)


def _count_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextmanager
def thread_count_context(spec: ThreadSpec) -> Iterator[None]:
    """Resolve ``spec`` once and make it this thread's kernel team size.

    ``None`` takes the count in force at entry (an enclosing context, the
    environment, or ``auto``), so nesting ``kernel_threads=None`` calls
    inside an explicit selection inherits the outer choice.
    """
    normalized = normalize_thread_spec(spec)
    if normalized is None:
        count = current_thread_count()
    else:
        count = resolve_thread_count(normalized)
    stack = _count_stack()
    stack.append(count)
    try:
        yield
    finally:
        stack.pop()


def resolve_thread_count(spec: ThreadSpec = None) -> int:
    """Resolve a thread spec to a concrete positive thread count."""
    normalized = normalize_thread_spec(spec)
    if normalized is None:
        normalized = normalize_thread_spec(os.environ.get(THREADS_ENV_VAR))
    if normalized is None or normalized == "auto":
        return max(1, physical_cores() // (_worker_divisor * _host_peers))
    return int(normalized)


def current_thread_count() -> int:
    """The thread count a kernel call should use *right now*.

    The innermost :func:`thread_count_context`'s count wins; outside any
    context the environment / ``auto`` chain resolves (so direct backend
    calls in tests and notebooks honour ``REPRO_KERNEL_THREADS`` too).
    """
    stack = getattr(_local, "stack", None)
    if stack:
        return stack[-1]
    return resolve_thread_count(None)


__all__ = [
    "THREADS_ENV_VAR",
    "ThreadSpec",
    "normalize_thread_spec",
    "available_cpus",
    "physical_cores",
    "set_worker_divisor",
    "worker_divisor",
    "worker_divisor_context",
    "set_host_peers",
    "host_peers",
    "host_peers_context",
    "thread_count_context",
    "resolve_thread_count",
    "current_thread_count",
]
