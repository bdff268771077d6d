"""Executors: strategies for running a batch of work units.

Three strategies are provided behind one tiny interface
(``run(units, on_result, on_failure, policy)``): :class:`SerialExecutor`
(in order, in the calling process), :class:`ProcessExecutor` (a process
pool) and :class:`ThreadExecutor` (an in-process thread pool).  Each cuts
the units it is given into synthesis groups
(:func:`~repro.runner.units.synthesis_groups`: the units of one cell that
differ only in the code) and runs a group in one :func:`run_group` call,
so the group synthesizes each transmission once, whichever executor,
thread or watchdog runs it.  Every unit derives its own seeds, so
completion order does not matter and results are bit-identical across
executors.

``on_result(unit, result)`` is always invoked in the calling process and
thread (for the pools: as futures complete), which is what bridges worker
progress back to the user's progress callback and lets the engine write
the result store from a single thread.  Every callback hands back the
planned unit itself (``on_failure(unit, failure)`` likewise), so the
caller never has to match a result to its unit by cell and run range --
which would collide between the configurations of one engine pass.

Every ``run`` takes the sweep's
:class:`~repro.resilience.policy.FailurePolicy` (default: the fail-fast
:data:`~repro.resilience.policy.DEFAULT_POLICY`), and every unit goes
through :func:`~repro.resilience.policy.run_unit_with_policy`: it is
retried with deterministic backoff (and an optional per-attempt
timeout), and a unit that exhausts its attempts -- a single attempt
under the default -- is *dispatched*: ``on_error="raise"`` raises
:class:`~repro.resilience.errors.PoisonUnitError` naming the original
error (chained as ``__cause__`` where it ran in-process), the
skip/quarantine actions hand a structured
:class:`~repro.resilience.policy.UnitFailure` to the ``on_failure``
callback.  The retry loop runs where the unit runs (pool outcomes are
picklable); dispatch happens in the calling thread.

:class:`~repro.runner.fleet.FleetRunner` implements the same protocol on
top of a shared result store's lease API, wrapping one of these executors
for the units it wins -- an executor is "how this process runs units",
the fleet runner is "which units this process gets to run".  Executors
expose their local parallelism as a ``workers`` attribute so the fleet
runner can size its claim batches.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, List, Optional, Protocol,
    Sequence, Tuple, Union,
)

from repro.kernels.threads import (
    available_cpus, host_peers, set_host_peers, set_worker_divisor, worker_divisor_context,
)
from repro.resilience.errors import PoisonUnitError
from repro.resilience.policy import (
    DEFAULT_POLICY,
    FailurePolicy,
    UnitFailure,
    UnitOutcome,
    run_unit_with_policy,
)
from repro.runner.options import EXECUTOR_NAMES
from repro.runner.units import (
    FrontEnds, UnitResult, WorkUnit, execute_unit, synthesis_groups,
)
from repro.utils.validation import validate_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only; pools import on first use
    import multiprocessing
    from concurrent.futures import Executor as PoolExecutor

OnResult = Callable[[WorkUnit, UnitResult], None]
OnFailure = Callable[[WorkUnit, UnitFailure], None]


class Executor(Protocol):
    """Anything that can execute work units and stream back results."""

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        policy: FailurePolicy = DEFAULT_POLICY,
    ) -> None: ...


def deliver_outcome(
    unit: WorkUnit,
    outcome: UnitOutcome,
    policy: FailurePolicy,
    on_result: OnResult,
    on_failure: Optional[OnFailure],
) -> None:
    """Dispatch ``unit``'s policy outcome: result, failure callback, or raise.

    ``on_error="raise"`` (and a missing ``on_failure`` sink, whatever the
    action) escalates to :class:`PoisonUnitError` carrying the structured
    failure, chained to the original exception when it is at hand -- the
    caller that configured skip/quarantine always provides the sink, so
    the error path cannot silently drop units.
    """
    if outcome.result is not None:
        on_result(unit, outcome.result)
        return
    failure = outcome.failure
    assert failure is not None
    if policy.on_error == "raise" or on_failure is None:
        raise PoisonUnitError(failure.describe(), failure) from outcome.error
    on_failure(unit, failure)


def run_group(
    group: Sequence[WorkUnit],
    policy: FailurePolicy,
    execute: Callable[[WorkUnit, FrontEnds], UnitResult],
) -> Iterator[Tuple[WorkUnit, UnitOutcome]]:
    """Run one synthesis group's units in order, each under ``policy``,
    yielding each unit with its outcome as soon as it is known.

    Every attempt is ``execute(unit, front_ends)`` with one dict local to
    this call, so the group's codes decode one synthesized transmission
    whatever thread or watchdog runs them, and nothing outlives the group.
    """
    front_ends: FrontEnds = {}
    for unit in group:
        yield unit, run_unit_with_policy(
            unit, policy, execute=partial(execute, front_ends=front_ends)
        )


def _dispatch(
    pool: PoolExecutor,
    task: Callable[[Any], Any],
    items: Iterable[Any],
    max_pending: int,
    deliver: Callable[[Any, Any], None],
) -> None:
    """Run ``task`` over ``items`` on ``pool``, at most ``max_pending`` in flight.

    Each finished task's item and return value are handed to ``deliver``
    in the calling thread as soon as it completes, so a paper-scale unit
    list never enqueues tens of thousands of futures at once.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    pending: dict = {}
    queued = iter(items)
    while True:
        for item in islice(queued, max_pending - len(pending)):
            pending[pool.submit(task, item)] = item
        if not pending:
            return
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            deliver(pending.pop(future), future.result())


class SerialExecutor:
    """Execute synthesis groups one after the other in the calling process."""

    #: Local parallelism (fleet claim-batch sizing).
    workers = 1

    def _execute_one(self, unit: WorkUnit, front_ends: FrontEnds) -> UnitResult:
        """Execution hook (fault-injecting test executors override it)."""
        return execute_unit(unit, front_ends)

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        policy: FailurePolicy = DEFAULT_POLICY,
    ) -> None:
        for group in synthesis_groups(units):
            for unit, outcome in run_group(group, policy, self._execute_one):
                deliver_outcome(unit, outcome, policy, on_result, on_failure)


def _pool_context() -> multiprocessing.context.BaseContext:
    """A fork-safe multiprocessing context for the process pool.

    Plain ``fork`` is off the table once compiled kernels may have run
    OpenMP regions in the parent: libgomp's thread-team state does not
    survive ``fork()``, and a forked worker entering its first parallel
    region deadlocks.  ``forkserver`` sidesteps this -- the server
    process is started by exec before any kernel runs, so its children
    are always OpenMP-clean -- with ``spawn`` as the portable fallback
    where ``forkserver`` is unavailable.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _init_pool_worker(divisor: int, peers: int) -> None:
    """Process-pool worker initializer, run once per worker process.

    Declares the pool size and the parent's same-host fleet-peer count to
    the kernel-thread resolver, so ``auto`` kernel threads obey the
    oversubscription rule inside a fleet too.  A worker builds the codes
    it needs in the first unit that needs them
    (:data:`~repro.runner.units._CODE_CACHE`).
    """
    set_worker_divisor(divisor)
    set_host_peers(peers)


def _run_chunk(
    groups: Sequence[Sequence[WorkUnit]], policy: FailurePolicy
) -> List[UnitOutcome]:
    """Process-pool task: one chunk of synthesis groups under ``policy``."""
    return [out for group in groups for _unit, out in run_group(group, policy, execute_unit)]


class ProcessExecutor:
    """Execute units on a process pool with chunked dispatch.

    Parameters
    ----------
    workers:
        Pool size; defaults to the CPUs this process may run on
        (:func:`~repro.kernels.threads.available_cpus`).

    Synthesis groups go to the workers in chunks, about four per worker,
    which amortises pickling overhead while keeping the pool balanced when
    cells have very different costs (decoding failures are much cheaper
    than successes); at most ``4 * workers`` chunks are in flight.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = validate_positive_int(
            available_cpus() if workers is None else workers, "workers"
        )

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        policy: FailurePolicy = DEFAULT_POLICY,
    ) -> None:
        groups = list(synthesis_groups(units))
        if not groups:
            return
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(groups) // (4 * self.workers))
        chunks = [groups[i : i + size] for i in range(0, len(groups), size)]
        pool_size = min(self.workers, len(chunks))

        def deliver(chunk: List[List[WorkUnit]], outcomes: List[UnitOutcome]) -> None:
            chunk_units = [unit for group in chunk for unit in group]
            for unit, outcome in zip(chunk_units, outcomes):
                deliver_outcome(unit, outcome, policy, on_result, on_failure)

        with ProcessPoolExecutor(
            max_workers=pool_size,
            mp_context=_pool_context(),
            initializer=_init_pool_worker,
            initargs=(pool_size, host_peers()),
        ) as pool:
            _dispatch(
                pool, partial(_run_chunk, policy=policy), chunks,
                4 * self.workers, deliver,
            )


class ThreadExecutor(SerialExecutor):
    """Execute synthesis groups on an in-process thread pool: shared memory,
    no pickling.

    Worker threads share the per-backend compiled-prototype cache, the
    shared-code cache and every NumPy buffer directly, so the pickling
    and per-process compile costs of :class:`ProcessExecutor` vanish.
    Pure-Python stages still serialise on the GIL, but the compiled
    kernels (and NumPy's own released-GIL regions) run concurrently --
    ctypes drops the GIL for the duration of each C call -- which makes
    thread workers compose with the kernels' OpenMP row-parallelism.

    While dispatching, the executor declares its worker count to
    :mod:`repro.kernels.threads`, so ``kernel_threads="auto"`` resolves
    to ``physical_cores // (workers x same-host fleet peers)`` per unit:
    the oversubscription rule (executor threads x kernel threads x peers
    <= cores) holds by construction.

    Each task is one synthesis group (:func:`run_group`), so the codes of
    a cell share its front end whichever thread runs it.  Completion
    order does not matter -- every unit derives its own seeds and the
    engine reassembles cells from the units handed back -- so results are
    bit-identical to the serial and process executors.  ``on_result`` /
    ``on_failure`` are invoked in the calling thread, for a group's units
    once the group is done.

    Parameters
    ----------
    workers:
        Thread count; defaults to the CPUs this process may run on
        (:func:`~repro.kernels.threads.available_cpus`).  At most
        ``4 * workers`` groups are in flight, bounding the retained
        futures for paper-scale unit lists.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = validate_positive_int(
            available_cpus() if workers is None else workers, "workers"
        )

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        policy: FailurePolicy = DEFAULT_POLICY,
    ) -> None:
        groups = list(synthesis_groups(units))
        if not groups:
            return
        from concurrent.futures import ThreadPoolExecutor

        def deliver(_group, outcomes) -> None:
            for unit, outcome in outcomes:
                deliver_outcome(unit, outcome, policy, on_result, on_failure)

        with worker_divisor_context(self.workers), ThreadPoolExecutor(
            max_workers=min(self.workers, len(groups)),
            thread_name_prefix="repro-unit",
        ) as pool:
            _dispatch(
                pool,
                lambda group: list(run_group(group, policy, self._execute_one)),
                groups,
                4 * self.workers,
                deliver,
            )


def resolve_executor(
    executor: Union[str, Executor, None], workers: Optional[int] = None
) -> Executor:
    """Build an executor from the user-facing ``executor``/``workers`` knobs.

    ``executor`` may be an executor instance (returned as-is),
    ``"serial"``, ``"process"``, ``"thread"``, or ``None`` -- which picks
    the process pool when more than one worker was requested and the
    serial path otherwise (the thread pool is opt-in: it wins when the
    workload is dominated by released-GIL kernel time, the process pool
    when pure-Python stages dominate).
    """
    if executor is None:
        executor = "process" if workers is not None and workers > 1 else "serial"
    if not isinstance(executor, str):
        return executor
    name = executor.lower()
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(workers)
    if name == "thread":
        return ThreadExecutor(workers)
    raise ValueError(
        f"unknown executor {executor!r}; available: "
        f"{', '.join(map(repr, EXECUTOR_NAMES))}"
    )


__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "ThreadExecutor",
    "resolve_executor",
    "run_group",
    "deliver_outcome",
    "OnResult",
    "OnFailure",
]
