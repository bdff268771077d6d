"""Executors: strategies for running a batch of work units.

Two strategies are provided behind one tiny interface
(``run(units, on_result, on_failure, policy)``): :class:`SerialExecutor`
(in order, in the calling thread) and :class:`ThreadExecutor` (an
in-process thread pool).  A sweep's ``workers`` picks between them
(:func:`resolve_executor`: more than one builds the pool); an executor
instance on ``ExecutionOptions.executor`` overrides that, which is the
seam fault-injecting test executors use.  Each cuts the units it is
given into synthesis groups (:func:`~repro.runner.units.synthesis_groups`:
the units of one cell that differ only in the code) and runs a group in one
:func:`run_group` call, so the group synthesizes each transmission once,
whichever executor, thread or watchdog runs it.  Every unit derives its
own seeds, so completion order does not matter and results are
bit-identical across executors.

``on_result(unit, result)`` is always invoked in the calling thread (for
the pool: as groups complete), which is what bridges worker progress back
to the user's progress callback and lets the engine write the result
store from a single thread.  Every callback hands back the planned unit
itself (``on_failure(unit, failure)`` likewise), so the caller never has
to match a result to its unit by cell and run range -- which would
collide between the configurations of one engine pass.

Every ``run`` takes the sweep's
:class:`~repro.resilience.policy.FailurePolicy` (default: the fail-fast
:data:`~repro.resilience.policy.DEFAULT_POLICY`), and every unit goes
through :func:`~repro.resilience.policy.run_unit_with_policy`: it is
retried with deterministic backoff (and an optional per-attempt
timeout), and a unit that exhausts its attempts -- a single attempt
under the default -- is *dispatched* in the calling thread:
``on_error="raise"`` raises
:class:`~repro.resilience.errors.PoisonUnitError` naming the original
error (chained as ``__cause__``), the skip/quarantine actions hand a
structured :class:`~repro.resilience.policy.UnitFailure` to the
``on_failure`` callback.

:class:`~repro.runner.fleet.FleetRunner` implements the same protocol on
top of a shared result store's lease API, wrapping one of these executors
for the units it wins -- an executor is "how this process runs units",
the fleet runner is "which units this process gets to run".  Executors
expose their local parallelism as a ``workers`` attribute so the fleet
runner can size its claim batches.
"""

from __future__ import annotations

from contextvars import copy_context
from functools import partial
from itertools import islice
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

from repro.kernels.threads import share_cores
from repro.resilience.errors import PoisonUnitError
from repro.resilience.policy import (
    DEFAULT_POLICY,
    FailurePolicy,
    UnitFailure,
    UnitOutcome,
    run_unit_with_policy,
)
from repro.runner.units import (
    FrontEnds, UnitResult, WorkUnit, execute_unit, synthesis_groups,
)
from repro.utils.validation import validate_positive_int

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


class ThreadExecutor(SerialExecutor):
    """Execute synthesis groups on an in-process thread pool.

    Worker threads share the per-backend compiled-prototype cache, the
    built-code cache and every NumPy buffer directly.  Pure-Python stages
    still serialise on the GIL, but the compiled kernels (and NumPy's own
    released-GIL regions) run concurrently -- ctypes drops the GIL for
    the duration of each C call -- which makes thread workers compose
    with the kernels' OpenMP row-parallelism.

    The pool starts ``min(workers, groups)`` threads and runs each group
    in a copy of the caller's context inside
    :func:`~repro.kernels.threads.share_cores` of that many threads, so
    ``kernel_threads="auto"`` divides the caller's cores among the
    threads actually running: the oversubscription rule (pool threads x
    kernel threads x peers <= cores) holds by construction.

    Each task is one synthesis group (:func:`run_group`), so the codes of
    a cell share its front end whichever thread runs it.  Completion
    order does not matter -- every unit derives its own seeds and the
    engine reassembles cells from the units handed back -- so results are
    bit-identical to the serial executor.  ``on_result`` / ``on_failure``
    are invoked in the calling thread, for a group's units once the group
    is done.

    Parameters
    ----------
    workers:
        Most threads the pool starts.  At most ``4 * workers`` groups are
        in flight, so a paper-scale unit list never enqueues tens of
        thousands of futures at once.
    """

    def __init__(self, workers: int):
        self.workers = validate_positive_int(workers, "workers")

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
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        def task(group: Sequence[WorkUnit]) -> List[Tuple[WorkUnit, UnitOutcome]]:
            return list(run_group(group, policy, self._execute_one))

        queued = iter(groups)
        pending: set = set()
        size = min(self.workers, len(groups))
        with share_cores(size), ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="repro-unit",
        ) as pool:
            while True:
                for group in islice(queued, 4 * self.workers - len(pending)):
                    pending.add(pool.submit(copy_context().run, task, group))
                if not pending:
                    return
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for unit, outcome in future.result():
                        deliver_outcome(unit, outcome, policy, on_result, on_failure)


def resolve_executor(
    executor: Optional[Executor], workers: Optional[int] = None
) -> Executor:
    """The executor a sweep runs on: ``executor`` itself when given, else
    a :class:`ThreadExecutor` of ``workers`` threads when ``workers > 1``,
    else the serial path."""
    if executor is not None:
        return executor
    if workers is not None and workers > 1:
        return ThreadExecutor(workers)
    return SerialExecutor()


__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "resolve_executor",
    "run_group",
    "deliver_outcome",
    "OnResult",
    "OnFailure",
]
