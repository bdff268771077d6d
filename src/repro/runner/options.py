"""How a sweep executes: one options object for every sweep entry point.

A sweep is defined by its configuration, grid, run count and seed; *how*
it runs -- which executor, which result store, which kernel backend,
whether it joins a fleet -- is an :class:`ExecutionOptions`.  The same
object is accepted by :func:`repro.core.experiments.run_experiment`,
:func:`repro.core.sweep.simulate_grid` /
:func:`~repro.core.sweep.sweep_parameter`, the engine's
:func:`~repro.runner.engine.run_grid` / :func:`~repro.runner.engine.run_series`
and the adaptive controller, so each knob is documented and validated
once, here.

The options never cross a process boundary: :func:`repro.runner.units.plan_units`
copies the kernel, thread and seed-scheme choices into each
:class:`~repro.runner.units.WorkUnit` as plain strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.kernels.threads import ThreadSpec, normalize_thread_spec
from repro.resilience.policy import DEFAULT_POLICY, FailurePolicy, resolve_policy
from repro.seeds import SchemeSpec, resolve_scheme_name
from repro.store import StoreSpec, resolve_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.controller import AdaptiveSpec
    from repro.runner.executors import Executor

#: Default fleet lease TTL: long enough that one chunk of tiny-scale units
#: plus scheduling jitter never outlives it between heartbeats, short
#: enough that a crashed worker's units are reclaimed promptly.
DEFAULT_LEASE_TTL = 30.0

#: ``executor=`` accepts a name, an instance, or None (auto from workers).
ExecutorSpec = Union[str, "Executor", None]


@dataclass(frozen=True)
class ExecutionOptions:
    """Execution, caching and seeding knobs of a sweep.

    Every field is normalised and cross-checked on construction, so a bad
    value fails before any unit is planned.

    Attributes
    ----------
    executor:
        ``"serial"``, ``"process"`` (multiprocessing pool), ``"thread"``
        (shared-memory pool; the compiled kernels release the GIL), an
        executor instance from :mod:`repro.runner.executors`, or ``None``
        (default): the process pool when ``workers > 1``, else serial.
    workers:
        Pool size of the process/thread executor, at least 1 (default:
        CPU count).
    store:
        Result store that makes sweeps resumable: a
        :class:`repro.store.ResultStore`, a store URI
        (``"sqlite:results.db"``, ``"memory:name"``, ...), a bare
        json-dir directory path, or ``None`` (default) to disable
        caching.  A URI or path is opened here, once.
    kernel:
        :mod:`repro.kernels` backend name for the decode hot loops
        (``"numpy"`` or ``"cext"``); ``None`` resolves ``REPRO_KERNEL`` /
        auto (cext > numpy) in the executing process.  Bit-identical
        across backends.
    kernel_threads:
        Row-parallel thread count of the compiled kernels: a positive
        integer or ``"auto"`` (physical cores divided by the executor's
        workers); ``None`` resolves ``REPRO_KERNEL_THREADS`` / auto.
        Bit-identical at any value.
    seed_scheme:
        :mod:`repro.seeds` scheme deriving the per-run streams:
        ``"per-run"`` reproduces the historical streams bit-for-bit,
        ``"unit"`` draws a whole work unit from one counter-based
        generator (deterministic, but a different stream, so it keys the
        store separately).  ``None`` resolves ``REPRO_SEED_SCHEME`` /
        ``"per-run"`` when the options are built.
    fleet:
        Execute cooperatively: claim units from the shared ``store``
        under TTL leases (:mod:`repro.runner.fleet`), so several
        processes running the same sweep against one store split it with
        no duplicated work and all return the complete result.  Needs a
        lease-capable store.
    lease_ttl:
        Fleet lease time-to-live in seconds (finite and positive).
    worker_id:
        Fleet-unique worker identity (default ``<hostname>:<pid>``).
    failure_policy:
        :class:`repro.resilience.FailurePolicy` every unit runs under.
        The default ``FailurePolicy()`` is fail-fast: the first unit that
        raises aborts the sweep as a
        :class:`~repro.resilience.errors.PoisonUnitError` naming the
        original error.  A custom policy retries failing units with
        deterministic backoff, bounds their runtime, and can skip or
        quarantine units that exhaust their attempts instead of aborting.
        Quarantine needs a ``store``.  ``None`` means the default.
    adaptive:
        ``None`` (default) runs fixed sweeps.  An
        :class:`repro.adaptive.AdaptiveConfig`, a kwargs dict, or ``True``
        switches grids to the sequential-stopping controller: ``runs``
        becomes the per-cell budget and each cell stops as soon as its
        confidence intervals settle (bit-identical to the fixed sweep at
        the same run count).
    """

    executor: ExecutorSpec = None
    workers: Optional[int] = None
    store: StoreSpec = None
    kernel: Optional[str] = None
    kernel_threads: ThreadSpec = None
    seed_scheme: SchemeSpec = None
    fleet: bool = False
    lease_ttl: float = DEFAULT_LEASE_TTL
    worker_id: Optional[str] = None
    failure_policy: FailurePolicy = DEFAULT_POLICY
    adaptive: AdaptiveSpec = None

    def __post_init__(self) -> None:
        # Checked before the store is opened; the negated comparisons also
        # reject NaN.
        if self.workers is not None and not self.workers >= 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")
        if not (math.isfinite(self.lease_ttl) and self.lease_ttl > 0):
            raise ValueError(
                f"lease_ttl must be a finite number of seconds > 0, "
                f"got {self.lease_ttl!r}"
            )
        store = resolve_store(self.store)
        policy = resolve_policy(self.failure_policy)
        if self.fleet and store is None:
            raise ValueError(
                "fleet execution needs a shared, lease-capable result store "
                "(e.g. 'sqlite:results.db'); it cannot run with caching off"
            )
        if policy.on_error == "quarantine" and store is None:
            raise ValueError(
                "on-error quarantine needs a result store to record "
                "quarantined units in; it cannot run with caching off"
            )
        normalized = {
            "store": store,
            "failure_policy": policy,
            "kernel_threads": normalize_thread_spec(self.kernel_threads),
            "seed_scheme": resolve_scheme_name(self.seed_scheme),
            "adaptive": None,
        }
        if self.adaptive is not None and self.adaptive is not False:
            # Only adaptive sweeps load the controller.
            from repro.adaptive.controller import resolve_adaptive

            normalized["adaptive"] = resolve_adaptive(self.adaptive)
        for name, value in normalized.items():
            object.__setattr__(self, name, value)


__all__ = ["DEFAULT_LEASE_TTL", "ExecutionOptions", "ExecutorSpec"]
