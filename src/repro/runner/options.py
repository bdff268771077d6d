"""How a sweep executes: one options object for every sweep entry point.

A sweep is defined by its configuration, grid, run count and seed; *how*
it runs -- which executor, which result store, which kernel backend,
whether it joins a fleet, whether it stops adaptively -- is an
:class:`ExecutionOptions`.  The same object is accepted by
:func:`repro.core.experiments.run_experiment`,
:func:`repro.core.sweep.simulate_grid` /
:func:`~repro.core.sweep.sweep_parameter`, the engine's
:func:`~repro.runner.engine.run_grid` / :func:`~repro.runner.engine.run_series`
and the adaptive controller, so each knob is documented and validated
once, here.

A field with ``metadata["help"]`` is also a ``python -m repro run`` flag
named after it; the metadata is its doc, plus the argparse ``type``,
``metavar`` and ``choices`` the default cannot give, and ``needs``, the
mode (``adaptive``, ``fleet``) it only applies in.  The same holds for
:class:`AdaptiveConfig` and :class:`~repro.resilience.policy.FailurePolicy`.

The options never cross a process boundary: :func:`repro.runner.units.plan_units`
copies the kernel, thread and seed-scheme choices into each
:class:`~repro.runner.units.WorkUnit` as plain strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.kernels.registry import get_backend
from repro.kernels.threads import ThreadSpec, normalize_thread_spec
from repro.resilience.policy import DEFAULT_POLICY, FailurePolicy, resolve_policy
from repro.seeds import SchemeSpec, resolve_scheme_name
from repro.store import StoreSpec, resolve_store
from repro.utils.validation import validate_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.executors import Executor

#: Default fleet lease TTL: long enough that one chunk of tiny-scale units
#: plus scheduling jitter never outlives it between heartbeats, short
#: enough that a crashed worker's units are reclaimed promptly.
DEFAULT_LEASE_TTL = 30.0

@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the sequential stopping rule (:mod:`repro.adaptive`).

    The flagged fields document themselves in their metadata.  The rest:

    refine_cliff:
        Bisect decodable/undecodable neighbour pairs after the coarse
        grid settles.
    refine_resolution:
        Stop a bisection once its (p or q) bracket is at most this wide.
    """

    confidence: float = field(default=0.95, metadata={
        "help": "confidence level of both adaptive stopping intervals",
        "metavar": "LEVEL", "needs": "adaptive",
    })
    ci_width: float = field(default=0.25, metadata={
        "help": "a cell settles only once the Wilson score interval on its "
                "decode probability is at most this wide",
        "metavar": "WIDTH", "needs": "adaptive",
    })
    rel_tol: float = field(default=0.02, metadata={
        "help": "a fully-decoding cell also needs the t-interval half-width "
                "on its mean inefficiency within this fraction of the mean "
                "(a cell with failures has NaN inefficiency, the paper's "
                "rule, so only its decode probability counts)",
        "metavar": "FRACTION", "needs": "adaptive",
    })
    min_runs: int = field(default=8, metadata={
        "help": "runs per cell in the first adaptive round, and the "
                "granule of the round schedule; under --seed-scheme unit "
                "also the size of every planned unit (repro.adaptive."
                "controller's determinism contract)",
        "metavar": "N", "needs": "adaptive",
    })
    refine_cliff: bool = False
    refine_resolution: float = 0.01

    def __post_init__(self) -> None:
        # Negated comparisons, so NaN fails every check.
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if not self.ci_width > 0.0:
            raise ValueError(f"ci_width must be > 0, got {self.ci_width}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not (
            math.isfinite(self.min_runs)
            and self.min_runs == int(self.min_runs)
            and self.min_runs >= 2
        ):
            raise ValueError(f"min_runs must be an integer >= 2, got {self.min_runs}")
        object.__setattr__(self, "min_runs", int(self.min_runs))
        if not self.refine_resolution > 0.0:
            raise ValueError(
                f"refine_resolution must be > 0, got {self.refine_resolution}"
            )


#: ``adaptive=`` accepts a config, ``True`` (defaults), a kwargs dict, or
#: ``None`` / ``False`` (fixed sweep).
AdaptiveSpec = Union[AdaptiveConfig, bool, dict, None]


def resolve_adaptive(spec: AdaptiveSpec) -> Optional[AdaptiveConfig]:
    """Normalise an ``adaptive=`` argument to a config (or None = off)."""
    if spec is None or spec is False:
        return None
    if spec is True:
        return AdaptiveConfig()
    if isinstance(spec, AdaptiveConfig):
        return spec
    if isinstance(spec, dict):
        return AdaptiveConfig(**spec)
    raise TypeError(
        f"adaptive= expects AdaptiveConfig, bool, dict, or None; got {type(spec)!r}"
    )


@dataclass(frozen=True)
class ExecutionOptions:
    """Execution, caching and seeding knobs of a sweep.

    Every field is normalised and cross-checked on construction, so a bad
    value fails before any unit is planned.  The flagged fields document
    themselves in their metadata.  The rest:

    executor:
        An :class:`~repro.runner.executors.Executor` instance to run the
        units on instead of the one ``workers`` picks (fault-injecting
        test executors use this seam), or ``None`` (default).
    store:
        Result store that makes sweeps resumable: a
        :class:`repro.store.ResultStore`, a store URI
        (``"sqlite:results.db"``, ``"memory:name"``, ...), a bare
        json-dir directory path, or ``None`` (default) to disable
        caching.  A URI or path is opened here, once.
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
        ``None`` (default) runs fixed sweeps.  An :class:`AdaptiveConfig`,
        a kwargs dict, or ``True`` switches grids to the
        sequential-stopping controller: ``runs`` becomes the per-cell
        budget and each cell stops as soon as its confidence intervals
        settle (bit-identical to the fixed sweep at the same run count).
    """

    executor: Optional["Executor"] = None
    workers: Optional[int] = field(default=None, metadata={
        "help": "threads of the in-process pool that runs the units "
                "(compiled kernels release the GIL); omitted or 1 runs "
                "them serially",
        "type": int,
    })
    store: StoreSpec = None
    kernel: Optional[str] = field(default=None, metadata={
        "help": "kernel backend for the decode hot loops: 'numpy', 'cext' "
                "(compiled on demand with the system C compiler) or 'auto' "
                "(cext if a compiler is present); omitted: REPRO_KERNEL, "
                "else auto.  Bit-identical across backends",
        "metavar": "BACKEND",
    })
    kernel_threads: ThreadSpec = field(default=None, metadata={
        "help": "row-parallel thread count of the compiled kernels: a "
                "positive integer or 'auto' (physical cores divided by the "
                "pool's threads and by the live --fleet peers on this host, "
                "so workers x threads x peers never oversubscribe the "
                "cores); omitted: REPRO_KERNEL_THREADS, else auto.  "
                "Bit-identical at any value",
        "metavar": "THREADS",
    })
    seed_scheme: SchemeSpec = field(default=None, metadata={
        "help": "repro.seeds scheme deriving the per-run streams: 'per-run' "
                "(the historical SeedSequence per run) or 'unit' (one Philox "
                "generator per work unit: deterministic, but a different "
                "stream, cached separately); omitted: REPRO_SEED_SCHEME, "
                "else 'per-run'",
        "metavar": "SCHEME",
    })
    fleet: bool = field(default=False, metadata={
        "help": "fleet execution: claim work units from the shared, "
                "lease-capable --store under TTL leases, so processes running "
                "this same sweep split it with no duplicated work; each "
                "returns the whole result",
    })
    lease_ttl: float = field(default=DEFAULT_LEASE_TTL, metadata={
        "help": "fleet lease time-to-live in seconds (finite, > 0); a worker "
                "that stops heartbeating has its units reclaimed after this "
                "long",
        "metavar": "SECONDS", "needs": "fleet",
    })
    worker_id: Optional[str] = field(default=None, metadata={
        "help": "fleet-unique worker identity (omitted: <hostname>:<pid>)",
        "metavar": "ID", "needs": "fleet",
    })
    failure_policy: FailurePolicy = DEFAULT_POLICY
    adaptive: AdaptiveSpec = None

    def __post_init__(self) -> None:
        # Every check but the last runs before the store opens, so a
        # rejected combination leaves no store file; the last needs the
        # opened store, and the stores it rejects (json-dir) create nothing
        # on opening.  The negated comparisons also reject NaN.
        if self.workers is not None:
            validate_positive_int(self.workers, "workers")
        if isinstance(self.executor, str):
            raise TypeError(
                f"executor= takes an executor instance, got {self.executor!r}; "
                "pick the thread pool with workers=N"
            )
        if self.kernel is not None:
            # Constructs (and on cext compiles) the backend: an unknown or
            # unavailable one fails here, not in the first unit.
            get_backend(self.kernel)
        if not (math.isfinite(self.lease_ttl) and self.lease_ttl > 0):
            raise ValueError(
                f"lease_ttl must be a finite number of seconds > 0, "
                f"got {self.lease_ttl!r}"
            )
        policy = resolve_policy(self.failure_policy)
        if self.fleet and self.store is None:
            raise ValueError(
                "fleet execution needs a shared, lease-capable result store "
                "(e.g. 'sqlite:results.db'); it cannot run with caching off"
            )
        if policy.on_error == "quarantine" and self.store is None:
            raise ValueError(
                "on-error quarantine needs a result store to record "
                "quarantined units in; it cannot run with caching off"
            )
        normalized = {
            "failure_policy": policy,
            "kernel_threads": normalize_thread_spec(self.kernel_threads),
            "seed_scheme": resolve_scheme_name(self.seed_scheme),
            "adaptive": resolve_adaptive(self.adaptive),
            "store": resolve_store(self.store),  # last: it opens the store
        }
        store = normalized["store"]
        if self.fleet and not store.supports_leases:
            raise store._lease_unsupported()
        for name, value in normalized.items():
            object.__setattr__(self, name, value)


__all__ = [
    "DEFAULT_LEASE_TTL",
    "AdaptiveConfig",
    "AdaptiveSpec",
    "ExecutionOptions",
    "resolve_adaptive",
]
