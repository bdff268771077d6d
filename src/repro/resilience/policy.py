"""Failure policies: retries, deterministic backoff, timeouts, outcomes.

A :class:`FailurePolicy` says what happens when executing a work unit
fails: how many times to retry, how long to back off between attempts,
how long one attempt may run, and what to do once every attempt is spent
(``raise`` aborts the sweep, ``skip`` drops the unit, ``quarantine``
additionally records it in the store-backed quarantine report).  Every
sweep runs under exactly one policy; the default :data:`DEFAULT_POLICY`
is fail-fast (one attempt, then ``raise``).

Backoff is **deterministic**: the jitter is derived from a SHA-256 hash
of the unit key and the attempt index, never from ``random()``, so a
rerun of a faulty sweep sleeps the exact same schedule -- reproducibility
extends to the failure path.  The same policy object also carries the
store-retry knobs the :class:`~repro.resilience.retry.RetryingStore`
wrapper uses, so one object configures the whole resilience layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.resilience.errors import UnitTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.units import UnitResult, WorkUnit

#: Valid ``on_error`` actions, in escalation order.
ON_ERROR_ACTIONS = ("raise", "skip", "quarantine")


def deterministic_jitter(token: str) -> float:
    """A reproducible fraction in ``[0, 1)`` derived from ``token``.

    SHA-256 of the token, first eight bytes as an integer -- no global
    random state, so two processes (or two reruns) computing the jitter
    for the same unit key and attempt sleep identically.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FailurePolicy:
    """What to do when executing a unit (or talking to the store) fails.

    Attributes
    ----------
    max_retries:
        Extra execution attempts after the first failure (0, the
        default, is fail-fast).
    backoff_base, backoff_max:
        Exponential backoff between unit attempts: attempt ``n`` sleeps
        ``min(backoff_max, backoff_base * 2**n)`` scaled by a
        deterministic jitter in ``[0.5, 1.5)`` derived from the unit key.
    unit_timeout:
        Seconds one execution attempt may run; ``None`` disables the
        watchdog.  A timed-out attempt raises
        :class:`~repro.resilience.errors.UnitTimeoutError` and counts as
        a failed attempt (so it is retried like any other failure).
    on_error:
        ``"raise"`` -- a unit that exhausts its attempts raises
        :class:`~repro.resilience.errors.PoisonUnitError` and aborts the
        sweep (default).
        ``"skip"`` -- the unit is dropped; its cell is aggregated from
        the surviving runs.  ``"quarantine"`` -- like skip, plus a
        machine-readable quarantine record (unit snapshot, error, exact
        re-run command) is written to the result store.
    store_retries, store_backoff_base, store_backoff_max:
        Retry budget of the :class:`~repro.resilience.retry.RetryingStore`
        wrapper for transient store failures; the same deterministic
        backoff shape, keyed by operation name.
    """

    max_retries: int = 0
    backoff_base: float = 0.1
    backoff_max: float = 30.0
    unit_timeout: Optional[float] = None
    on_error: str = "raise"
    store_retries: int = 3
    store_backoff_base: float = 0.05
    store_backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_ACTIONS:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_ACTIONS}, got {self.on_error!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.store_retries < 0:
            raise ValueError(
                f"store_retries must be >= 0, got {self.store_retries!r}"
            )
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(
                f"unit_timeout must be positive or None, got {self.unit_timeout!r}"
            )
        for name in ("backoff_base", "backoff_max", "store_backoff_base",
                     "store_backoff_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def attempts(self) -> int:
        """Total execution attempts per unit (first try + retries)."""
        return self.max_retries + 1

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based) of ``key``."""
        base = min(self.backoff_max, self.backoff_base * (2.0**attempt))
        return base * (0.5 + deterministic_jitter(f"{key}:{attempt}"))

    def store_backoff_delay(self, token: str, attempt: int) -> float:
        """Backoff before store-retry ``attempt`` of the operation ``token``."""
        base = min(self.store_backoff_max, self.store_backoff_base * (2.0**attempt))
        return base * (0.5 + deterministic_jitter(f"store:{token}:{attempt}"))


#: The policy of every sweep that does not configure one: fail-fast unit
#: handling (one attempt, then :class:`PoisonUnitError`) with modest store
#: retries, so a fleet survives a briefly-locked database out of the box.
DEFAULT_POLICY = FailurePolicy()


def resolve_policy(policy: Optional[FailurePolicy]) -> FailurePolicy:
    """Validate a ``failure_policy=`` argument; ``None`` is the default policy."""
    if policy is None:
        return DEFAULT_POLICY
    if isinstance(policy, FailurePolicy):
        return policy
    raise TypeError(
        f"failure_policy must be a FailurePolicy or None, got {type(policy).__name__}"
    )


@dataclass(frozen=True)
class UnitFailure:
    """Structured record of one unit that failed all its attempts.

    Picklable (it crosses process-pool boundaries) and self-contained:
    ``unit_payload`` is the unit's :meth:`~repro.runner.units.WorkUnit.
    to_payload` snapshot, so the failure alone is enough to quarantine,
    report, and re-run the unit on any machine.
    """

    unit_key: str
    seed_path: Tuple[int, ...]
    run_start: int
    run_stop: int
    error_type: str
    message: str
    attempts: int
    unit_payload: Dict[str, Any]

    def describe(self) -> str:
        return (
            f"unit {self.unit_key[:12]} (cell {self.seed_path}, runs "
            f"[{self.run_start}, {self.run_stop})) failed "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


@dataclass(frozen=True)
class UnitOutcome:
    """Result of pushing one unit through a failure policy: exactly one
    of ``result`` (success) or ``failure`` (attempts exhausted) is set.

    ``error`` is the last attempt's exception, kept so an in-process
    caller can chain it under :class:`~repro.resilience.errors.
    PoisonUnitError`.  It is dropped when the outcome is pickled: an
    exception need not pickle, and ``failure`` already records its type
    and message.
    """

    result: Optional["UnitResult"] = None
    failure: Optional[UnitFailure] = None
    error: Optional[BaseException] = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "error": None}


ExecuteFn = Callable[["WorkUnit"], "UnitResult"]


def _attempt_with_timeout(
    unit: WorkUnit, execute: ExecuteFn, timeout: Optional[float]
) -> UnitResult:
    """One execution attempt, bounded by ``timeout`` seconds.

    The attempt runs on a daemon watchdog thread; on timeout the thread
    is abandoned (Python cannot kill it) and the attempt counts as
    failed.  A hung attempt therefore leaks one daemon thread until it
    returns -- acceptable for the rare pathological unit, and the reason
    the watchdog only exists when a timeout was explicitly configured.
    """
    if timeout is None:
        return execute(unit)
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["result"] = execute(unit)
        except BaseException as exc:  # delivered to the waiting thread
            box["error"] = exc

    thread = threading.Thread(target=target, name="unit-watchdog", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise UnitTimeoutError(
            f"unit execution exceeded unit_timeout={timeout:g}s "
            f"(cell {unit.seed_path}, runs [{unit.run_start}, {unit.run_stop}))"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def run_unit_with_policy(
    unit: WorkUnit,
    policy: FailurePolicy,
    *,
    execute: Optional[ExecuteFn] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> UnitOutcome:
    """Execute one unit under a failure policy and report the outcome.

    Retries with deterministic backoff on any ``Exception`` (including
    :class:`~repro.resilience.errors.UnitTimeoutError` from the
    watchdog); ``KeyboardInterrupt``/``SystemExit`` always propagate.
    Never raises for a failed unit -- converting an exhausted failure
    into raise/skip/quarantine is the *caller's* dispatch, so this
    function stays picklable-friendly for process-pool workers.
    """
    from repro.store.codec import unit_key

    if execute is None:
        from repro.runner.units import execute_unit as execute

    # The unit key (a canonical-JSON hash) is only needed off the
    # success path: for backoff jitter and the failure record.
    last: Optional[Exception] = None
    for attempt in range(policy.attempts):
        if attempt:
            sleep(policy.backoff_delay(unit_key(unit), attempt - 1))
        try:
            result = _attempt_with_timeout(unit, execute, policy.unit_timeout)
            return UnitOutcome(result=result)
        except Exception as exc:
            last = exc
    return UnitOutcome(
        failure=UnitFailure(
            unit_key=unit_key(unit),
            seed_path=unit.seed_path,
            run_start=unit.run_start,
            run_stop=unit.run_stop,
            error_type=type(last).__name__,
            message=str(last),
            attempts=policy.attempts,
            unit_payload=unit.to_payload(),
        ),
        error=last,
    )


def failure_summary(failure: UnitFailure) -> Dict[str, Any]:
    """Compact JSON-compatible summary (sweep metadata, run reports)."""
    summary = dataclasses.asdict(failure)
    summary.pop("unit_payload")
    summary["seed_path"] = list(failure.seed_path)
    return summary


__all__ = [
    "ON_ERROR_ACTIONS",
    "DEFAULT_POLICY",
    "FailurePolicy",
    "UnitFailure",
    "UnitOutcome",
    "deterministic_jitter",
    "failure_summary",
    "resolve_policy",
    "run_unit_with_policy",
]
