"""Structured error taxonomy of the failure-policy layer.

Every failure the runner/fleet/store stack can act on is one of these
types, so policy code dispatches on class, never on string matching:

* :class:`StoreUnavailableError` -- a *transient* store failure (locked
  database, flaky filesystem, injected chaos fault).  The retry layer
  (:class:`~repro.resilience.retry.RetryingStore`) treats exactly this
  type as retryable; anything else a backend raises is permanent.
* :class:`UnitExecutionError` -- one execution attempt of a work unit
  raised.  The fault-injection harness raises it for "killed" units.
* :class:`UnitTimeoutError` -- one execution attempt of a work unit
  exceeded the policy's ``unit_timeout``.  A subclass of
  :class:`UnitExecutionError`: a hung unit is a failed attempt.
* :class:`PoisonUnitError` -- a unit failed **every** attempt the policy
  allowed.  Raised (``on_error="raise"``) or converted into a
  skip/quarantine record, carrying the structured
  :class:`~repro.resilience.policy.UnitFailure` either way.

The hierarchy is rooted at :class:`ResilienceError` so callers can catch
the whole family at once.  :class:`HttpStoreError`, the *permanent* (4xx)
failure of :mod:`repro.store.http`, lives here too, so catching it does
not import the HTTP client.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.policy import UnitFailure


class ResilienceError(RuntimeError):
    """Base class of every failure-policy error."""


class StoreUnavailableError(ResilienceError):
    """A transient result-store failure (retryable).

    Backends raise this for conditions that a bounded retry can outlast
    (``sqlite3.OperationalError: database is locked``, a flaky network
    filesystem, an injected chaos fault).  Permanent conditions -- schema
    corruption, a closed connection, a missing database -- keep their
    original exception types and are never retried.
    """


class UnitExecutionError(ResilienceError):
    """One execution attempt of a work unit raised."""


class UnitTimeoutError(UnitExecutionError):
    """One execution attempt of a work unit exceeded ``unit_timeout``."""


class PoisonUnitError(ResilienceError):
    """A work unit failed every attempt its failure policy allowed.

    Carries the structured :class:`~repro.resilience.policy.UnitFailure`
    as :attr:`failure`, so the coordinator that catches it can still
    quarantine or report the unit.
    """

    def __init__(self, message: str, failure: Optional["UnitFailure"] = None):
        super().__init__(message)
        self.failure = failure


class HttpStoreError(RuntimeError):
    """Permanent HTTP store failure (4xx: bad token, bad request, ...)."""


__all__ = [
    "HttpStoreError",
    "ResilienceError",
    "StoreUnavailableError",
    "UnitExecutionError",
    "UnitTimeoutError",
    "PoisonUnitError",
]
