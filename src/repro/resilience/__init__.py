"""Failure policies, fault injection, and graceful degradation.

The resilience layer threads one :class:`FailurePolicy` object through
the whole runner/fleet/store stack:

* :mod:`repro.resilience.errors` -- the structured error taxonomy
  (transient vs permanent store failures, failed vs hung vs poisoned
  units) every other component dispatches on.
* :mod:`repro.resilience.policy` -- the :class:`FailurePolicy` itself:
  unit retries with deterministic (hash-derived, ``random()``-free)
  backoff, per-attempt timeouts, and the ``raise``/``skip``/
  ``quarantine`` escalation for units that exhaust their attempts.
* :mod:`repro.resilience.retry` -- :class:`RetryingStore`, the bounded,
  lease-aware retry wrapper that keeps transient store failures (a
  locked sqlite database, a flaky filesystem) from killing a sweep.
* :mod:`repro.resilience.report` -- the store-backed quarantine report:
  machine-readable records of quarantined units with the exact
  ``python -m repro rerun-unit`` command that retries each one.
* :mod:`repro.resilience.faults` -- deterministic unit-level fault
  injection (imported explicitly by tests and the chaos CI job; not
  re-exported here to keep the import graph acyclic).

The companion ``chaos+<backend>`` store wrapper lives in
:mod:`repro.store.chaos` and is registered with the store registry like
any other backend.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "errors": (
        "PoisonUnitError ResilienceError StoreUnavailableError "
        "UnitExecutionError UnitTimeoutError"
    ),
    "policy": (
        "DEFAULT_POLICY ON_ERROR_ACTIONS FailurePolicy UnitFailure UnitOutcome "
        "deterministic_jitter failure_summary resolve_policy "
        "run_unit_with_policy"
    ),
    "report": (
        "QuarantineEntry clear_quarantine format_quarantine_report "
        "is_quarantined quarantine_entries quarantine_key read_quarantine "
        "write_quarantine"
    ),
    "retry": "RetryingStore",
})

__all__ = [
    "DEFAULT_POLICY",
    "ON_ERROR_ACTIONS",
    "FailurePolicy",
    "PoisonUnitError",
    "QuarantineEntry",
    "ResilienceError",
    "RetryingStore",
    "StoreUnavailableError",
    "UnitExecutionError",
    "UnitFailure",
    "UnitOutcome",
    "UnitTimeoutError",
    "clear_quarantine",
    "deterministic_jitter",
    "failure_summary",
    "format_quarantine_report",
    "is_quarantined",
    "quarantine_entries",
    "quarantine_key",
    "read_quarantine",
    "resolve_policy",
    "run_unit_with_policy",
    "write_quarantine",
]
