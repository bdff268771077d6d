"""Store-side resilience: bounded retries around any result store.

:class:`RetryingStore` wraps a :class:`~repro.store.base.ResultStore`
and retries exactly the failures backends mark as *transient*
(:class:`~repro.resilience.errors.StoreUnavailableError`) with the
policy's deterministic exponential backoff.  Everything else -- schema
errors, closed connections, programming errors -- propagates untouched
on the first raise.

The wrapper is **lease-aware**: for ``claim`` and ``heartbeat`` the TTL
the caller passes is also the retry budget's ceiling -- the total time
spent backing off never exceeds half the TTL, so a retried heartbeat can
never itself be the reason a lease expired, and a retried claim never
outlives the lease it is trying to take.

The wrapper is transparent: ``backend``/``uri()``/``stats`` delegate to
the wrapped store, so engine counters, CLI output and test assertions
see the store itself, not the wrapper.  Unknown attributes (e.g. the
sqlite backend's ``provenance``) fall through via ``__getattr__``.

It is also where a solo sweep's writes are batched.  Inside
:meth:`RetryingStore.write_behind`, ``put`` only appends to a buffer.
The buffer is flushed through the backend's ``put_many`` (one sqlite
transaction), retried as a whole, once it holds :data:`FLUSH_RESULTS`
results or a result arrives :data:`FLUSH_SECONDS` after the last flush,
and always when the scope exits -- by return, by exception or by
``KeyboardInterrupt``.  A process killed outright loses the open window
at most: results completed within one second of the last flush, never
more than :data:`FLUSH_RESULTS`; rerunning recomputes them bit-identically.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.resilience.errors import StoreUnavailableError
from repro.resilience.policy import DEFAULT_POLICY, FailurePolicy
from repro.runner.units import UnitResult, WorkUnit
from repro.store.base import Lease, ResultStore, StoreRecord

logger = logging.getLogger("repro.resilience.retry")

#: A write-behind window is flushed once it holds this many results ...
FLUSH_RESULTS = 256

#: ... or once a result arrives this many seconds after the last flush.
FLUSH_SECONDS = 1.0


@dataclass
class RetryStats:
    """How often the wrapper had to retry (and how often it gave up)."""

    retries: int = 0
    gave_up: int = 0


class RetryingStore(ResultStore):
    """Bounded-backoff retry wrapper around any result store.

    Inside :meth:`write_behind` its ``put`` buffers instead of writing;
    every other call goes straight to the wrapped store.
    """

    def __init__(self, store: ResultStore, policy: FailurePolicy = DEFAULT_POLICY):
        # No super().__init__(): stats delegates to the wrapped store so
        # hit/miss/write counters stay in one place.
        self.inner = store
        self.policy = policy
        self.retry_stats = RetryStats()
        # The open write-behind window (None: puts write through).
        self._buffer: Optional[List[Tuple[WorkUnit, UnitResult]]] = None
        self._flushed_at = 0.0
        self._buffer_lock = threading.Lock()

    @classmethod
    def wrap(
        cls, store: Optional[ResultStore], policy: FailurePolicy = DEFAULT_POLICY
    ) -> Optional[ResultStore]:
        """Wrap ``store`` unless it is ``None`` or already wrapped."""
        if store is None or isinstance(store, RetryingStore):
            return store
        return cls(store, policy)

    # -- delegated identity ----------------------------------------------

    @property
    def backend(self) -> str:  # type: ignore[override]
        return self.inner.backend

    @property
    def supports_leases(self) -> bool:  # type: ignore[override]
        return self.inner.supports_leases

    @property
    def stats(self):  # type: ignore[override]
        return self.inner.stats

    @stats.setter
    def stats(self, value) -> None:  # pragma: no cover - ABC init compat
        self.inner.stats = value

    def location(self) -> str:
        return self.inner.location()

    def uri(self) -> str:
        return self.inner.uri()

    def __getattr__(self, name: str) -> Any:
        # Backend extras (sqlite's ``provenance``, chaos counters, ...).
        return getattr(self.inner, name)

    # -- the retry loop --------------------------------------------------

    def _retry(
        self,
        token: str,
        operation: Callable[..., Any],
        *args: Any,
        budget: Optional[float] = None,
    ) -> Any:
        """Run ``operation(*args)``, retrying transient failures.

        ``budget`` caps the *total* seconds spent backing off (lease-aware
        calls pass ``ttl / 2``); the attempt count is always capped by the
        policy's ``store_retries``.  Positional arguments are passed
        through rather than closed over so the fault-free fast path --
        every store call a healthy sweep makes -- allocates no closure.
        """
        policy = self.policy
        slept = 0.0
        for attempt in range(policy.store_retries + 1):
            try:
                return operation(*args)
            except StoreUnavailableError as exc:
                if attempt >= policy.store_retries:
                    self.retry_stats.gave_up += 1
                    raise
                delay = policy.store_backoff_delay(token, attempt)
                if budget is not None and slept + delay > budget:
                    self.retry_stats.gave_up += 1
                    raise
                logger.warning(
                    "transient store error on %s (attempt %d/%d, retrying in "
                    "%.3fs): %s",
                    token, attempt + 1, policy.store_retries + 1, delay, exc,
                )
                self.retry_stats.retries += 1
                time.sleep(delay)
                slept += delay
        raise AssertionError("unreachable")  # pragma: no cover

    # -- record-level API ------------------------------------------------

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        return self._retry(f"get:{key}", self.inner.get_record, key)

    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        self._retry(
            f"put:{key}", lambda: self.inner.put_record(key, payload, unit=unit)
        )

    def delete_record(self, key: str) -> bool:
        return self._retry(f"delete:{key}", self.inner.delete_record, key)

    def records(self) -> Iterator[StoreRecord]:
        # Iterators cannot be transparently re-driven mid-stream; a
        # transient failure here surfaces to the caller (migration
        # retries whole entries, not scans).
        return self.inner.records()

    # -- unit-level API --------------------------------------------------

    def get(self, unit: WorkUnit) -> Optional[UnitResult]:
        return self._retry("get-unit", self.inner.get, unit)

    def put(self, unit: WorkUnit, result: UnitResult) -> None:
        buffer = self._buffer
        if buffer is None:
            self._retry("put-unit", self.inner.put, unit, result)
            return
        with self._buffer_lock:
            buffer.append((unit, result))
            now = time.monotonic()
            if len(buffer) < FLUSH_RESULTS and now - self._flushed_at < FLUSH_SECONDS:
                return
            batch = buffer[:]
            buffer.clear()
            self._flushed_at = now
        self._flush(batch)

    def _flush(self, batch: List[Tuple[WorkUnit, UnitResult]]) -> None:
        try:
            self.put_many(batch)
        except BaseException:
            # Back into the window, so the scope's exit flush retries it.
            with self._buffer_lock:
                if self._buffer is not None:
                    self._buffer[:0] = batch
            raise

    @contextmanager
    def write_behind(self) -> Iterator["RetryingStore"]:
        """Buffer ``put`` calls inside the block; flush them in batches.

        See the module docstring for the flush rule.  A nested scope
        joins the open window.  When the block raises, the exit flush
        still runs; if that flush fails too, its error is logged and the
        block's own exception propagates.
        """
        if self._buffer is not None:
            yield self
            return
        with self._buffer_lock:
            self._buffer = []
            self._flushed_at = time.monotonic()
        try:
            yield self
        except BaseException:
            try:
                self._close_window()
            except Exception as exc:  # the block's exception matters more
                logger.warning("could not flush buffered results: %s", exc, exc_info=True)
            raise
        self._close_window()

    def _close_window(self) -> None:
        with self._buffer_lock:
            batch, self._buffer = self._buffer, None
        if batch:
            self.put_many(batch)

    def put_many(self, items: Iterable[Tuple[WorkUnit, UnitResult]]) -> int:
        # Materialise once: a torn batch must be retried in full, and the
        # write is an idempotent upsert so re-sending already-landed
        # entries converges on identical rows.
        batch = list(items)
        return self._retry("put-many", self.inner.put_many, batch)

    # -- summaries -------------------------------------------------------

    def __len__(self) -> int:
        return self._retry("len", self.inner.__len__)

    def size_bytes(self) -> int:
        return self._retry("size", self.inner.size_bytes)

    def scheme_counts(self) -> Dict[str, int]:
        return self._retry("scheme-counts", self.inner.scheme_counts)

    def clear(self, scheme: Optional[str] = None) -> int:
        return self._retry("clear", self.inner.clear, scheme)

    # -- lease protocol (lease-aware budgets) ----------------------------

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        return self._retry(
            f"claim:{key}", self.inner.claim, key, worker, ttl, budget=ttl / 2.0
        )

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        batch = list(keys)
        return self._retry(
            "heartbeat", self.inner.heartbeat, batch, worker, ttl,
            budget=ttl / 2.0,
        )

    def release(self, key: str, worker: str) -> None:
        self._retry(f"release:{key}", self.inner.release, key, worker)

    def leases(self) -> List[Lease]:
        return self._retry("leases", self.inner.leases)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self.inner.close()


__all__ = ["FLUSH_RESULTS", "FLUSH_SECONDS", "RetryStats", "RetryingStore"]
