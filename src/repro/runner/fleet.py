"""Cooperative fleet execution over a shared lease-capable result store.

A *fleet* is N independent runner processes -- on one box or a shared
filesystem -- pointed at the same store, each running the same sweep:

.. code-block:: bash

    python -m repro run fig09 --store sqlite:fig09.db --fleet &
    python -m repro run fig09 --store sqlite:fig09.db --fleet &

There is **no coordinator**.  Each worker plans the identical unit list
(units are pure functions of the sweep description), then loops:

1. atomically :meth:`~repro.store.ResultStore.claim` a batch of
   still-open units under a TTL lease -- the store guarantees exactly one
   claimer wins each unit, which is what makes duplicated execution
   impossible among live workers,
2. absorb results other workers finished (a claim that fails names a
   unit that is either done -- read it -- or leased by a live peer),
3. execute the claimed units on the local executor (serial or process
   pool) while a daemon thread heartbeats the held leases so long units
   survive their TTL,
4. upsert each result and release its lease -- the write happens *before*
   the release, so a unit is never both unleased and unfinished.

Crash tolerance falls out of the lease TTL: a worker that dies mid-unit
stops heartbeating, its leases expire, and any other worker's next claim
takes them over and re-executes.  Results are deterministic per seed
scheme and writes are idempotent upserts, so takeover (or even a race
where a zombie finishes late) converges on identical bytes.  Every worker
keeps looping until *every* unit of its plan has a result in the store,
so each member of the fleet returns the complete, bit-identical sweep.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.resilience.errors import PoisonUnitError, StoreUnavailableError
from repro.resilience.policy import DEFAULT_POLICY, FailurePolicy, UnitFailure
from repro.resilience.report import read_quarantine, write_quarantine
from repro.resilience.retry import RetryingStore
from repro.runner.executors import Executor, OnFailure, OnResult, SerialExecutor
from repro.runner.units import UnitResult, WorkUnit
from repro.store.base import ResultStore
from repro.store.codec import decode_payload, unit_key

logger = logging.getLogger("repro.fleet")

#: Default lease TTL: long enough that one chunk of tiny-scale units plus
#: scheduling jitter never outlives it between heartbeats, short enough
#: that a crashed worker's units are reclaimed promptly.
DEFAULT_LEASE_TTL = 30.0


def default_worker_id() -> str:
    """Fleet-unique worker identity: ``<hostname>:<pid>``."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class FleetStats:
    """What one fleet worker did during a run."""

    executed: int = 0
    absorbed: int = 0
    reclaim_waits: int = 0
    failed: int = 0
    executed_keys: List[str] = field(default_factory=list)
    failed_keys: List[str] = field(default_factory=list)


#: Consecutive heartbeat failures tolerated before the thread gives up.
#: Anything transient (a locked sqlite file, an NFS hiccup) clears well
#: inside this window; past it the leases are expiring anyway, so the
#: worker must stop executing rather than race its own takeover.
HEARTBEAT_FAILURE_LIMIT = 5


class _Heartbeat:
    """Daemon thread refreshing the leases a worker currently holds.

    Transient store errors (:class:`StoreUnavailableError`) are logged and
    retried on the next tick; :data:`HEARTBEAT_FAILURE_LIMIT` consecutive
    misses -- or any unexpected exception -- stop the thread and surface
    through :attr:`failure`, which the fleet loop checks every iteration.
    A heartbeat that dies silently is worse than one that crashes the run:
    the worker would keep executing units whose leases have expired and
    been taken over, reintroducing the duplicated execution the lease
    protocol exists to prevent.
    """

    def __init__(self, store: ResultStore, worker: str, ttl: float, interval: float):
        self._store = store
        self._worker = worker
        self._ttl = ttl
        self._interval = interval
        self._held: Set[str] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[BaseException] = None
        self._misses = 0

    def hold(self, keys: Sequence[str]) -> None:
        with self._lock:
            self._held.update(keys)

    def drop(self, key: str) -> None:
        with self._lock:
            self._held.discard(key)

    @property
    def failure(self) -> Optional[BaseException]:
        with self._lock:
            return self._failure

    def _beat_once(self) -> bool:
        """Refresh the held leases; True when a heartbeat actually ran."""
        with self._lock:
            keys = sorted(self._held)
        if not keys:
            return False
        self._store.heartbeat(keys, self._worker, self._ttl)
        return True

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                beat = self._beat_once()
            except StoreUnavailableError as error:
                self._misses += 1
                logger.warning(
                    "fleet heartbeat for %s missed a beat (%d/%d): %s",
                    self._worker,
                    self._misses,
                    HEARTBEAT_FAILURE_LIMIT,
                    error,
                )
                if self._misses >= HEARTBEAT_FAILURE_LIMIT:
                    with self._lock:
                        self._failure = StoreUnavailableError(
                            f"fleet heartbeat for {self._worker} gave up after "
                            f"{self._misses} consecutive store failures: {error}"
                        )
                    return
            except BaseException as error:  # pragma: no cover - defensive
                with self._lock:
                    self._failure = error
                return
            else:
                # Only an actual successful heartbeat is evidence the
                # store recovered; an idle (no leases held) tick is not.
                if beat:
                    self._misses = 0

    def __enter__(self) -> "_Heartbeat":
        self._thread = threading.Thread(
            target=self._run, name="fleet-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()


class FleetRunner:
    """Executor-shaped front end of the work-unit lease protocol.

    Implements the :class:`~repro.runner.executors.Executor` protocol
    (``run(units, on_result, on_failure, policy)``), so the engine drops
    it in where a plain executor would go; the difference is that units
    are only executed under a store lease, and units another fleet member
    finished are loaded instead of executed.

    Parameters
    ----------
    store:
        The shared, lease-capable result store.
    executor:
        Local executor for claimed units (default: serial).  With a
        process or thread pool, claimed batches fan out over local
        workers while the lease heartbeat runs in the coordinating
        process.  Units carry their ``kernel_threads`` spec, so a fleet
        member executes claimed units with OpenMP row-parallel compiled
        kernels exactly like a standalone runner would (``auto`` divides
        physical cores by the local executor's worker count).
    worker_id:
        Fleet-unique identity (default ``<hostname>:<pid>``).
    lease_ttl:
        Seconds a claimed unit stays leased without a heartbeat.
    heartbeat_interval:
        Seconds between lease refreshes (default: a third of the TTL).
    poll_interval:
        Seconds to sleep when every open unit is leased elsewhere.
    claim_batch:
        Units to claim per loop iteration (default: enough to keep the
        local executor's workers busy).

    The :class:`FailurePolicy` arrives with each :meth:`run` call, like
    any executor's.  The store is wrapped in a :class:`RetryingStore`
    with that policy (claims/heartbeats/writes survive transient
    outages), the local executor runs the claimed units under it, and
    failed units follow its ``on_error`` action: ``quarantine`` writes a
    store-backed quarantine record *before* releasing the lease, so peers
    see the verdict and never re-execute the poison unit.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        executor: Optional[Executor] = None,
        worker_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
        poll_interval: Optional[float] = None,
        claim_batch: Optional[int] = None,
    ):
        if not store.supports_leases:
            raise store._lease_unsupported()
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl!r}")
        self.store = store
        self.executor: Executor = executor if executor is not None else SerialExecutor()
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else self.lease_ttl / 3.0
        )
        self.poll_interval = (
            float(poll_interval)
            if poll_interval is not None
            else min(0.2, self.lease_ttl / 10.0)
        )
        if claim_batch is None:
            # Keep a process pool saturated; the serial executor claims
            # in small batches so late joiners still get a share.
            claim_batch = 2 * int(getattr(self.executor, "workers", 1))
        self.claim_batch = max(1, int(claim_batch))
        self.stats = FleetStats()

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        policy: FailurePolicy = DEFAULT_POLICY,
    ) -> None:
        store = RetryingStore.wrap(self.store, policy)
        pending: Dict[str, WorkUnit] = {unit_key(unit): unit for unit in units}
        key_by_identity: Dict[Tuple[tuple, int], str] = {
            (unit.seed_path, unit.run_start): key for key, unit in pending.items()
        }
        quarantining = policy.on_error == "quarantine" and on_failure is not None

        def check_heartbeat(heartbeat: "_Heartbeat") -> None:
            failure = heartbeat.failure
            if failure is not None:
                raise failure

        def absorb_quarantined(key: str) -> bool:
            """Adopt a peer's quarantine verdict instead of re-executing."""
            if not quarantining:
                return False
            entry = read_quarantine(store, key)
            if entry is None:
                return False
            del pending[key]
            self.stats.failed += 1
            self.stats.failed_keys.append(key)
            on_failure(entry.as_failure())
            return True

        with _Heartbeat(
            store, self.worker_id, self.lease_ttl, self.heartbeat_interval
        ) as heartbeat:
            while pending:
                check_heartbeat(heartbeat)
                # 1. Claim a batch.  The store arbitrates: every open
                # unit is won by exactly one live worker.  A failed claim
                # means the unit is finished or leased elsewhere -- only
                # those few keys need a read, which keeps each round at
                # O(batch) store operations instead of a full rescan of
                # everything still pending.
                claimed: List[WorkUnit] = []
                contested: List[str] = []
                for key, unit in pending.items():
                    if len(claimed) >= self.claim_batch:
                        break
                    if store.claim(key, self.worker_id, self.lease_ttl):
                        claimed.append(unit)
                    else:
                        contested.append(key)

                # 2. Absorb contested units another fleet member already
                # completed.  Raw record reads: polling must not distort
                # the store's hit/miss statistics.
                for key in contested:
                    payload = store.get_record(key)
                    result = None if payload is None else decode_payload(payload)
                    if result is not None:
                        del pending[key]
                        self.stats.absorbed += 1
                        on_result(result)

                # A claim can also win a unit a peer already condemned
                # (quarantine releases the lease after writing the
                # verdict); adopting the record instead of re-executing
                # is what keeps a poisoned unit from burning every
                # worker's retry budget in turn.
                survivors: List[WorkUnit] = []
                for unit in claimed:
                    key = unit_key(unit)
                    if absorb_quarantined(key):
                        store.release(key, self.worker_id)
                    else:
                        survivors.append(unit)
                claimed = survivors
                if not pending:
                    break

                if not claimed:
                    # Everything open is leased elsewhere: wait for the
                    # owners to finish (absorbed next round) or for their
                    # leases to expire (claimed next round).
                    self.stats.reclaim_waits += 1
                    time.sleep(self.poll_interval)
                    continue

                # 3. Execute the claimed batch locally, heartbeating the
                # held leases; 4. persist before releasing, so a unit is
                # never both unleased and unfinished.
                heartbeat.hold([unit_key(unit) for unit in claimed])

                def on_executed(result: UnitResult) -> None:
                    check_heartbeat(heartbeat)
                    key = key_by_identity[(result.seed_path, result.run_start)]
                    unit = pending.pop(key)
                    store.put(unit, result)
                    store.release(key, self.worker_id)
                    heartbeat.drop(key)
                    self.stats.executed += 1
                    self.stats.executed_keys.append(key)
                    on_result(result)

                def on_failed(failure: UnitFailure) -> None:
                    # Verdict before release: a unit is never both
                    # unleased and unaccounted-for.  Peers that claim the
                    # released lease find the record and absorb it.
                    key = failure.unit_key
                    pending.pop(key, None)
                    if policy.on_error == "quarantine":
                        write_quarantine(store, failure, worker=self.worker_id)
                    store.release(key, self.worker_id)
                    heartbeat.drop(key)
                    self.stats.failed += 1
                    self.stats.failed_keys.append(key)
                    if on_failure is not None:
                        on_failure(failure)

                try:
                    self.executor.run(claimed, on_executed, on_failed, policy)
                except PoisonUnitError:
                    # on_error="raise": free the batch's outstanding
                    # leases so a restarted run (or a peer) is not stuck
                    # waiting out the TTL on units this worker will
                    # never finish.
                    for unit in claimed:
                        key = unit_key(unit)
                        if key in pending:
                            store.release(key, self.worker_id)
                            heartbeat.drop(key)
                    raise


__all__ = [
    "DEFAULT_LEASE_TTL",
    "HEARTBEAT_FAILURE_LIMIT",
    "FleetRunner",
    "FleetStats",
    "default_worker_id",
]
