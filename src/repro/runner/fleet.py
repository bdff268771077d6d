"""Cooperative fleet execution over a shared lease-capable result store.

A *fleet* is N independent runner processes pointed at the same
transactional store -- ``sqlite:`` on one host, or ``http:`` (a ``cache
serve`` in front of sqlite) across hosts -- each running the same sweep:

.. code-block:: bash

    python -m repro run fig09 --store sqlite:fig09.db --fleet &
    python -m repro run fig09 --store sqlite:fig09.db --fleet &

There is **no coordinator**.  Each worker plans the identical unit list
(units are pure functions of the sweep description), then loops:

1. atomically :meth:`~repro.store.ResultStore.claim` a batch of
   still-open units under a TTL lease -- the store guarantees exactly one
   claimer wins each unit, which is what makes duplicated execution
   impossible among live workers.  Claims take whole synthesis groups
   (:func:`~repro.runner.units.synthesis_groups`), so live peers never
   split one,
2. absorb results other workers finished (a claim that fails names a
   unit that is either done -- read it -- or leased by a live peer),
3. execute the claimed units on the local executor (serial or thread
   pool) while a daemon thread heartbeats the held leases so long units
   survive their TTL,
4. upsert each result and release its lease -- the write happens *before*
   the release, so a unit is never both unleased and unfinished.

Each worker also holds a *presence lease* for as long as it runs (see
:func:`presence_key`).  Counting the live presence leases of its own host
tells a worker how many fleet peers share its cores, and ``auto`` kernel
threads divide by that count (:mod:`repro.kernels.threads`), so a fleet
shares a host's cores the way the workers of a thread pool do.

Crash tolerance falls out of the lease TTL: a worker that dies mid-unit
stops heartbeating, its leases expire, and any other worker's next claim
takes them over and re-executes.  Results are deterministic per seed
scheme and writes are idempotent upserts, so takeover (or even a race
where a zombie finishes late) converges on identical bytes.  Every worker
keeps looping until *every* unit of its plan has a result in the store,
so each member of the fleet returns the complete, bit-identical sweep.
"""

from __future__ import annotations

import hashlib
import logging
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.kernels.threads import host_peers_context, set_host_peers
from repro.resilience.errors import PoisonUnitError, StoreUnavailableError
from repro.resilience.policy import DEFAULT_POLICY, FailurePolicy, UnitFailure
from repro.resilience.report import read_quarantine, write_quarantine
from repro.resilience.retry import RetryingStore
from repro.runner.executors import Executor, OnFailure, OnResult, SerialExecutor
from repro.runner.options import DEFAULT_LEASE_TTL
from repro.runner.units import UnitResult, WorkUnit, synthesis_groups
from repro.store.base import ResultStore
from repro.store.codec import decode_payload, unit_key

logger = logging.getLogger("repro.fleet")

#: First idle wait of the claim loop; each further idle round doubles it,
#: up to the runner's ``poll_interval``.
IDLE_BACKOFF_START = 0.005


def default_worker_id() -> str:
    """Fleet-unique worker identity: ``<hostname>:<pid>``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _host_prefix() -> str:
    """Key prefix shared by the presence leases of this host's workers."""
    return f"peer-{_digest(socket.gethostname())}-"


def presence_key(worker_id: str) -> str:
    """Key of the lease a fleet worker holds while it runs.

    ``peer-<host digest>-<worker digest>``: hex digests, so the key is a
    safe file name on every backend, and workers on one host share the
    prefix that :func:`count_host_peers` looks for.  No unit result is
    ever stored under it.
    """
    return _host_prefix() + _digest(worker_id)


def _lease_clock(store: ResultStore) -> float:
    """Now, in the clock domain of ``store.leases()`` expiries.

    An ``http:`` store's expiries come from the server's clock, which its
    ``/health`` payload reports; every other backend stamps leases with
    this host's wall clock.
    """
    health = getattr(store, "health", None)
    if health is not None:
        return float(health()["clock"])
    return time.time()


def count_host_peers(store: ResultStore) -> int:
    """Live fleet workers on this host, from the store's presence leases.

    Expired presence leases (a crashed peer's) and other hosts' never
    count; the caller's own live lease does, so the result is at least 1
    while it runs.
    """
    prefix = _host_prefix()
    now = _lease_clock(store)
    live = sum(
        1
        for lease in store.leases()
        if lease.key.startswith(prefix) and not lease.expired(now)
    )
    return max(1, live)


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
        thread pool, claimed batches fan out over local workers while
        the lease heartbeat runs on its own thread.  Units carry their ``kernel_threads`` spec; ``auto``
        divides physical cores by the local executor's worker count
        times the live fleet peers on this host, so the peers on one
        machine share its cores instead of each claiming all of them.
    worker_id:
        Fleet-unique identity (default ``<hostname>:<pid>``).
    lease_ttl:
        Seconds a claimed unit stays leased without a heartbeat.
    heartbeat_interval:
        Seconds between lease refreshes (default: a third of the TTL).
    poll_interval:
        Cap on the idle wait when every open unit is leased elsewhere.
        The wait starts at :data:`IDLE_BACKOFF_START` and doubles per
        idle round up to this cap; it resets whenever a claim wins or a
        peer's result is absorbed.
    claim_batch:
        Units to claim per loop iteration (default: enough to keep the
        local executor's workers busy).  The last group claimed is
        claimed whole, so a round may claim a few more.

    The :class:`FailurePolicy` arrives with each :meth:`run` call, like
    any executor's.  The store is wrapped in a :class:`RetryingStore`
    with that policy (claims/heartbeats/writes survive transient
    outages), the local executor runs the claimed units under it, and
    failed units follow its ``on_error`` action: ``quarantine`` writes a
    store-backed quarantine record *before* releasing the lease, so peers
    see the verdict and never re-execute the poison unit.

    For the length of :meth:`run` the worker also holds a presence lease
    (:func:`presence_key`), refreshed by the same heartbeat thread and
    released on the way out, however the run ends.  Once per claim round
    it counts the live presence leases of its host
    (:func:`count_host_peers`) and declares that count to
    :mod:`repro.kernels.threads`; the previous count is restored when the
    run returns.
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
            # Keep a thread pool saturated; the serial executor claims
            # in small batches so late joiners still get a share.
            claim_batch = 2 * int(getattr(self.executor, "workers", 1))
        self.claim_batch = max(1, int(claim_batch))
        self.stats = FleetStats()

    @contextmanager
    def _registered(self, store: ResultStore) -> Iterator["_Heartbeat"]:
        """Hold this worker's presence lease and heartbeat for one run."""
        presence = presence_key(self.worker_id)
        # Enter the peer-count scope before registering: an in-process
        # peer that counts this worker has then already saved its own
        # previous count.
        with host_peers_context():
            store.claim(presence, self.worker_id, self.lease_ttl)
            try:
                with _Heartbeat(
                    store, self.worker_id, self.lease_ttl, self.heartbeat_interval
                ) as heartbeat:
                    heartbeat.hold([presence])
                    yield heartbeat
            finally:
                # After the heartbeat thread has stopped, so no in-flight
                # refresh can re-create the lease.  A store too sick to
                # release it only delays peers until the lease expires.
                try:
                    store.release(presence, self.worker_id)
                except StoreUnavailableError as error:
                    logger.warning(
                        "fleet worker %s could not release its presence "
                        "lease: %s", self.worker_id, error,
                    )

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
        policy: FailurePolicy = DEFAULT_POLICY,
    ) -> None:
        store = RetryingStore.wrap(self.store, policy)
        # Every unit under its key, with the number of its synthesis group.
        keyed = [(unit_key(unit), unit, index)
                 for index, group in enumerate(synthesis_groups(units)) for unit in group]
        pending: Dict[str, WorkUnit] = {key: unit for key, unit, _group in keyed}
        group_of = {key: group for key, _unit, group in keyed}
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
            unit = pending.pop(key)
            self.stats.failed += 1
            self.stats.failed_keys.append(key)
            on_failure(unit, entry.as_failure())
            return True

        idle_wait = IDLE_BACKOFF_START
        with self._registered(store) as heartbeat:
            while pending:
                check_heartbeat(heartbeat)
                # Peers join and leave mid-sweep: recount this host's
                # live ones so ``auto`` kernel threads share its cores.
                set_host_peers(count_host_peers(store))
                # 1. Claim a batch of whole groups.  The store
                # arbitrates: every open unit is won by exactly one live
                # worker.  A failed claim means the unit is finished or
                # leased elsewhere -- only those few keys need a read,
                # which keeps each round at O(batch) store operations.
                # Peers claim a group in plan order, so after a lost
                # claim a peer holds the rest of the group.
                claimed: List[WorkUnit] = []
                contested: List[str] = []
                lost = last = None
                for key, unit in pending.items():
                    group = group_of[key]
                    if group == lost:
                        contested.append(key)
                        continue
                    if len(claimed) >= self.claim_batch and group != last:
                        break
                    if store.claim(key, self.worker_id, self.lease_ttl):
                        claimed.append(unit)
                        last = group
                    else:
                        contested.append(key)
                        lost = group
                if claimed:
                    idle_wait = IDLE_BACKOFF_START

                # 2. Absorb contested units another fleet member already
                # completed.  Raw record reads: polling must not distort
                # the store's hit/miss statistics.
                for key in contested:
                    payload = store.get_record(key)
                    result = None if payload is None else decode_payload(payload)
                    if result is not None:
                        self.stats.absorbed += 1
                        on_result(pending.pop(key), result)
                        idle_wait = IDLE_BACKOFF_START

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
                    # leases to expire (claimed next round).  The wait
                    # doubles while nothing changes, so a result that lands
                    # soon is picked up soon, and a long wait costs few
                    # store round trips.
                    self.stats.reclaim_waits += 1
                    time.sleep(min(idle_wait, self.poll_interval))
                    idle_wait = min(2 * idle_wait, self.poll_interval)
                    continue

                # 3. Execute the claimed batch locally, heartbeating the
                # held leases; 4. persist before releasing, so a unit is
                # never both unleased and unfinished.
                heartbeat.hold([unit_key(unit) for unit in claimed])

                def on_executed(unit: WorkUnit, result: UnitResult) -> None:
                    check_heartbeat(heartbeat)
                    key = unit_key(unit)
                    del pending[key]
                    store.put(unit, result)
                    store.release(key, self.worker_id)
                    heartbeat.drop(key)
                    self.stats.executed += 1
                    self.stats.executed_keys.append(key)
                    on_result(unit, result)

                def on_failed(unit: WorkUnit, failure: UnitFailure) -> None:
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
                        on_failure(unit, failure)

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
    "IDLE_BACKOFF_START",
    "FleetRunner",
    "FleetStats",
    "count_host_peers",
    "default_worker_id",
    "presence_key",
]
