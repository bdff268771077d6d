"""The result-store contract every backend implements.

A :class:`ResultStore` is a durable ledger of executed work units keyed by
the canonical :func:`~repro.store.codec.unit_key`.  The engine talks to it
through the unit-level API (:meth:`ResultStore.get` /
:meth:`ResultStore.put`); migration and inspection tools use the
record-level API (:meth:`ResultStore.get_record` /
:meth:`ResultStore.put_record` / :meth:`ResultStore.records`), which moves
raw payloads without re-deriving keys, so entries survive backend moves
byte-for-byte.

Lease-capable backends additionally implement the **work-unit lease
protocol** used by fleet execution (:mod:`repro.runner.fleet`):

* :meth:`ResultStore.claim` atomically acquires a TTL lease on one unit
  key -- exactly one worker of a fleet wins a live unit, and a unit whose
  result already exists can never be claimed.
* :meth:`ResultStore.heartbeat` extends the leases a worker holds while it
  executes, so long units survive their TTL.
* A lease whose TTL elapsed is *expired*: any worker's next
  :meth:`ResultStore.claim` takes it over, which is what makes a fleet
  crash-tolerant -- completed units are idempotent upserts, so takeover
  after a worker died mid-unit is always safe.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.runner.units import UnitResult, WorkUnit
from repro.store.codec import decode_payload, encode_result, unit_key


@dataclass
class StoreStats:
    """Hit/miss/write counters of one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0


@dataclass(frozen=True)
class StoreRecord:
    """One raw entry: the canonical key and the JSON-compatible payload."""

    key: str
    payload: Dict[str, Any]


@dataclass(frozen=True)
class Lease:
    """One live work-unit lease."""

    key: str
    worker: str
    expires: float

    def expired(self, now: float) -> bool:
        return self.expires <= now


@dataclass(frozen=True)
class StoreInfo:
    """Summary of a store's contents (``python -m repro cache info``)."""

    backend: str
    location: str
    entries: int
    size_bytes: int
    scheme_counts: Dict[str, int] = field(default_factory=dict)


class LeaseUnsupportedError(ValueError):
    """Raised when fleet execution targets a backend without lease support.

    A ``ValueError``: the store is a wrong value for a fleet, so the CLI
    exits 2 and ``cache serve`` answers 400, which the ``http:`` client
    raises as a permanent error instead of retrying.
    """


class ResultStore(abc.ABC):
    """Pluggable backend holding executed work-unit results.

    Subclasses implement the record-level primitives; the unit-level API,
    statistics and scheme breakdown are derived here so every backend
    behaves identically at the engine boundary.
    """

    #: Registry name of the backend (``"json-dir"``, ``"sqlite"``, ...).
    backend: str = "abstract"

    #: Whether the backend implements the work-unit lease protocol.
    supports_leases: bool = False

    def __init__(self) -> None:
        self.stats = StoreStats()

    # -- unit-level API (what the engine uses) ---------------------------

    def get(self, unit: WorkUnit) -> Optional[UnitResult]:
        """Return the stored result of ``unit``, or ``None`` on a miss."""
        payload = self.get_record(unit_key(unit))
        result = None if payload is None else decode_payload(payload)
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, unit: WorkUnit, result: UnitResult) -> None:
        """Persist the result of one executed unit (idempotent upsert)."""
        self.put_record(unit_key(unit), encode_result(unit, result), unit=unit)
        self.stats.writes += 1

    def put_many(self, items: Iterable[Tuple[WorkUnit, UnitResult]]) -> int:
        """Persist a batch of results; returns the number written.

        The default writes one by one; backends with cheaper batched
        writes (sqlite) override this with a single transaction.
        """
        written = 0
        for unit, result in items:
            self.put(unit, result)
            written += 1
        return written

    # -- record-level API (migration / inspection) -----------------------

    @abc.abstractmethod
    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        """Raw payload stored under ``key``, or ``None``."""

    @abc.abstractmethod
    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        """Store ``payload`` under ``key`` (idempotent upsert).

        ``unit`` is supplied when the write comes from an execution (not a
        migration); backends with a provenance layer record it.
        """

    def delete_record(self, key: str) -> bool:
        """Remove the entry stored under ``key``; ``True`` if one existed.

        Used by the quarantine workflow (a healed unit's quarantine
        record is deleted after a successful rerun); backends without
        record deletion inherit this error.
        """
        raise NotImplementedError(
            f"store backend {self.backend!r} does not support record deletion"
        )

    @abc.abstractmethod
    def records(self) -> Iterator[StoreRecord]:
        """Iterate every readable entry (migration's source side)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of entries currently stored."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total persistent size of the store."""

    @abc.abstractmethod
    def clear(self, scheme: Optional[str] = None) -> int:
        """Delete entries -- all of them, or only one seed scheme's.

        ``scheme`` is resolved by :func:`~repro.store.codec.entry_scheme`
        (a name, a token or ``"pre-seeds"``; anything else raises
        ``ValueError``).  Returns the number of entries removed.
        """

    def scheme_counts(self) -> Dict[str, int]:
        """Entry counts per seed scheme.

        Backends with indexed scheme columns (sqlite) or cheap prefix
        scans (json-dir) override this; the default reads every payload.
        Entries written before the scheme field existed are reported under
        ``"pre-seeds"`` -- they are misses on lookup but still occupy
        space, so the breakdown accounts for them.
        """
        counts: Dict[str, int] = {}
        for record in self.records():
            scheme = record.payload.get("seed_scheme") or "pre-seeds"
            counts[scheme] = counts.get(scheme, 0) + 1
        return dict(sorted(counts.items()))

    # -- lease protocol (fleet execution) --------------------------------

    def _now(self) -> float:
        """The authoritative clock for all lease-expiry arithmetic.

        Every ``claim``/``heartbeat`` implementation derives expiry times
        from this hook -- never from a caller-supplied timestamp -- so the
        process that *owns* the store instance owns the clock.  For the
        sqlite backend that process is the worker itself, which is why
        that path carries a **same-host assumption**: all workers sharing
        a ``sqlite:`` store must share one wall clock.  The ``http:``
        backend removes that assumption by evaluating ``_now()`` inside
        the server process, making the server the single arbiter -- a
        worker with a skewed clock can never compute its way into a
        premature lease takeover.

        Overridable in tests to simulate clock skew deterministically.
        """
        return time.time()

    def _lease_unsupported(self) -> LeaseUnsupportedError:
        return LeaseUnsupportedError(
            f"store backend {self.backend!r} does not support work-unit "
            f"leases; fleet execution needs a lease-capable store: "
            f"'sqlite:PATH' on one host, 'http:HOST:PORT' (a 'cache serve' "
            f"in front of sqlite) across hosts, or 'memory:' in-process"
        )

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        """Atomically lease ``key`` for ``worker`` for ``ttl`` seconds.

        Returns ``True`` when the lease was acquired: the key has no
        result yet and no other worker holds a live lease on it (expired
        leases are taken over).  Exactly one concurrent claimer wins.
        """
        raise self._lease_unsupported()

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        """Extend the leases ``worker`` holds on ``keys`` by ``ttl``.

        Returns the number of leases successfully extended; a key whose
        lease was lost (expired and taken over) is not extended.
        """
        raise self._lease_unsupported()

    def release(self, key: str, worker: str) -> None:
        """Drop ``worker``'s lease on ``key`` (no-op if not held)."""
        raise self._lease_unsupported()

    def leases(self) -> List[Lease]:
        """Every lease currently recorded (live or expired)."""
        raise self._lease_unsupported()

    # -- lifecycle / description -----------------------------------------

    @abc.abstractmethod
    def location(self) -> str:
        """Human-readable location (path, URI, instance name)."""

    def uri(self) -> str:
        """The store URI that re-opens this store."""
        return f"{self.backend}:{self.location()}"

    def info(self) -> StoreInfo:
        """One-scan summary: entry count, size, scheme breakdown."""
        return StoreInfo(
            backend=self.backend,
            location=self.location(),
            entries=len(self),
            size_bytes=self.size_bytes(),
            scheme_counts=self.scheme_counts(),
        )

    def close(self) -> None:
        """Release backend resources (connections, handles)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "Lease",
    "LeaseUnsupportedError",
    "ResultStore",
    "StoreInfo",
    "StoreRecord",
    "StoreStats",
]
