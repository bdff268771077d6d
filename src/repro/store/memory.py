"""In-memory result store (tests and throwaway sweeps).

Nothing is persisted: entries and leases live in process-local dicts
behind one lock, which makes the backend the cheapest way to exercise the
store and lease contracts (claim races between threads, takeover after
expiry, migration round-trips) without touching the filesystem.

``memory:`` opens a fresh anonymous instance; ``memory:NAME`` opens a
process-wide shared instance, so two components of one test -- e.g. two
fleet worker threads -- can cooperate on the same ledger the way two
processes share a sqlite file.
"""

from __future__ import annotations

import copy
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Iterable

from repro.runner.units import WorkUnit
from repro.store.base import Lease, ResultStore, StoreRecord
from repro.store.codec import entry_scheme

#: Process-wide registry of named shared instances (``memory:NAME``).
_SHARED: Dict[str, "MemoryStore"] = {}
_SHARED_LOCK = threading.Lock()


def shared_memory_store(name: str) -> "MemoryStore":
    """The process-wide :class:`MemoryStore` registered under ``name``.

    An empty name (the ``memory:`` URI) opens a fresh, unshared store.
    """
    if not name:
        return MemoryStore()
    with _SHARED_LOCK:
        store = _SHARED.get(name)
        if store is None:
            store = MemoryStore(name=name)
            _SHARED[name] = store
        return store


class MemoryStore(ResultStore):
    """Dict-backed result store with full lease support."""

    backend = "memory"
    supports_leases = True

    def __init__(self, name: Optional[str] = None):
        super().__init__()
        self.name = name
        self._lock = threading.RLock()
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._leases: Dict[str, Lease] = {}

    def location(self) -> str:
        return self.name or ""

    # -- records ---------------------------------------------------------

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            payload = self._entries.get(key)
        return None if payload is None else copy.deepcopy(payload)

    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        # Round-trip through JSON so stored payloads carry exactly what a
        # persistent backend would return (tuples become lists, keys
        # become strings) -- migration verification stays meaningful.
        normalised = json.loads(json.dumps(payload))
        with self._lock:
            self._entries[key] = normalised

    def delete_record(self, key: str) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def records(self) -> Iterator[StoreRecord]:
        with self._lock:
            snapshot = sorted(self._entries.items())
        for key, payload in snapshot:
            yield StoreRecord(key=key, payload=copy.deepcopy(payload))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def size_bytes(self) -> int:
        with self._lock:
            return sum(
                len(json.dumps(payload)) for payload in self._entries.values()
            )

    def clear(self, scheme: Optional[str] = None) -> int:
        with self._lock:
            if scheme is None:
                removed = len(self._entries)
                self._entries.clear()
                self._leases.clear()
                return removed
            scheme = entry_scheme(scheme)
            matching = [
                key
                for key, payload in self._entries.items()
                if (payload.get("seed_scheme") or "pre-seeds") == scheme
            ]
            for key in matching:
                del self._entries[key]
            return len(matching)

    # -- leases ----------------------------------------------------------

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        now = self._now()
        with self._lock:
            if key in self._entries:
                return False
            lease = self._leases.get(key)
            if lease is not None and not lease.expired(now):
                # Per-worker idempotent: re-claiming a held lease
                # refreshes it, so claims lost to transient store
                # errors can be retried safely.
                if lease.worker == worker:
                    self._leases[key] = Lease(
                        key=key, worker=worker, expires=now + ttl
                    )
                    return True
                return False
            self._leases[key] = Lease(key=key, worker=worker, expires=now + ttl)
            return True

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        now = self._now()
        extended = 0
        with self._lock:
            for key in keys:
                lease = self._leases.get(key)
                if lease is not None and lease.worker == worker:
                    self._leases[key] = Lease(
                        key=key, worker=worker, expires=now + ttl
                    )
                    extended += 1
        return extended

    def release(self, key: str, worker: str) -> None:
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None and lease.worker == worker:
                del self._leases[key]

    def leases(self) -> List[Lease]:
        with self._lock:
            return [self._leases[key] for key in sorted(self._leases)]


__all__ = ["MemoryStore", "shared_memory_store"]
