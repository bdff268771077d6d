"""Single-file SQLite result store with provenance and lease tables.

One WAL-mode database file holds millions of unit results without the
inode blowup of one-file-per-cell: entries live in a ``results`` table
keyed by the canonical unit key, indexed by config token and seed scheme
so per-figure and per-scheme scans are single index lookups instead of
directory walks.  Writes are idempotent upserts (``ON CONFLICT ... DO
UPDATE``), which is what makes fleet takeover safe: two workers writing
the same unit -- e.g. after a lease expired mid-execution -- converge on
one row with bit-identical content.

Two side tables complete the picture:

* ``provenance`` records, per executed unit, the full config snapshot,
  the seed-scheme token, the library version and the exact
  ``python -m repro rerun-unit ...`` command that reproduces the entry
  from nothing (the pycomex-style self-contained archive contract).
  Migrated entries carry no unit object, so they get no provenance row --
  the table describes *executions*, not copies.
* ``leases`` implements the fleet work-unit lease protocol.  ``claim`` is
  one ``BEGIN IMMEDIATE`` transaction (SQLite's write lock serialises
  racing workers, including across processes on a shared filesystem):
  insert the lease, or update it only when the incumbent expired.
  ``heartbeat`` extends only leases still held by the caller, so a worker
  that lost its lease to takeover finds out at the next beat.

Every write call is one ``BEGIN IMMEDIATE ... COMMIT``.  A solo sweep
does not pay that per unit: the engine buffers its results
(:meth:`repro.resilience.retry.RetryingStore.write_behind`) and flushes
them through :meth:`SqliteStore.put_many`, one transaction per flush
window.  Fleet workers still ``put`` each unit before releasing its lease.

The connection is shared across threads behind one lock (the fleet
heartbeat thread beats while the main thread executes), with a busy
timeout for cross-process contention.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.resilience.errors import StoreUnavailableError
from repro.runner.units import UnitResult, WorkUnit
from repro.store.base import Lease, ResultStore, StoreRecord
from repro.store.codec import (
    dump_entry,
    encode_result,
    entry_scheme,
    provenance_fields,
    unit_key,
)

#: Bump when the database layout changes shape.
SQLITE_STORE_SCHEMA = 1

#: Default seconds SQLite waits on a locked database before giving up --
#: applied both as the connection timeout and the ``busy_timeout`` pragma
#: on every connection path, so cross-process contention blocks briefly
#: instead of failing instantly.
DEFAULT_BUSY_TIMEOUT = 30.0

#: ``sqlite3.OperationalError`` messages that mark *transient* contention
#: (retry-worthy) rather than permanent failure.
_TRANSIENT_MARKERS = ("database is locked", "database table is locked", "busy")


def _is_transient(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return any(marker in message for marker in _TRANSIENT_MARKERS)

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    seed_scheme TEXT NOT NULL,
    config TEXT NOT NULL,
    payload TEXT NOT NULL,
    updated REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS results_by_scheme ON results(seed_scheme);
CREATE INDEX IF NOT EXISTS results_by_config ON results(config);
CREATE TABLE IF NOT EXISTS provenance (
    key TEXT PRIMARY KEY,
    unit TEXT NOT NULL,
    config TEXT NOT NULL,
    seed_scheme TEXT NOT NULL,
    code_version TEXT NOT NULL,
    rerun_command TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    key TEXT PRIMARY KEY,
    worker TEXT NOT NULL,
    expires REAL NOT NULL,
    claimed REAL NOT NULL,
    heartbeats INTEGER NOT NULL DEFAULT 0
);
"""


class SqliteStore(ResultStore):
    """WAL-mode single-file result store."""

    backend = "sqlite"
    supports_leases = True

    def __init__(
        self,
        path: Union[str, Path],
        *,
        timeout: float = DEFAULT_BUSY_TIMEOUT,
        create: bool = True,
    ):
        """Open the database at ``path``, creating it if it does not exist.

        ``create=False`` (read-only inspection) opens a missing file as an
        empty in-memory database instead, so nothing is created on disk.
        """
        super().__init__()
        if not str(path):
            raise ValueError("the sqlite store needs a database path: 'sqlite:results.db'")
        self.path = Path(path)
        missing = not create and not self.path.exists()
        if not missing and self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: explicit BEGIN/COMMIT, never autocommit
        # surprises inside the lease transaction.
        self._conn = sqlite3.connect(
            ":memory:" if missing else str(self.path),
            timeout=timeout,
            isolation_level=None,
            check_same_thread=False,
        )
        self._lock = threading.RLock()
        # Processes opening a file that none of them has created yet race
        # on the switch to WAL, which SQLite can report as "database is
        # locked" without waiting on the busy handler.  The set-up is
        # idempotent, so it is retried until the busy timeout runs out.
        deadline = time.monotonic() + timeout
        delay = 0.01
        while True:
            try:
                with self._lock, self._guard():
                    self._set_up(timeout)
                break
            except StoreUnavailableError:
                if time.monotonic() + delay > deadline:
                    raise
                time.sleep(delay)
                delay = min(2 * delay, 0.25)

    def _set_up(self, timeout: float) -> None:
        # Never zero: an unset busy timeout turns every cross-process
        # race into an instant "database is locked" failure.
        self._conn.execute(f"PRAGMA busy_timeout={max(int(timeout * 1000), 100)}")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_TABLES)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta(key, value) VALUES('store_schema', ?)",
            (str(SQLITE_STORE_SCHEMA),),
        )

    def _rollback(self) -> None:
        """Best-effort rollback that never masks the original error.

        When ``BEGIN IMMEDIATE`` itself failed (locked database), there
        is no transaction to roll back and a bare ``ROLLBACK`` would
        raise "cannot rollback - no transaction is active" *over* the
        real failure.
        """
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    @contextmanager
    def _guard(self):
        """Map transient SQLite contention to :class:`StoreUnavailableError`.

        The retry layer (:class:`repro.resilience.retry.RetryingStore`)
        retries exactly that type; permanent failures -- corruption,
        programming errors, a closed connection -- keep their original
        exception class and surface immediately.
        """
        try:
            yield
        except sqlite3.OperationalError as error:
            if _is_transient(error):
                raise StoreUnavailableError(
                    f"sqlite store {self.path} is busy: {error}"
                ) from error
            raise

    def location(self) -> str:
        return str(self.path)

    # -- records ---------------------------------------------------------

    @staticmethod
    def _row_fields(
        key: str, payload: Dict[str, Any], unit: Optional[WorkUnit], now: float
    ) -> Tuple[str, str, str, str, float]:
        scheme = str(payload.get("seed_scheme") or "pre-seeds")
        # The config token is indexed for per-figure scans; entries
        # migrated from backends that do not store it arrive without one.
        config = "" if unit is None else unit.config.token
        return (key, scheme, config, dump_entry(payload), now)

    @staticmethod
    def _provenance_row(key: str, unit: WorkUnit, now: float) -> tuple:
        return (key, *provenance_fields(unit), now)

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock, self._guard():
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    _UPSERT = (
        "INSERT INTO results(key, seed_scheme, config, payload, updated) "
        "VALUES(?, ?, ?, ?, ?) "
        "ON CONFLICT(key) DO UPDATE SET "
        "seed_scheme=excluded.seed_scheme, config=excluded.config, "
        "payload=excluded.payload, updated=excluded.updated"
    )

    _PROVENANCE_UPSERT = (
        "INSERT INTO provenance(key, unit, config, seed_scheme, "
        "code_version, rerun_command, created) VALUES(?, ?, ?, ?, ?, ?, ?) "
        "ON CONFLICT(key) DO UPDATE SET unit=excluded.unit, "
        "config=excluded.config, seed_scheme=excluded.seed_scheme, "
        "code_version=excluded.code_version, "
        "rerun_command=excluded.rerun_command, created=excluded.created"
    )

    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        now = time.time()
        rows = [self._row_fields(key, payload, unit, now)]
        provenance = [] if unit is None else [self._provenance_row(key, unit, now)]
        self._upsert(rows, provenance)

    def _upsert(self, rows: List[tuple], provenance: List[tuple]) -> None:
        """Write result rows and their provenance rows in one transaction."""
        with self._lock, self._guard():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.executemany(self._UPSERT, rows)
                self._conn.executemany(self._PROVENANCE_UPSERT, provenance)
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise

    def put(self, unit: WorkUnit, result: UnitResult) -> None:
        # One transaction covers the entry and its provenance row; the
        # provenance config column stores the config *token*, so lookups
        # by figure configuration are index scans.
        self.put_record(unit_key(unit), encode_result(unit, result), unit=unit)
        self.stats.writes += 1

    def put_many(self, items: Iterable[Tuple[WorkUnit, UnitResult]]) -> int:
        """Batched upsert: one transaction for the whole batch.

        This is what a write-behind flush
        (:meth:`repro.resilience.retry.RetryingStore.write_behind`) lands
        on: one ``BEGIN IMMEDIATE ... COMMIT`` per flush window, with the
        rows of both tables sent through ``executemany``.
        """
        now = time.time()
        rows: List[tuple] = []
        provenance: List[tuple] = []
        for unit, result in items:
            key = unit_key(unit)
            rows.append(self._row_fields(key, encode_result(unit, result), unit, now))
            provenance.append(self._provenance_row(key, unit, now))
        if not rows:
            return 0
        self._upsert(rows, provenance)
        self.stats.writes += len(rows)
        return len(rows)

    def delete_record(self, key: str) -> bool:
        with self._lock, self._guard():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE key = ?", (key,)
                )
                self._conn.execute(
                    "DELETE FROM provenance WHERE key = ?", (key,)
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise
        return cursor.rowcount > 0

    def records(self) -> Iterator[StoreRecord]:
        with self._lock, self._guard():
            rows = self._conn.execute(
                "SELECT key, payload FROM results ORDER BY key"
            ).fetchall()
        for key, payload_text in rows:
            try:
                payload = json.loads(payload_text)
            except ValueError:
                continue
            if isinstance(payload, dict):
                yield StoreRecord(key=key, payload=payload)

    def __len__(self) -> int:
        with self._lock, self._guard():
            (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def size_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            try:
                total += candidate.stat().st_size
            except OSError:
                pass
        return total

    def scheme_counts(self) -> Dict[str, int]:
        """Per-scheme entry counts from one indexed aggregate query."""
        with self._lock, self._guard():
            rows = self._conn.execute(
                "SELECT seed_scheme, COUNT(*) FROM results "
                "GROUP BY seed_scheme ORDER BY seed_scheme"
            ).fetchall()
        return {scheme: int(count) for scheme, count in rows}

    def clear(self, scheme: Optional[str] = None) -> int:
        if scheme is not None:
            scheme = entry_scheme(scheme)
        with self._lock, self._guard():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if scheme is None:
                    (removed,) = self._conn.execute(
                        "SELECT COUNT(*) FROM results"
                    ).fetchone()
                    self._conn.execute("DELETE FROM results")
                    self._conn.execute("DELETE FROM provenance")
                    self._conn.execute("DELETE FROM leases")
                else:
                    cursor = self._conn.execute(
                        "DELETE FROM results WHERE seed_scheme = ?", (scheme,)
                    )
                    removed = cursor.rowcount
                    self._conn.execute(
                        "DELETE FROM provenance WHERE seed_scheme = ?", (scheme,)
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise
        return int(removed)

    def provenance(self, key: str) -> Optional[Dict[str, Any]]:
        """The provenance record of one executed unit, or ``None``."""
        with self._lock, self._guard():
            row = self._conn.execute(
                "SELECT unit, config, seed_scheme, code_version, "
                "rerun_command, created FROM provenance WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return None
        return {
            "unit": json.loads(row[0]),
            "config_token": row[1],
            "seed_scheme": row[2],
            "code_version": row[3],
            "rerun_command": row[4],
            "created": row[5],
        }

    # -- leases ----------------------------------------------------------

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        # Expiry arithmetic always uses this store instance's clock
        # (``_now``), never a caller-supplied timestamp: all workers
        # sharing a sqlite file are assumed to share one wall clock
        # (same host or NTP-synced shared filesystem).  Behind ``cache
        # serve`` the instance lives in the server process, so the
        # server's clock arbitrates every lease.
        now = self._now()
        with self._lock, self._guard():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                done = self._conn.execute(
                    "SELECT 1 FROM results WHERE key = ?", (key,)
                ).fetchone()
                if done is not None:
                    self._conn.execute("ROLLBACK")
                    return False
                # A worker re-claiming a lease it already holds wins
                # (refreshing the expiry): claims are idempotent per
                # worker, so a claim whose *acknowledgement* was lost to
                # a transient store error can simply be retried.
                cursor = self._conn.execute(
                    "INSERT INTO leases(key, worker, expires, claimed, heartbeats) "
                    "VALUES(?, ?, ?, ?, 0) "
                    "ON CONFLICT(key) DO UPDATE SET worker=excluded.worker, "
                    "expires=excluded.expires, claimed=excluded.claimed, "
                    "heartbeats=0 WHERE leases.expires <= ? "
                    "OR leases.worker = excluded.worker",
                    (key, worker, now + ttl, now, now),
                )
                claimed = cursor.rowcount == 1
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise
        return claimed

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        expires = self._now() + ttl
        extended = 0
        with self._lock, self._guard():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for key in keys:
                    cursor = self._conn.execute(
                        "UPDATE leases SET expires = ?, heartbeats = heartbeats + 1 "
                        "WHERE key = ? AND worker = ?",
                        (expires, key, worker),
                    )
                    extended += cursor.rowcount
                self._conn.execute("COMMIT")
            except BaseException:
                self._rollback()
                raise
        return extended

    def release(self, key: str, worker: str) -> None:
        with self._lock, self._guard():
            self._conn.execute(
                "DELETE FROM leases WHERE key = ? AND worker = ?", (key, worker)
            )

    def leases(self) -> List[Lease]:
        with self._lock, self._guard():
            rows = self._conn.execute(
                "SELECT key, worker, expires FROM leases ORDER BY key"
            ).fetchall()
        return [Lease(key=k, worker=w, expires=float(e)) for k, w, e in rows]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()


__all__ = ["DEFAULT_BUSY_TIMEOUT", "SQLITE_STORE_SCHEMA", "SqliteStore"]
