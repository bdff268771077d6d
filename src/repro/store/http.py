"""The ``http:HOST:PORT`` client backend -- a remote store over HTTP.

Talks to a :class:`~repro.store.server.StoreServer` (``python -m repro
cache serve ...``) and implements the **full** :class:`ResultStore`
contract including the lease protocol, so fleets, failure policies,
migration and ``chaos+http:`` wrappers all work unchanged.

URI forms::

    http:192.0.2.10:8737
    http:192.0.2.10:8737?token=s3cret
    http:192.0.2.10:8737?token=s3cret&spool=.repro_spool.jsonl&timeout=5

Failure taxonomy (what makes ``RetryingStore`` work unchanged):

* connection refused / reset / timeout / any **5xx** response map to the
  transient :class:`~repro.resilience.errors.StoreUnavailableError`, with
  a one-line actionable message (server URL + "is ``cache serve``
  running?");
* any **4xx** response maps to the permanent :class:`HttpStoreError`
  (wrong token, malformed request, unknown endpoint) -- retrying cannot
  help, so it fails loudly instead of burning a retry budget.

Lease arithmetic never happens here: ``claim``/``heartbeat`` send the TTL
*duration* and the server evaluates expiry on its own clock, so a skewed
worker clock cannot cause a premature takeover.  ``leases()`` expiry
values are therefore in the server's clock domain.

``spool=`` opts into a **degraded write mode**: when the server is
unreachable, ``put``/``put_many`` batches are appended to a local
write-behind journal (JSONL, fsynced) and reported as written; the
journal is replayed -- oldest first, as ordinary idempotent upserts --
before the next successful write (or via :meth:`HttpStore.reconcile` /
``close()``).  Upsert semantics make replay convergent: a result is never
lost (it is on disk before the caller sees success) and never duplicated
(the server upserts by unit key).  Reads stay strict: a ``get`` while the
server is down still raises, because serving stale misses would cause
needless re-execution.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.resilience.errors import HttpStoreError, StoreUnavailableError
from repro.runner.units import UnitResult, WorkUnit
from repro.store.base import Lease, ResultStore, StoreRecord
from repro.store.codec import encode_result, entry_scheme, unit_key

#: Per-request socket timeout (connect + read), seconds.
DEFAULT_TIMEOUT = 10.0


def _parse_location(location: str) -> Tuple[str, int, Dict[str, str]]:
    """Split ``HOST:PORT[?k=v&...]`` into host, port and options."""
    address, _, query = location.partition("?")
    host, separator, port_text = address.rpartition(":")
    if not separator or not host or not port_text.isdigit():
        raise ValueError(
            f"the http store needs 'http:HOST:PORT[?token=...&spool=PATH"
            f"&timeout=S]', got location {location!r}"
        )
    options: Dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            name, separator, value = pair.partition("=")
            if not separator:
                raise ValueError(f"malformed http store option {pair!r}")
            if name not in ("token", "spool", "timeout"):
                raise ValueError(
                    f"unknown http store option {name!r} "
                    f"(known: token, spool, timeout)"
                )
            options[name] = value
    return host, int(port_text), options


class _WriteJournal:
    """Local write-behind journal: one JSONL line per spooled record.

    Holds the latest payload per key (order-preserving), mirrored to disk
    so results survive a worker crash while the server is down.  Appends
    are fsynced before the caller is told the write succeeded.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                self._entries[str(entry["key"])] = entry
            except (ValueError, KeyError, TypeError):
                continue  # torn final line of a crashed writer

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entries: Iterable[Dict[str, Any]]) -> None:
        entries = list(entries)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as stream:
            for entry in entries:
                stream.write(json.dumps(entry) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        for entry in entries:
            self._entries[str(entry["key"])] = entry

    def entries(self) -> List[Dict[str, Any]]:
        return list(self._entries.values())

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._entries.get(key)

    def discard(self, key: str) -> None:
        if key in self._entries:
            del self._entries[key]
            self._rewrite()

    def clear(self) -> None:
        self._entries.clear()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def _rewrite(self) -> None:
        if not self._entries:
            self.clear()
            return
        handle, tmp_path = tempfile.mkstemp(
            dir=self.path.parent, prefix=".tmp-", suffix=".jsonl"
        )
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            for entry in self._entries.values():
                stream.write(json.dumps(entry) + "\n")
        os.replace(tmp_path, self.path)


class _NoDelayConnection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle's algorithm disabled.

    Each request goes out as separate header and body sends; with Nagle
    on, the second send waits for the server's delayed ACK (~40ms per
    request on a persistent connection), collapsing small-read
    throughput by three orders of magnitude.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class HttpStore(ResultStore):
    """Client side of ``cache serve``: a remote store behind the registry."""

    backend = "http"
    supports_leases = True

    def __init__(self, location: str) -> None:
        super().__init__()
        host, port, options = _parse_location(location)
        self.host = host
        self.port = port
        self.token = options.get("token")
        self.timeout = float(options.get("timeout", DEFAULT_TIMEOUT))
        self._journal: Optional[_WriteJournal] = None
        if options.get("spool"):
            self._journal = _WriteJournal(Path(options["spool"]))
        self._journal_lock = threading.RLock()
        self._local = threading.local()

    # -- transport -------------------------------------------------------

    def _unreachable(self, error: Exception) -> StoreUnavailableError:
        return StoreUnavailableError(
            f"result-store server http://{self.host}:{self.port} is "
            f"unreachable ({type(error).__name__}: {error}) -- is "
            f"`python -m repro cache serve` running on "
            f"{self.host}:{self.port}?"
        )

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
            self._local.connection = None

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _NoDelayConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        # Connections are persistent (HTTP/1.1 keep-alive, one per
        # thread).  A connection-level failure on a reused socket is
        # retried once on a fresh connection: every endpoint is an
        # idempotent upsert / per-worker-idempotent claim, so a resend
        # is always safe.  Timeouts are not resent -- the request may
        # still be executing server-side, and the caller's RetryingStore
        # owns that budget.
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                status = response.status
                data = response.read()
            except (socket.timeout, TimeoutError) as error:
                self._drop_connection()
                raise self._unreachable(error) from error
            except (OSError, http.client.HTTPException) as error:
                self._drop_connection()
                if attempt == 0:
                    continue
                raise self._unreachable(error) from error
            return self._decode_response(status, data)
        raise AssertionError("unreachable")  # pragma: no cover

    def _decode_response(self, status: int, data: bytes) -> Dict[str, Any]:
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except (ValueError, UnicodeDecodeError):
            decoded = {}
        detail = decoded.get("error") if isinstance(decoded, dict) else None
        if status >= 500:
            raise StoreUnavailableError(
                f"result-store server http://{self.host}:{self.port} "
                f"failed with HTTP {status}: {detail or 'no detail'}"
            )
        if status >= 400:
            raise HttpStoreError(
                f"result-store server http://{self.host}:{self.port} "
                f"rejected the request (HTTP {status}): "
                f"{detail or 'no detail'}"
            )
        return decoded if isinstance(decoded, dict) else {}

    # -- record-level API ------------------------------------------------

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        if self._journal is not None:
            with self._journal_lock:
                spooled = self._journal.get(key)
            if spooled is not None:
                # Read-your-writes for spooled results: the journal holds
                # exactly what the next reconcile will upsert.
                return spooled["payload"]
        return self._request("POST", "/get_record", {"key": key})["payload"]

    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        entry = {
            "key": key,
            "payload": payload,
            "unit": None if unit is None else unit.to_payload(),
        }
        self._write_entries([entry])

    def put_many(self, items: Iterable[Tuple[WorkUnit, UnitResult]]) -> int:
        entries = [
            {
                "key": unit_key(unit),
                "payload": encode_result(unit, result),
                "unit": unit.to_payload(),
            }
            for unit, result in items
        ]
        if entries:
            self._write_entries(entries)
            self.stats.writes += len(entries)
        return len(entries)

    def _write_entries(self, entries: List[Dict[str, Any]]) -> None:
        """Send a write batch, spooling it locally when the server is down."""
        if self._journal is None:
            self._request("POST", "/put_many", {"entries": entries})
            return
        with self._journal_lock:
            try:
                self._flush_journal_locked()
                self._request("POST", "/put_many", {"entries": entries})
            except StoreUnavailableError:
                # Degraded mode: the journal line hits disk before the
                # caller sees success, so the result is never lost; the
                # replay is an upsert, so it is never duplicated.
                self._journal.append(entries)

    def _flush_journal_locked(self) -> int:
        assert self._journal is not None
        entries = self._journal.entries()
        if not entries:
            return 0
        self._request("POST", "/put_many", {"entries": entries})
        self._journal.clear()
        return len(entries)

    def reconcile(self) -> int:
        """Replay the write-behind journal; returns entries flushed.

        Raises :class:`StoreUnavailableError` when the server is still
        unreachable (the journal is kept intact for the next attempt).
        """
        if self._journal is None:
            return 0
        with self._journal_lock:
            return self._flush_journal_locked()

    def spooled(self) -> int:
        """Number of locally spooled (not yet reconciled) records."""
        if self._journal is None:
            return 0
        with self._journal_lock:
            return len(self._journal)

    def delete_record(self, key: str) -> bool:
        if self._journal is not None:
            with self._journal_lock:
                self._journal.discard(key)
        return bool(
            self._request("POST", "/delete_record", {"key": key})["deleted"]
        )

    def records(self) -> Iterator[StoreRecord]:
        for record in self._request("GET", "/records")["records"]:
            yield StoreRecord(key=record["key"], payload=record["payload"])

    def __len__(self) -> int:
        return int(self._request("GET", "/len")["count"])

    def size_bytes(self) -> int:
        return int(self._request("GET", "/size_bytes")["bytes"])

    def clear(self, scheme: Optional[str] = None) -> int:
        if scheme is not None:
            scheme = entry_scheme(scheme)
        return int(self._request("POST", "/clear", {"scheme": scheme})["removed"])

    def scheme_counts(self) -> Dict[str, int]:
        counts = self._request("GET", "/scheme_counts")["counts"]
        return {str(scheme): int(count) for scheme, count in counts.items()}

    # -- lease protocol --------------------------------------------------
    #
    # Only TTL durations cross the wire; the server's clock computes
    # every expiry (see repro.store.server).

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        body = {"key": key, "worker": worker, "ttl": ttl}
        return bool(self._request("POST", "/claim", body)["claimed"])

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        body = {"keys": list(keys), "worker": worker, "ttl": ttl}
        return int(self._request("POST", "/heartbeat", body)["extended"])

    def release(self, key: str, worker: str) -> None:
        self._request("POST", "/release", {"key": key, "worker": worker})

    def leases(self) -> List[Lease]:
        return [
            Lease(
                key=lease["key"],
                worker=lease["worker"],
                expires=float(lease["expires"]),
            )
            for lease in self._request("GET", "/leases")["leases"]
        ]

    # -- lifecycle -------------------------------------------------------

    def location(self) -> str:
        return f"{self.host}:{self.port}"

    def health(self) -> Dict[str, Any]:
        """The server's ``/health`` payload (backend, location, clock)."""
        return self._request("GET", "/health")

    def close(self) -> None:
        if self._journal is not None:
            try:
                self.reconcile()
            except StoreUnavailableError:
                pass  # journal survives on disk for the next open
        self._drop_connection()


__all__ = ["DEFAULT_TIMEOUT", "HttpStore", "HttpStoreError"]
