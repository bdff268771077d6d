"""The ``cache serve`` front end: any store, served over HTTP.

``python -m repro cache serve sqlite:results.db --host 0.0.0.0 --port 8737``
starts a :class:`StoreServer` -- a threaded stdlib HTTP server that fronts
one *inner* :class:`~repro.store.base.ResultStore` (typically ``sqlite:``)
and exposes the full record/lease/quarantine surface as JSON endpoints.
Remote workers talk to it through the ``http:HOST:PORT`` client backend
(:mod:`repro.store.http`), which is a drop-in store behind the usual
registry, so ``--store http:...`` composes with fleets, failure policies
and ``chaos+`` wrappers unchanged.

Why a server at all: the sqlite lease path assumes every worker shares
one wall clock and one filesystem.  Behind this server, the inner
store instance lives in the server process, and **all** lease expiry
arithmetic runs through the inner store's
:meth:`~repro.store.base.ResultStore._now` -- i.e. the server's clock.
Clients only ever send TTL *durations*, never absolute timestamps, so a
worker with a skewed clock cannot cause a premature lease takeover.

Protocol (all bodies JSON; HTTP/1.1 keep-alive):

====================  ======  ===============================================
``/health``           GET     ``{"ok", "backend", "location", "clock"}``
``/records``          GET     every raw entry (migration / quarantine scans)
``/len``              GET     entry count
``/size_bytes``       GET     persistent size of the inner store
``/scheme_counts``    GET     per-seed-scheme entry counts
``/leases``           GET     every recorded lease (server-clock expiries)
``/get_record``       POST    ``{"key"}`` -> ``{"payload": ... | null}``
``/put_record``       POST    ``{"key", "payload", "unit": ... | null}``
``/put_many``         POST    ``{"entries": [...]}`` -> ``{"written"}``
``/delete_record``    POST    ``{"key"}`` -> ``{"deleted"}``
``/clear``            POST    ``{"scheme": ... | null}`` -> ``{"removed"}``
``/claim``            POST    ``{"key", "worker", "ttl"}`` -> ``{"claimed"}``
``/heartbeat``        POST    ``{"keys", "worker", "ttl"}`` -> ``{"extended"}``
``/release``          POST    ``{"key", "worker"}``
====================  ======  ===============================================

Writes carry the executing unit's payload when one exists, so the server
reconstructs the :class:`~repro.runner.units.WorkUnit` and the inner
store's provenance table stays exact across the network hop.

Failure mapping: a transient inner-store error surfaces as **503**, any
other server-side exception as **500** -- both of which the client maps
back to :class:`~repro.resilience.errors.StoreUnavailableError` so
``RetryingStore`` budgets apply end to end.  A malformed request, and a
lease call on an inner store without leases (json-dir serves results
only: :class:`~repro.store.base.LeaseUnsupportedError` is a
``ValueError``), is **400**; authentication (``--token``) failures are
**401**.  Both are permanent client errors, so a fleet pointed at a
json-dir server fails on its first claim instead of backing off.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.resilience.errors import StoreUnavailableError
from repro.runner.units import WorkUnit
from repro.store.base import ResultStore
from repro.store.codec import decode_payload, unit_key
from repro.store.registry import DEFAULT_HOST, DEFAULT_PORT

LOGGER = logging.getLogger("repro.store.server")


class _StoreHTTPServer(ThreadingHTTPServer):
    """Thread-per-connection server carrying the shared inner store.

    Open client connections are tracked so :meth:`close_connections` can
    sever keep-alive sockets on shutdown -- making an in-process shutdown
    indistinguishable from a killed server process, which is what the
    crash-recovery tests simulate.
    """

    daemon_threads = True
    allow_reuse_address = True

    store: ResultStore
    token: Optional[str]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._open_sockets: set = set()
        self._sockets_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._sockets_lock:
            self._open_sockets.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._sockets_lock:
            self._open_sockets.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._sockets_lock:
            sockets = list(self._open_sockets)
            self._open_sockets.clear()
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-store"
    protocol_version = "HTTP/1.1"
    # Responses are written as several small sends (status line, headers,
    # body); with Nagle on, each waits on the client's delayed ACK and a
    # keep-alive connection stalls ~40ms per request.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        LOGGER.debug("%s %s", self.address_string(), format % args)

    def _send(self, status: int, body: Dict[str, Any]) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _authorized(self) -> bool:
        token = self.server.token  # type: ignore[attr-defined]
        if token is None:
            return True
        supplied = self.headers.get("Authorization", "")
        return supplied == f"Bearer {token}"

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        body = json.loads(raw.decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        # The body is drained before any early response, so keep-alive
        # framing survives 400/401/404 answers.
        try:
            body = self._read_body() if method == "POST" else {}
        except (ValueError, UnicodeDecodeError) as error:
            self._send(400, {"error": f"malformed request body: {error}"})
            return
        if not self._authorized():
            self._send(401, {"error": "missing or invalid bearer token"})
            return
        store: ResultStore = self.server.store  # type: ignore[attr-defined]
        route = _ROUTES.get((method, self.path))
        if route is None:
            self._send(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        try:
            result = route(store, body)
        except StoreUnavailableError as error:
            self._send(503, {"error": str(error), "transient": True})
        # LeaseUnsupportedError is a ValueError: permanent, so 400, not 500.
        except (KeyError, TypeError, ValueError) as error:
            self._send(400, {"error": f"{type(error).__name__}: {error}"})
        except Exception as error:  # noqa: BLE001 -- the server must not die
            LOGGER.exception("unhandled store error on %s", self.path)
            self._send(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._send(200, result)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


# -- endpoint implementations (module-level so they are testable) --------


def _decode_entry(
    entry: Dict[str, Any],
) -> Tuple[str, Dict[str, Any], Optional[WorkUnit]]:
    key = str(entry["key"])
    payload = entry["payload"]
    if not isinstance(payload, dict):
        raise ValueError(f"entry payload for {key!r} must be a JSON object")
    unit_payload = entry.get("unit")
    unit = None
    if unit_payload is not None:
        unit = WorkUnit.from_payload(unit_payload)
    return key, payload, unit


def _ep_health(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "ok": True,
        "backend": store.backend,
        "location": store.location(),
        "leases": store.supports_leases,
        "clock": store._now(),
    }


def _ep_get_record(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {"payload": store.get_record(str(body["key"]))}


def _ep_put_record(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    key, payload, unit = _decode_entry(body)
    store.put_record(key, payload, unit=unit)
    return {"written": 1}


def _ep_put_many(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    entries = body["entries"]
    if not isinstance(entries, list):
        raise ValueError("put_many entries must be a list")
    # Result payloads whose unit travelled with them take the inner
    # store's batched (single-transaction) path and keep provenance
    # exact; anything else -- migrated records, quarantine entries --
    # falls back to a record-level upsert.
    batch = []
    for entry in entries:
        key, payload, unit = _decode_entry(entry)
        result = None if unit is None else decode_payload(payload)
        if unit is not None and result is not None and unit_key(unit) == key:
            batch.append((unit, result))
        else:
            store.put_record(key, payload, unit=unit)
    if batch:
        store.put_many(batch)
    return {"written": len(entries)}


def _ep_delete_record(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {"deleted": store.delete_record(str(body["key"]))}


def _ep_records(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "records": [
            {"key": record.key, "payload": record.payload}
            for record in store.records()
        ]
    }


def _ep_len(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {"count": len(store)}


def _ep_size_bytes(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {"bytes": store.size_bytes()}


def _ep_scheme_counts(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {"counts": store.scheme_counts()}


def _ep_clear(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    scheme = body.get("scheme")
    return {"removed": store.clear(None if scheme is None else str(scheme))}


def _ep_claim(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    # ``ttl`` is a duration: expiry is ``store._now() + ttl`` evaluated
    # here, in the server process.  The wire protocol deliberately has
    # no field for an absolute expiry time.
    claimed = store.claim(
        str(body["key"]), str(body["worker"]), float(body["ttl"])
    )
    return {"claimed": bool(claimed)}


def _ep_heartbeat(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    keys = [str(key) for key in body["keys"]]
    extended = store.heartbeat(keys, str(body["worker"]), float(body["ttl"]))
    return {"extended": int(extended)}


def _ep_release(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    store.release(str(body["key"]), str(body["worker"]))
    return {"released": True}


def _ep_leases(store: ResultStore, body: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "leases": [
            {"key": lease.key, "worker": lease.worker, "expires": lease.expires}
            for lease in store.leases()
        ]
    }


_ROUTES = {
    ("GET", "/health"): _ep_health,
    ("GET", "/records"): _ep_records,
    ("GET", "/len"): _ep_len,
    ("GET", "/size_bytes"): _ep_size_bytes,
    ("GET", "/scheme_counts"): _ep_scheme_counts,
    ("GET", "/leases"): _ep_leases,
    ("POST", "/get_record"): _ep_get_record,
    ("POST", "/put_record"): _ep_put_record,
    ("POST", "/put_many"): _ep_put_many,
    ("POST", "/delete_record"): _ep_delete_record,
    ("POST", "/clear"): _ep_clear,
    ("POST", "/claim"): _ep_claim,
    ("POST", "/heartbeat"): _ep_heartbeat,
    ("POST", "/release"): _ep_release,
}


class StoreServer:
    """One inner store served over HTTP to many remote workers.

    The inner store must be safe to call from multiple threads -- all
    bundled backends are (sqlite uses one locked connection, json-dir
    atomic filesystem ops, memory an ``RLock``).  ``port=0`` binds an
    ephemeral port; the bound address is on :attr:`host` / :attr:`port`.
    """

    def __init__(
        self,
        store: ResultStore,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        token: Optional[str] = None,
    ) -> None:
        self.store = store
        self._httpd = _StoreHTTPServer((host, port), _Handler)
        self._httpd.store = store
        self._httpd.token = token
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def store_uri(self) -> str:
        """The ``--store`` URI workers use to reach this server."""
        return f"http:{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False

    def start(self) -> "StoreServer":
        """Serve on a daemon thread (tests, benchmarks, embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-store-server", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving and close the listening socket.

        The inner store is *not* closed: the caller owns it (a restart
        re-serves the same store, which is what crash-recovery tests do).
        """
        if self._serving:
            # BaseServer.shutdown() deadlocks unless serve_forever ran.
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StoreServer":
        if self._thread is None and not self._serving:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "StoreServer"]
