"""Backend registry and store-URI resolution.

A store is named by a URI of the form ``<backend>:<location>``:

* ``json-dir:.repro_cache`` -- the default file-per-unit layout;
  ``json-dir:`` alone opens the default ``.repro_cache`` directory.
* ``sqlite:results.db`` -- the single-file WAL-mode database.
* ``memory:`` -- a fresh in-memory store; ``memory:NAME`` a process-wide
  shared one (tests).
* ``http:HOST:PORT`` -- a remote store behind a ``python -m repro cache
  serve`` server (multi-host fleets); supports
  ``?token=...&spool=PATH&timeout=S`` options.
* ``chaos+<backend>:...`` -- any of the above behind the seeded
  fault-injecting wrapper of :mod:`repro.store.chaos`.

Anything that does not start with a registered backend name is treated as
a plain directory path and opened with the json-dir backend -- exactly
what every pre-store ``cache="some/dir"`` call meant, so existing call
sites keep working unchanged.  The built-in backends are ``"module:attr"``
entries imported on first use, so opening a json-dir store never loads
``sqlite3`` or ``http.client``.  Third-party backends register a factory
with :func:`register_backend` (an HTTP/object-store backend slots in here
without touching the engine).
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro._lazy import load_entry
from repro.store.base import ResultStore

#: Default ``cache serve`` bind address: loopback only -- serving a fleet
#: means opting into ``--host 0.0.0.0`` (ideally with ``--token``).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8737

#: Inner backends the registry wires a ``chaos+`` prefix for.
CHAOS_BACKENDS = ("json-dir", "sqlite", "memory", "http")

#: What ``cache=`` / ``store=`` knobs accept: a ready store, a store URI
#: or bare directory path, or ``None`` (caching disabled).
StoreSpec = Union[ResultStore, str, Path, None]


def _open_chaos(inner_name: str, location: str) -> ResultStore:
    from repro.store.chaos import open_chaos

    return open_chaos(inner_name, location)


#: Backend factories, keyed by URI prefix; each receives the location part.
_BACKENDS: Dict[str, Union[str, Callable[[str], ResultStore]]] = {
    "json-dir": "repro.store.json_dir:JsonDirStore",
    "sqlite": "repro.store.sqlite:SqliteStore",
    "memory": "repro.store.memory:shared_memory_store",
    "http": "repro.store.http:HttpStore",
    **{f"chaos+{name}": partial(_open_chaos, name) for name in CHAOS_BACKENDS},
}


def register_backend(name: str, factory: Callable[[str], ResultStore]) -> None:
    """Register a backend factory under a URI prefix.

    ``factory(location)`` receives the text after ``<name>:`` and returns
    an open :class:`ResultStore`.
    """
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def resolve_store(spec: StoreSpec) -> Optional[ResultStore]:
    """Open the store a ``cache=`` / ``--store`` spec describes.

    ``None`` and ready :class:`ResultStore` instances pass through; a
    string is parsed as ``<backend>:<location>`` when the prefix names a
    registered backend, and as a json-dir directory path otherwise (the
    historical ``cache="dir"`` behaviour).
    """
    if spec is None or isinstance(spec, ResultStore):
        return spec
    text = str(spec)
    name, separator, location = text.partition(":")
    if not (separator and name in _BACKENDS):
        name, location = "json-dir", text
    return load_entry(_BACKENDS, name)(location)


__all__ = [
    "CHAOS_BACKENDS",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "StoreSpec",
    "available_backends",
    "register_backend",
    "resolve_store",
]
