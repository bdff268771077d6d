"""Pluggable result-store backends behind one :class:`ResultStore` contract.

The store is the durable ledger of what has already been simulated: every
executed work unit is one entry, keyed by a canonical backend-independent
hash of the unit's self-describing fields (:mod:`repro.store.codec`).
Four backends ship behind the registry (:mod:`repro.store.registry`),
each imported only when a store URI names it:

* ``json-dir`` (:mod:`repro.store.json_dir`) -- one JSON file per unit
  under ``.repro_cache/``, byte-compatible with the pre-store cache
  layout; the default.
* ``sqlite`` (:mod:`repro.store.sqlite`) -- a single-file WAL-mode
  database that holds millions of cells with indexed config/scheme
  lookups, batched upserts, and a provenance table recording the config
  snapshot, scheme token, code version and exact re-run command per unit.
* ``memory`` (:mod:`repro.store.memory`) -- process-local, for tests.
* ``http`` (:mod:`repro.store.http`) -- a remote store behind a
  ``python -m repro cache serve`` server (:mod:`repro.store.server`),
  with server-clock lease arbitration and an opt-in write-behind spool
  for multi-host fleets.

Every backend can also be opened behind ``chaos+<backend>``
(:mod:`repro.store.chaos`), the seeded fault-injecting wrapper.

The transactional backends (sqlite, memory, and http in front of either)
also implement the **work-unit lease protocol** (atomic TTL claims,
heartbeats, expiry takeover) that :mod:`repro.runner.fleet` builds
cooperative fleet execution on: N independent processes share one store,
split one grid with no coordinator, and tolerate worker crashes because
completed units are idempotent upserts.  json-dir holds results only.

:mod:`repro.store.migrate` copies entries between backends with read-back
verification, so existing ``.repro_cache/`` directories are never
orphaned by switching backends.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": "Lease LeaseUnsupportedError ResultStore StoreInfo StoreRecord StoreStats",
    "chaos": "ChaosConfig ChaosStore",
    "codec": (
        "CACHE_FORMAT_VERSION RESULT_SCHEMA config_token decode_payload "
        "encode_result entry_scheme unit_key"
    ),
    "http": "DEFAULT_TIMEOUT HttpStore HttpStoreError",
    "json_dir": "DEFAULT_CACHE_DIR JsonDirStore",
    "memory": "MemoryStore shared_memory_store",
    "migrate": "MigrationReport StoreMigrationError migrate_store",
    "registry": (
        "DEFAULT_HOST DEFAULT_PORT StoreSpec available_backends "
        "register_backend resolve_store"
    ),
    "server": "StoreServer",
    "sqlite": "DEFAULT_BUSY_TIMEOUT SqliteStore",
})

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ChaosConfig",
    "ChaosStore",
    "DEFAULT_BUSY_TIMEOUT",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_TIMEOUT",
    "HttpStore",
    "HttpStoreError",
    "Lease",
    "LeaseUnsupportedError",
    "MemoryStore",
    "MigrationReport",
    "RESULT_SCHEMA",
    "ResultStore",
    "SqliteStore",
    "JsonDirStore",
    "StoreInfo",
    "StoreMigrationError",
    "StoreRecord",
    "StoreServer",
    "StoreSpec",
    "StoreStats",
    "available_backends",
    "config_token",
    "decode_payload",
    "encode_result",
    "entry_scheme",
    "migrate_store",
    "register_backend",
    "resolve_store",
    "shared_memory_store",
    "unit_key",
]
