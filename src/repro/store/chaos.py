"""Deterministic store-fault injection: the ``chaos+<backend>`` wrapper.

``chaos+sqlite:fleet.db?rate=0.3&seed=7`` opens the normal sqlite store
and injects a *seeded schedule* of faults in front of it:

* transient :class:`~repro.resilience.errors.StoreUnavailableError` on
  get/put/delete/claim/heartbeat/release calls,
* torn ``put_many`` batches (half the batch lands, then the error), and
* fixed extra latency per operation (high-latency-store emulation).

The schedule is a pure function of ``(seed, operation, call index)`` via
SHA-256 -- no ``random()`` -- so a fault pattern reproduces exactly
across reruns.  Two deliberate properties make chaos runs *convergent*
despite thread-interleaving nondeterminism in who performs which call:

* **Bounded bursts.**  At most ``burst`` consecutive calls of one
  operation fail; with ``burst <= store_retries`` every retried logical
  operation eventually reaches the backend, so injected faults can slow
  a fleet but never wedge it.
* **Injection before effect** (except the torn batch, whose half-write
  is the point).  A failed call leaves the backend untouched, and the
  retried call is an idempotent upsert / worker-idempotent claim, so
  repeats converge on identical state.

The store registry names it ``chaos+<backend>`` for every backend in
:data:`~repro.store.registry.CHAOS_BACKENDS` -- the ``:``-partitioned
backend name simply contains a ``+`` -- so every ``--store`` / ``cache=``
call site gains fault injection without code changes.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.resilience.errors import StoreUnavailableError
from repro.runner.units import UnitResult, WorkUnit
from repro.store.base import Lease, ResultStore, StoreRecord
from repro.store.codec import encode_result, unit_key
from repro.store.registry import CHAOS_BACKENDS, resolve_store

#: Operations eligible for fault injection.  Read-only inspection calls
#: (``records``, ``info``, ...) stay fault-free: they are test/CLI
#: plumbing, not the protocol under test.
CHAOS_OPS = ("get", "put", "delete", "claim", "heartbeat", "release", "put_many")


def _schedule_fraction(seed: int, op: str, index: int) -> float:
    """Deterministic fraction in ``[0, 1)`` for one (op, call) slot."""
    token = f"chaos:{seed}:{op}:{index}".encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class ChaosConfig:
    """The seeded fault schedule of one chaos store.

    Attributes
    ----------
    seed:
        Schedule seed; same seed, same fault pattern.
    rate:
        Target fraction of eligible calls that fail (0 disables faults,
        leaving only ``latency``).
    latency:
        Extra seconds every eligible call sleeps before running.
    burst:
        Maximum *consecutive* injected failures per operation.  Keep it
        at most the retry layer's ``store_retries`` (default 3) so every
        retried operation converges.
    ops:
        Operations to inject into (``None``: all of :data:`CHAOS_OPS`).
    """

    seed: int = 0
    rate: float = 0.25
    latency: float = 0.0
    burst: int = 2
    ops: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {self.rate!r}")
        if self.burst < 1:
            raise ValueError(f"chaos burst must be >= 1, got {self.burst!r}")
        if self.latency < 0:
            raise ValueError(f"chaos latency must be >= 0, got {self.latency!r}")
        if self.ops is not None:
            unknown = set(self.ops) - set(CHAOS_OPS)
            if unknown:
                raise ValueError(
                    f"unknown chaos ops {sorted(unknown)}; known: {CHAOS_OPS}"
                )

    def eligible(self, op: str) -> bool:
        return self.ops is None or op in self.ops


def parse_chaos_location(location: str) -> Tuple[str, ChaosConfig]:
    """Split ``<inner-location>?<params>`` into location and config.

    Recognised parameters: ``seed``, ``rate``, ``latency``, ``burst``,
    ``ops`` (comma-separated).  Unknown parameters are an error -- a typo
    in a fault schedule must not silently test nothing.
    """
    inner, separator, query = location.rpartition("?")
    if not separator:
        return location, ChaosConfig()
    params = parse_qs(query, keep_blank_values=True)
    kwargs: Dict[str, Any] = {}
    for name, values in params.items():
        value = values[-1]
        if name == "seed":
            kwargs["seed"] = int(value)
        elif name == "rate":
            kwargs["rate"] = float(value)
        elif name == "latency":
            kwargs["latency"] = float(value)
        elif name == "burst":
            kwargs["burst"] = int(value)
        elif name == "ops":
            kwargs["ops"] = tuple(
                op.strip() for op in value.split(",") if op.strip()
            )
        else:
            raise ValueError(
                f"unknown chaos parameter {name!r}; known: seed, rate, "
                f"latency, burst, ops"
            )
    return inner, ChaosConfig(**kwargs)


class ChaosStore(ResultStore):
    """Fault-injecting wrapper around a real result store."""

    def __init__(
        self,
        inner: ResultStore,
        config: Optional[ChaosConfig] = None,
        *,
        uri_text: Optional[str] = None,
    ):
        # No super().__init__(): stats delegates to the wrapped store.
        self.inner = inner
        self.config = config if config is not None else ChaosConfig()
        self._uri_text = uri_text
        self._lock = threading.Lock()
        #: Eligible calls seen, per operation.
        self.calls: Counter = Counter()
        #: Faults actually injected, per operation.
        self.injected: Counter = Counter()
        self._consecutive: Counter = Counter()

    # -- identity --------------------------------------------------------

    @property
    def backend(self) -> str:  # type: ignore[override]
        return f"chaos+{self.inner.backend}"

    @property
    def supports_leases(self) -> bool:  # type: ignore[override]
        return self.inner.supports_leases

    @property
    def stats(self):  # type: ignore[override]
        return self.inner.stats

    def location(self) -> str:
        return self.inner.location()

    def uri(self) -> str:
        if self._uri_text is not None:
            return self._uri_text
        return f"chaos+{self.inner.uri()}"

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # -- the schedule ----------------------------------------------------

    def _inject(self, op: str) -> None:
        """Sleep the configured latency, then maybe raise the op's fault."""
        config = self.config
        if not config.eligible(op):
            return
        if config.latency:
            time.sleep(config.latency)
        with self._lock:
            index = self.calls[op]
            self.calls[op] += 1
            fire = (
                config.rate > 0.0
                and _schedule_fraction(config.seed, op, index) < config.rate
                and self._consecutive[op] < config.burst
            )
            if fire:
                self._consecutive[op] += 1
                self.injected[op] += 1
            else:
                self._consecutive[op] = 0
        if fire:
            raise StoreUnavailableError(
                f"chaos: injected fault on {op} (call {index}, seed "
                f"{config.seed})"
            )

    # -- guarded record-level API ----------------------------------------

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        self._inject("get")
        return self.inner.get_record(key)

    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        self._inject("put")
        self.inner.put_record(key, payload, unit=unit)

    def delete_record(self, key: str) -> bool:
        self._inject("delete")
        return self.inner.delete_record(key)

    def put_many(self, items: Iterable[Tuple[WorkUnit, UnitResult]]) -> int:
        batch = list(items)
        try:
            self._inject("put_many")
        except StoreUnavailableError:
            # Torn batch: half the writes land, then the failure -- the
            # worst case for a batched upsert.  A full-batch retry
            # converges because every write is an idempotent upsert.  The
            # torn half goes in as raw records: the write counter counts
            # the retry that completes the batch, not the half that tore.
            for unit, result in batch[: len(batch) // 2]:
                self.inner.put_record(
                    unit_key(unit), encode_result(unit, result), unit=unit
                )
            raise
        return self.inner.put_many(batch)

    # -- guarded lease protocol ------------------------------------------

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        self._inject("claim")
        return self.inner.claim(key, worker, ttl)

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        self._inject("heartbeat")
        return self.inner.heartbeat(keys, worker, ttl)

    def release(self, key: str, worker: str) -> None:
        self._inject("release")
        self.inner.release(key, worker)

    # -- fault-free inspection / lifecycle -------------------------------

    def records(self) -> Iterator[StoreRecord]:
        return self.inner.records()

    def __len__(self) -> int:
        return len(self.inner)

    def size_bytes(self) -> int:
        return self.inner.size_bytes()

    def scheme_counts(self) -> Dict[str, int]:
        return self.inner.scheme_counts()

    def clear(self, scheme: Optional[str] = None) -> int:
        return self.inner.clear(scheme)

    def leases(self) -> List[Lease]:
        return self.inner.leases()

    def close(self) -> None:
        self.inner.close()


def open_chaos(inner_name: str, location: str) -> ChaosStore:
    """Open ``chaos+<inner_name>:<location>``: the inner store, faults in front."""
    inner_location, config = parse_chaos_location(location)
    inner = resolve_store(f"{inner_name}:{inner_location}")
    return ChaosStore(inner, config, uri_text=f"chaos+{inner_name}:{location}")


__all__ = [
    "CHAOS_BACKENDS",
    "CHAOS_OPS",
    "ChaosConfig",
    "ChaosStore",
    "open_chaos",
    "parse_chaos_location",
]
