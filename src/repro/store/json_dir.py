"""File-per-unit result store: today's ``.repro_cache/`` layout.

This is the default backend and it is **byte-compatible** with the layout
the pre-store ``ResultCache`` wrote: one JSON file
per unit under ``<root>/<2-hex>/<sha256>.json``, written through a
temporary file plus ``os.replace`` so a crashed or killed run never leaves
a truncated entry behind.  Existing cache directories keep working
unchanged, and entries this backend writes are bit-identical to what the
old cache would have written.

Entries are sharded into 256 subdirectories by the first two hex digits
of the key to keep directory listings small at paper scale (a 14 x 14
grid times six configurations is ~1200 cells per figure).  At millions of
cells the one-file-per-unit layout runs into inode and directory-scan
limits -- that is what the :mod:`sqlite <repro.store.sqlite>` backend is
for; ``python -m repro cache migrate`` moves entries between them.

Leases live under ``<root>/leases/`` as one small JSON file per held
unit, hard-linked in whole so exactly one worker of a fleet wins a claim
race even on a shared filesystem.  Each lease carries a random nonce.
Takeover of an expired lease is a compare-and-swap: the taker first
links a token ``<key>.takeover.<nonce of the stale lease>``, which only
one racer can create, and only then replaces the stale file.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import tempfile
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.resilience.errors import StoreUnavailableError
from repro.runner.units import WorkUnit
from repro.store.base import Lease, ResultStore, StoreRecord
from repro.store.codec import dump_entry, entry_scheme

#: Default store root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Subdirectory of the root holding the lease files.
LEASE_DIR = "leases"


@dataclass(frozen=True)
class _FileLease(Lease):
    """A lease as its file holds it: with the nonce naming its takeover token."""

    nonce: str = ""


class JsonDirStore(ResultStore):
    """File-per-unit result store under a root directory."""

    backend = "json-dir"
    supports_leases = True

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        super().__init__()
        self.root = Path(root or DEFAULT_CACHE_DIR)

    def location(self) -> str:
        return str(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / LEASE_DIR / f"{key}.lease"

    # -- records ---------------------------------------------------------

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            payload = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # A missing, truncated or hand-edited entry is a miss: the
            # caller re-simulates one cell instead of aborting the sweep.
            return None
        return payload if isinstance(payload, dict) else None

    def put_record(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        unit: Optional[WorkUnit] = None,
    ) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_path = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
        except OSError as error:
            # A directory that cannot be created or written is transient
            # from the sweep's point of view (full disk, flaky network
            # filesystem): let the retry layer have a go before the
            # failure surfaces.
            raise StoreUnavailableError(
                f"json-dir store {self.root} is not writable: {error}"
            ) from error
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(dump_entry(payload))
            os.replace(tmp_path, path)
        except BaseException as error:
            with suppress(OSError):
                os.unlink(tmp_path)
            if isinstance(error, OSError):
                raise StoreUnavailableError(
                    f"json-dir store {self.root} write failed: {error}"
                ) from error
            raise

    def delete_record(self, key: str) -> bool:
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def records(self) -> Iterator[StoreRecord]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                yield StoreRecord(key=path.stem, payload=payload)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def size_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(path.stat().st_size for path in self.root.glob("??/*.json"))

    #: ``put`` writes ``schema`` and ``seed_scheme`` first, so the scheme
    #: always sits inside the first few dozen bytes of an entry.
    _SCHEME_FIELD = re.compile(r'"seed_scheme"\s*:\s*"([^"]*)"')

    def _entry_scheme(self, path: Path) -> str:
        """Seed scheme of one entry, read from a short prefix of the file."""
        try:
            with open(path, encoding="utf-8", errors="replace") as stream:
                head = stream.read(512)
        except OSError:
            head = ""
        match = self._SCHEME_FIELD.search(head)
        return match.group(1) if match else "pre-seeds"

    def scheme_counts(self) -> Dict[str, int]:
        """Entry counts per seed scheme, from one directory scan.

        Reads only a short prefix of each entry (the scheme is one of the
        first fields written), so the breakdown stays cheap even for
        paper-scale stores whose per-run ratio lists dominate the bytes.
        Entries written before the scheme field existed (or unreadable
        ones) are reported under ``"pre-seeds"``.
        """
        counts: Counter = Counter()
        if not self.root.is_dir():
            return {}
        for path in self.root.glob("??/*.json"):
            counts[self._entry_scheme(path)] += 1
        return dict(sorted(counts.items()))

    def clear(self, scheme: Optional[str] = None) -> int:
        """Delete entries (all, or one scheme's); returns the count removed."""
        if scheme is not None:
            scheme = entry_scheme(scheme)
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("??/*.json"):
            if scheme is not None and self._entry_scheme(path) != scheme:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.root.glob("??"):
            with suppress(OSError):  # non-empty (entries of other schemes remain)
                shard.rmdir()
        if scheme is None:
            for pattern in ("*.lease", "*.takeover.*"):
                for lease in self.root.glob(f"{LEASE_DIR}/{pattern}"):
                    with suppress(OSError):
                        lease.unlink()
            with suppress(OSError):
                (self.root / LEASE_DIR).rmdir()
        return removed

    # -- leases ----------------------------------------------------------

    def _lease_file(self, path: Path, worker: str, ttl: float) -> str:
        """A finished temp file beside ``path`` holding a lease with a fresh nonce."""
        handle, tmp_path = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        # ``_now()``: workers sharing a json-dir lease directory must share
        # one wall clock (same host, or NTP-synced hosts on a shared FS).
        lease = {"worker": worker, "expires": self._now() + ttl}
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump({**lease, "nonce": secrets.token_hex(8)}, stream)
        return tmp_path

    def _write_lease(
        self, path: Path, worker: str, ttl: float, token: Optional[Path] = None
    ) -> bool:
        """Link a finished lease file to ``path`` (a racer never reads it
        half-written); with a takeover ``token``, link that first and
        replace the stale lease.  False when a racer got there first."""
        tmp_path = self._lease_file(path, worker, ttl)
        try:
            if token is None:
                os.link(tmp_path, path)
            else:
                os.link(tmp_path, token)
                os.replace(tmp_path, path)
            return True
        except OSError:  # FileExistsError: the lease (or the takeover) is held
            return False
        finally:
            with suppress(FileNotFoundError):
                os.unlink(tmp_path)

    def _read_lease(self, path: Path) -> Optional[_FileLease]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return _FileLease(
                key=path.stem,
                worker=str(payload["worker"]),
                expires=float(payload["expires"]),
                nonce=str(payload.get("nonce", "")),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _drop_lease(self, key: str, path: Path) -> None:
        """Remove a held lease and the takeover tokens of its key."""
        for stale in [path, *path.parent.glob(f"{key}.takeover.*")]:
            with suppress(OSError):
                os.unlink(stale)

    def claim(self, key: str, worker: str, ttl: float) -> bool:
        if self.get_record(key) is not None:
            return False  # already done: results are never re-leased
        path = self._lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if self._write_lease(path, worker, ttl):
            return self._still_open(key, path)
        lease = self._read_lease(path)
        if lease is not None and not lease.expired(self._now()):
            # Re-claiming a lease this worker already holds succeeds
            # (and refreshes it): claims are idempotent per worker, so
            # a claim whose acknowledgement was lost to a transient
            # store error can simply be retried.
            if lease.worker == worker:
                self.heartbeat([key], worker, ttl)
                return True
            return False
        # Expired (or unreadable): take it over.  Of the racers that read
        # this stale lease, only the one that links its token replaces it.
        token = path.with_name(f"{key}.takeover.{lease.nonce if lease else ''}")
        return self._write_lease(path, worker, ttl, token) and self._still_open(key, path)

    def _still_open(self, key: str, path: Path) -> bool:
        # A peer puts before it releases: one done since claim() looked shows here.
        if self.get_record(key) is None:
            return True
        self._drop_lease(key, path)
        return False

    def heartbeat(self, keys: Iterable[str], worker: str, ttl: float) -> int:
        extended = 0
        for key in keys:
            path = self._lease_path(key)
            lease = self._read_lease(path)
            if lease is None or lease.worker != worker:
                continue  # lost (expired and taken over): do not refresh
            tmp_path = self._lease_file(path, worker, ttl)
            try:
                os.replace(tmp_path, path)
                extended += 1
            except OSError:
                with suppress(OSError):
                    os.unlink(tmp_path)
        return extended

    def release(self, key: str, worker: str) -> None:
        path = self._lease_path(key)
        lease = self._read_lease(path)
        if lease is not None and lease.worker == worker:
            self._drop_lease(key, path)

    def leases(self) -> List[Lease]:
        lease_dir = self.root / LEASE_DIR
        if not lease_dir.is_dir():
            return []
        found = []
        for path in sorted(lease_dir.glob("*.lease")):
            lease = self._read_lease(path)
            if lease is not None:
                found.append(lease)
        return found


__all__ = ["DEFAULT_CACHE_DIR", "JsonDirStore"]
