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

The backend holds results only: it has no work-unit leases, so a fleet
needs a transactional store (``sqlite:``, ``memory:``, or ``http:`` in
front of one of those).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import Counter
from contextlib import suppress
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.resilience.errors import StoreUnavailableError
from repro.runner.units import WorkUnit
from repro.store.base import ResultStore, StoreRecord
from repro.store.codec import dump_entry, entry_scheme

#: Default store root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


class JsonDirStore(ResultStore):
    """File-per-unit result store under a root directory."""

    backend = "json-dir"

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        super().__init__()
        self.root = Path(root or DEFAULT_CACHE_DIR)

    def location(self) -> str:
        return str(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

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
        return removed


__all__ = ["DEFAULT_CACHE_DIR", "JsonDirStore"]
