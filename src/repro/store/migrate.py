"""Copy entries between result-store backends, verifying round-trips.

``python -m repro cache migrate json-dir:.repro_cache sqlite:results.db``
moves a legacy cache directory into the single-file store (and back, for
users who want to return to the file layout).  Keys are *not* re-derived:
the canonical unit key is backend-independent, so migration is a raw
record copy -- results simulated before the store existed keep satisfying
lookups afterwards.

Every copied record is verified by default: the destination is read back
and must return the source payload exactly (same keys, same float reprs),
and both sides must decode to the same :class:`UnitResult` under the
current schema.  A mismatch aborts the migration with
:class:`StoreMigrationError` rather than silently corrupting the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.store.base import ResultStore
from repro.store.codec import decode_payload, entry_scheme


class StoreMigrationError(RuntimeError):
    """A migrated record failed its read-back verification."""


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one migration run."""

    copied: int
    skipped: int
    verified: bool

    def summary(self) -> str:
        checked = "verified" if self.verified else "unverified"
        skipped = f", {self.skipped} skipped" if self.skipped else ""
        return f"{self.copied} entries copied ({checked}){skipped}"


def migrate_store(
    source: ResultStore,
    destination: ResultStore,
    *,
    scheme: Optional[str] = None,
    verify: bool = True,
) -> MigrationReport:
    """Copy every entry of ``source`` into ``destination``.

    Parameters
    ----------
    scheme:
        Copy only entries of one seed scheme (``None``: everything): a
        name, a token or ``"pre-seeds"``, resolved by
        :func:`~repro.store.codec.entry_scheme` (anything else raises
        ``ValueError``).
    verify:
        Read each record back from the destination and require an exact
        payload round-trip plus schema-level decode agreement.
    """
    if scheme is not None:
        scheme = entry_scheme(scheme)
    copied = 0
    skipped = 0
    for record in source.records():
        if scheme is not None:
            if (record.payload.get("seed_scheme") or "pre-seeds") != scheme:
                skipped += 1
                continue
        destination.put_record(record.key, record.payload)
        if verify:
            returned = destination.get_record(record.key)
            if returned != record.payload:
                raise StoreMigrationError(
                    f"payload round-trip mismatch for key {record.key}: "
                    f"{destination.backend!r} returned a different record "
                    f"than {source.backend!r} provided"
                )
            if decode_payload(returned) != decode_payload(record.payload):
                raise StoreMigrationError(
                    f"schema decode mismatch for key {record.key} after "
                    f"migration to {destination.backend!r}"
                )
        copied += 1
    return MigrationReport(copied=copied, skipped=skipped, verified=verify)


__all__ = ["MigrationReport", "StoreMigrationError", "migrate_store"]
