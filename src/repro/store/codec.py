"""Canonical unit keys, entry payloads and provenance records.

Every result-store backend speaks the same wire format, defined here:

* :func:`unit_key` -- the SHA-256 cache key of one work unit, hashed over
  the canonical description of the unit (config token, channel point, run
  range, seed derivation, format version).  The key is backend-independent,
  so entries migrate between backends without rekeying and a fleet of
  workers sharing a store agree on unit identity by construction.
* :func:`encode_result` / :func:`decode_payload` -- the JSON entry payload.
  The encoder emits fields in the exact order the historical
  ``.repro_cache/`` files used (``schema`` and ``seed_scheme`` first), so
  the ``json-dir`` backend stays byte-identical to the pre-store layout
  and cheap prefix scans (scheme breakdowns) keep working.
* :func:`unit_provenance` -- the self-contained provenance record the
  ``sqlite`` backend stores per unit: full config snapshot, scheme token,
  code version and the exact command that re-executes the unit from
  nothing (the pycomex-style "archive" contract).

JSON serialises floats via ``repr`` (shortest round-trip form), so ratios
reloaded from any backend are bit-identical to freshly computed ones.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.core.config import SimulationConfig
from repro.runner.units import UnitResult, WorkUnit
from repro.seeds import get_scheme

#: Key-derivation version: bump when the canonical unit description (the
#: hashed fields) changes shape.  Version 2 added the seed-scheme token.
CACHE_FORMAT_VERSION = 2

#: Entry payload schema: bump when the stored payload changes shape.
#: Schema 2 added the ``schema`` and ``seed_scheme`` fields; entries with
#: any other schema (including pre-schema ones) are treated as misses, not
#: errors, so stale stores degrade to re-simulation.
RESULT_SCHEMA = 2


def config_token(config: SimulationConfig) -> str:
    """Canonical JSON token of the result-defining fields of a config.

    The display ``label`` is excluded: relabelling a configuration must not
    invalidate its cached results.
    """
    payload = {
        "code": config.code,
        "tx_model": config.tx_model,
        "k": config.k,
        "expansion_ratio": config.expansion_ratio,
        "nsent": config.nsent,
        "code_options": config.code_options,
        "tx_options": config.tx_options,
    }
    return json.dumps(payload, sort_keys=True, default=repr)


def unit_key(unit: WorkUnit) -> str:
    """Stable SHA-256 store key of one work unit.

    The seed-scheme *token* (name + stream-format version) is part of the
    key: schemes draw different streams, so results of one scheme must
    never satisfy a lookup under another -- unlike ``kernel`` /
    ``kernel_threads``, which are bit-identical wall-clock knobs and stay
    excluded.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "config": config_token(unit.config),
        "p": unit.p,
        "q": unit.q,
        "seed_path": list(unit.seed_path),
        "run_start": unit.run_start,
        "run_stop": unit.run_stop,
        "base_seed": unit.base_seed,
        "fresh_code_per_run": unit.fresh_code_per_run,
        "code_seed_path": None
        if unit.code_seed_path is None
        else list(unit.code_seed_path),
        "seed_scheme": get_scheme(unit.seed_scheme).token(),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest


def encode_result(unit: WorkUnit, result: UnitResult) -> Dict[str, Any]:
    """Entry payload of one executed unit, in the canonical field order.

    ``schema`` and ``seed_scheme`` come first so backends that scan entry
    prefixes (the json-dir scheme breakdown) find them in the first few
    dozen bytes -- the exact layout the historical cache files used.
    """
    return {
        "schema": RESULT_SCHEMA,
        "seed_scheme": unit.seed_scheme,
        "seed_path": list(result.seed_path),
        "run_start": result.run_start,
        "run_stop": result.run_stop,
        "inefficiency_ratios": list(result.inefficiency_ratios),
        "received_ratios": list(result.received_ratios),
        "failures": result.failures,
    }


def decode_payload(payload: Dict[str, Any]) -> Optional[UnitResult]:
    """Rebuild a :class:`UnitResult` from an entry payload.

    Returns ``None`` for payloads of a different schema generation or with
    missing/malformed fields: a store entry that cannot be decoded is a
    miss, never an error -- re-simulating one cell beats aborting a sweep.
    """
    try:
        if int(payload.get("schema", 1)) != RESULT_SCHEMA:
            return None
        return UnitResult(
            seed_path=tuple(payload["seed_path"]),
            run_start=int(payload["run_start"]),
            run_stop=int(payload["run_stop"]),
            inefficiency_ratios=tuple(payload["inefficiency_ratios"]),
            received_ratios=tuple(payload["received_ratios"]),
            failures=int(payload["failures"]),
        )
    except (ValueError, KeyError, TypeError):
        return None


def dump_entry(payload: Dict[str, Any]) -> str:
    """Serialise an entry payload exactly as the json-dir files store it."""
    return json.dumps(payload)


def rerun_command(unit: WorkUnit) -> str:
    """The exact shell command that re-executes one unit from nothing.

    ``python -m repro rerun-unit '<unit-json>'`` rebuilds the unit from its
    self-describing payload (config snapshot, channel point, run range,
    seed scheme), executes it, and prints the result payload -- so a store
    entry's provenance record is sufficient to reproduce the entry on any
    machine with the same code version.
    """
    return f"python -m repro rerun-unit '{json.dumps(unit.to_payload())}'"


def unit_provenance(unit: WorkUnit) -> Dict[str, Any]:
    """Self-contained provenance record of one unit (sqlite backend).

    The record follows the pycomex archive shape: a full config snapshot,
    the seed-scheme token, the library version that produced the entry and
    the exact re-run command, so results stay auditable and reproducible
    after the sweep that created them is gone.
    """
    from repro import __version__

    return {
        "unit": unit.to_payload(),
        "config_token": config_token(unit.config),
        "seed_scheme": get_scheme(unit.seed_scheme).token(),
        "code_version": __version__,
        "rerun_command": rerun_command(unit),
    }


__all__ = [
    "CACHE_FORMAT_VERSION",
    "RESULT_SCHEMA",
    "config_token",
    "unit_key",
    "encode_result",
    "decode_payload",
    "dump_entry",
    "rerun_command",
    "unit_provenance",
]
