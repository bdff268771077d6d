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

Encoding is paid once per *config*, not once per unit: the config token
and the config's JSON snapshot are memoised on the frozen
:class:`~repro.core.config.SimulationConfig`, and a provenance row dumps
the unit JSON once and quotes that same text into its re-run command.
Every stored byte is what the per-unit encoding produced.

JSON serialises floats via ``repr`` (shortest round-trip form), so ratios
reloaded from any backend are bit-identical to freshly computed ones.
"""

from __future__ import annotations

import json
import shlex
from typing import Any, Dict, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.runner.units import UnitResult, WorkUnit
from repro.seeds import available_schemes, get_scheme

#: Key-derivation version: bump when the canonical unit description (the
#: hashed fields) changes shape.  Version 2 added the seed-scheme token.
CACHE_FORMAT_VERSION = 2

#: Entry payload schema: bump when the stored payload changes shape.
#: Schema 2 added the ``schema`` and ``seed_scheme`` fields; entries with
#: any other schema (including pre-schema ones) are treated as misses, not
#: errors, so stale stores degrade to re-simulation.
RESULT_SCHEMA = 2


def entry_scheme(scheme: str) -> str:
    """The seed-scheme name store entries record, for a scheme filter.

    Accepts a scheme name (``"per-run"``), its token (``"per-run/v1"``,
    as ``cache info`` lists it) or ``"pre-seeds"`` (entries written
    before the scheme field existed).  Raises ``ValueError`` naming the
    choices for anything else, so a filter never silently matches
    nothing.
    """
    names = {"pre-seeds": "pre-seeds"}
    for name in available_schemes():
        names[name] = names[get_scheme(name).token()] = name
    if scheme not in names:
        raise ValueError(
            f"unknown seed scheme {scheme!r}; choose from {', '.join(sorted(names))}"
        )
    return names[scheme]


def config_token(config: SimulationConfig) -> str:
    """Canonical JSON token of the result-defining fields of a config.

    The display ``label`` is excluded: relabelling a configuration must not
    invalidate its cached results.  Encoded once per config
    (:attr:`SimulationConfig.token`).
    """
    return config.token


def unit_key(unit: WorkUnit) -> str:
    """Stable SHA-256 store key of one work unit.

    The seed-scheme *token* (name + stream-format version) is part of the
    key: schemes draw different streams, so results of one scheme must
    never satisfy a lookup under another -- unlike ``kernel`` /
    ``kernel_threads``, which are bit-identical wall-clock knobs and stay
    excluded.

    The key is memoised on the unit (a sweep looks a unit up, then
    writes it); the unit and its config are immutable.
    """
    memo = unit.__dict__.get("_key_memo")
    if memo is not None:
        return memo
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "config": unit.config.token,
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
    import hashlib

    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    unit.__dict__["_key_memo"] = digest  # frozen: bypass __setattr__
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


def rerun_command(unit: WorkUnit, unit_json: Optional[str] = None) -> str:
    """The exact shell command that re-executes one unit from nothing.

    ``python -m repro rerun-unit '<unit-json>'`` rebuilds the unit from its
    self-describing payload (config snapshot, channel point, run range,
    seed scheme), executes it, and prints the result payload -- so a store
    entry's provenance record is sufficient to reproduce the entry on any
    machine with the same code version.  The payload is shell-quoted, so
    a label holding ``'`` still yields one valid argument; without one the
    command is the plain single-quoted form.  ``unit_json`` passes an
    already dumped :meth:`WorkUnit.to_json`.
    """
    if unit_json is None:
        unit_json = unit.to_json()
    return "python -m repro rerun-unit " + shlex.quote(unit_json)


def provenance_fields(unit: WorkUnit) -> Tuple[str, str, str, str, str]:
    """``(unit_json, config_token, seed_scheme, code_version, rerun_command)``.

    The columns of one provenance row: the unit JSON is dumped once and
    quoted into the re-run command as is.
    """
    from repro import __version__

    unit_json = unit.to_json()
    return (
        unit_json,
        unit.config.token,
        get_scheme(unit.seed_scheme).token(),
        __version__,
        rerun_command(unit, unit_json),
    )


__all__ = [
    "CACHE_FORMAT_VERSION",
    "RESULT_SCHEMA",
    "config_token",
    "entry_scheme",
    "unit_key",
    "encode_result",
    "decode_payload",
    "dump_entry",
    "provenance_fields",
    "rerun_command",
]
