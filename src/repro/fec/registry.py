"""Name-based registry of FEC codes.

The simulation configuration (:class:`repro.core.config.SimulationConfig`)
refers to codes by name so that experiments can be described declaratively.
Built-in codes are ``"module:attr"`` entries imported on first use;
:func:`register_code` adds third-party factories.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Union

from repro._lazy import load_entry
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fec.base import FECCode

CodeFactory = Callable[..., "FECCode"]

_REGISTRY: Dict[str, Union[str, CodeFactory]] = {
    "rse": "repro.fec.rse.object_codec:ReedSolomonCode",
    "repetition": "repro.fec.repetition:RepetitionCode",
    "ldgm": "repro.fec.ldgm.code:LDGMCode",
    "ldgm-staircase": "repro.fec.ldgm.code:LDGMStaircaseCode",
    "ldgm-triangle": "repro.fec.ldgm.code:LDGMTriangleCode",
}

#: Canonical aliases accepted for each registered name.
_ALIASES: Dict[str, str] = {
    "reed-solomon": "rse",
    "reed_solomon": "rse",
    "rs": "rse",
    "ldgm_staircase": "ldgm-staircase",
    "staircase": "ldgm-staircase",
    "ldgm_triangle": "ldgm-triangle",
    "triangle": "ldgm-triangle",
    "ldgm_plain": "ldgm",
    "plain-ldgm": "ldgm",
}


def register_code(name: str, factory: CodeFactory) -> None:
    """Register a code factory under ``name`` (lower-case)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"a FEC code named {name!r} is already registered")
    _REGISTRY[key] = factory


def available_codes() -> list[str]:
    """Names of all registered codes, sorted."""
    return sorted(_REGISTRY)


def resolve_code_name(name: str) -> str:
    """Resolve aliases to the canonical registered name."""
    key = name.lower().strip()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown FEC code {name!r}; available codes: {', '.join(available_codes())}"
        )
    return key


def make_code(
    name: str,
    k: int,
    *,
    expansion_ratio: float | None = None,
    n: int | None = None,
    seed: RandomState = None,
    **kwargs,
) -> FECCode:
    """Instantiate a FEC code by name.

    Exactly one of ``expansion_ratio`` or ``n`` must be given.

    >>> code = make_code("ldgm-staircase", k=100, expansion_ratio=1.5, seed=0)
    >>> code.n
    150
    """
    if (expansion_ratio is None) == (n is None):
        raise ValueError("specify exactly one of expansion_ratio or n")
    if n is None:
        n = int(round(k * float(expansion_ratio)))
    if n <= k:
        raise ValueError(f"derived n={n} must be > k={k}")
    key = resolve_code_name(name)
    return load_entry(_REGISTRY, key)(k=k, n=n, seed=seed, **kwargs)


__all__ = [
    "register_code",
    "available_codes",
    "resolve_code_name",
    "make_code",
]
