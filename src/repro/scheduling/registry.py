"""Name-based registry of transmission models.

Built-in models are ``"module:attr"`` entries imported on first use;
:func:`register_tx_model` adds third-party factories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Union

from repro._lazy import load_entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.base import TransmissionModel

TxModelFactory = Callable[..., "TransmissionModel"]

_REGISTRY: Dict[str, Union[str, TxModelFactory]] = {
    **{f"tx_model_{i}": f"repro.scheduling.tx_models:TxModel{i}" for i in range(1, 7)},
    "rx_model_1": "repro.scheduling.rx_models:RxModel1",
}

_ALIASES: Dict[str, str] = {
    "tx1": "tx_model_1",
    "tx2": "tx_model_2",
    "tx3": "tx_model_3",
    "tx4": "tx_model_4",
    "tx5": "tx_model_5",
    "tx6": "tx_model_6",
    "interleaving": "tx_model_5",
    "random": "tx_model_4",
    "sequential": "tx_model_1",
    "rx1": "rx_model_1",
}


def register_tx_model(name: str, factory: TxModelFactory) -> None:
    """Register a transmission-model factory under ``name`` (lower-case)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"a transmission model named {name!r} is already registered")
    _REGISTRY[key] = factory


def available_tx_models() -> list[str]:
    """Names of all registered transmission models, sorted."""
    return sorted(_REGISTRY)


def resolve_tx_model_name(name: str) -> str:
    key = name.lower().strip()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown transmission model {name!r}; available: "
            f"{', '.join(available_tx_models())}"
        )
    return key


def make_tx_model(name: str, **kwargs) -> TransmissionModel:
    """Instantiate a transmission model by name.

    >>> make_tx_model("tx_model_6", source_fraction=0.2).name
    'tx_model_6'
    """
    key = resolve_tx_model_name(name)
    return load_entry(_REGISTRY, key)(**kwargs)


__all__ = [
    "register_tx_model",
    "available_tx_models",
    "resolve_tx_model_name",
    "make_tx_model",
]
