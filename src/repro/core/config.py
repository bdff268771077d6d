"""Declarative description of one simulated configuration.

A :class:`SimulationConfig` names a FEC code, a transmission model and the
object/code dimensions; the simulator and the sweep functions instantiate
the actual objects from it.  Keeping the description declarative makes the
experiment presets (``repro.core.experiments``) and the benchmark harness
simple dictionaries of configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.fec.registry import make_code, resolve_code_name
from repro.scheduling.registry import make_tx_model, resolve_tx_model_name
from repro.utils.rng import RandomState
from repro.utils.validation import validate_expansion_ratio, validate_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fec.base import FECCode
    from repro.scheduling.base import TransmissionModel


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to instantiate one (code, tx model) simulation.

    Attributes
    ----------
    code:
        Registered FEC code name (``"rse"``, ``"ldgm-staircase"``,
        ``"ldgm-triangle"``, ``"ldgm"``, ``"repetition"``).
    tx_model:
        Registered transmission-model name (``"tx_model_1"`` ...
        ``"tx_model_6"``, ``"rx_model_1"``).
    k:
        Number of source packets of the object.
    expansion_ratio:
        FEC expansion ratio ``n / k`` (the paper uses 1.5 and 2.5).
    nsent:
        Number of packets actually transmitted; ``None`` sends the full
        schedule (section 6.2 explains why one may want to reduce it).
    code_options / tx_options:
        Extra keyword arguments forwarded to the code / model factories
        (e.g. ``{"source_fraction": 0.2}`` for ``tx_model_6``).
    label:
        Optional display label used by the analysis helpers.
    """

    code: str = "ldgm-staircase"
    tx_model: str = "tx_model_2"
    k: int = 1000
    expansion_ratio: float = 2.5
    nsent: Optional[int] = None
    code_options: Dict[str, Any] = field(default_factory=dict)
    tx_options: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        validate_positive_int(self.k, "k")
        validate_expansion_ratio(self.expansion_ratio)
        # Resolve names eagerly so typos fail at configuration time.
        resolve_code_name(self.code)
        resolve_tx_model_name(self.tx_model)
        if self.nsent is not None:
            validate_positive_int(self.nsent, "nsent")

    @property
    def n(self) -> int:
        """Total number of encoding packets implied by k and the ratio."""
        return int(round(self.k * self.expansion_ratio))

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        return f"{self.code} / {self.tx_model} / ratio {self.expansion_ratio}"

    def build_code(self, seed: RandomState = None) -> FECCode:
        """Instantiate the FEC code described by this configuration."""
        return make_code(
            self.code,
            k=self.k,
            expansion_ratio=self.expansion_ratio,
            seed=seed,
            **self.code_options,
        )

    def build_tx_model(self) -> TransmissionModel:
        """Instantiate the transmission model described by this configuration."""
        return make_tx_model(self.tx_model, **self.tx_options)

    def with_updates(self, **changes: Any) -> "SimulationConfig":
        """Return a copy of the configuration with some fields replaced."""
        return replace(self, **changes)


__all__ = ["SimulationConfig"]
