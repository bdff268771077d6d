"""Declarative description of one simulated configuration.

A :class:`SimulationConfig` names a FEC code, a transmission model and the
object/code dimensions; the simulator and the sweep functions instantiate
the actual objects from it.  Keeping the description declarative makes the
experiment presets (``repro.core.experiments``) and the benchmark harness
simple dictionaries of configurations.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

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

    Numeric fields are stored as Python numbers (``k``/``nsent`` through
    ``operator.index``, ``expansion_ratio`` through ``float``, numpy
    scalars in the option dicts through ``.item()``): a numpy number
    compares equal to its Python twin but encodes differently, and equal
    configs must share one cache token.
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
        # Frozen: normalise through object.__setattr__.
        setattr_ = object.__setattr__
        setattr_(self, "k", operator.index(self.k))
        setattr_(self, "expansion_ratio", float(self.expansion_ratio))
        if self.nsent is not None:
            setattr_(self, "nsent", operator.index(self.nsent))
        setattr_(self, "code_options", _python_scalars(self.code_options))
        setattr_(self, "tx_options", _python_scalars(self.tx_options))

    def _encodings(self) -> Dict[str, str]:
        """Memo of this config's encodings, emptied when an option dict changed.

        The dataclass is frozen but its option dicts are not, so the memo
        keeps a deep copy of both and is rebuilt when either no longer
        equals it: a mutated config never reuses a stale token.
        """
        memo = self.__dict__.get("_encoding_memo")
        if memo is None or memo[0] != self.code_options or memo[1] != self.tx_options:
            memo = (copy.deepcopy(self.code_options), copy.deepcopy(self.tx_options), {})
            self.__dict__["_encoding_memo"] = memo
        return memo[2]

    @property
    def token(self) -> str:
        """Canonical JSON token of the result-defining fields, encoded once.

        The display ``label`` is excluded: relabelling a configuration must
        not invalidate its cached results.
        """
        memo = self._encodings()
        token = memo.get("token")
        if token is None:
            payload = {
                "code": self.code,
                "tx_model": self.tx_model,
                "k": self.k,
                "expansion_ratio": self.expansion_ratio,
                "nsent": self.nsent,
                "code_options": self.code_options,
                "tx_options": self.tx_options,
            }
            token = memo["token"] = json.dumps(payload, sort_keys=True, default=repr)
        return token

    @property
    def snapshot_json(self) -> str:
        """``json.dumps(dataclasses.asdict(self))``, encoded once."""
        memo = self._encodings()
        snapshot = memo.get("snapshot")
        if snapshot is None:
            snapshot = memo["snapshot"] = json.dumps(dataclasses.asdict(self))
        return snapshot

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


def _python_scalars(options: Any) -> Any:
    """``options`` with numpy scalar values replaced by Python ones."""
    if not isinstance(options, dict) or not any(
        isinstance(value, np.generic) for value in options.values()
    ):
        return options
    return {
        key: value.item() if isinstance(value, np.generic) else value
        for key, value in options.items()
    }


__all__ = ["SimulationConfig"]
