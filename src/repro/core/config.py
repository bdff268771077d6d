"""Declarative description of one simulated configuration.

A :class:`SimulationConfig` names a FEC code, a transmission model and the
object/code dimensions; the simulator and the sweep functions instantiate
the actual objects from it.  Keeping the description declarative makes the
experiment presets (``repro.core.experiments``) and the benchmark harness
simple dictionaries of configurations.
"""

from __future__ import annotations

import dataclasses
import functools
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
        (e.g. ``{"source_fraction": 0.2}`` for ``tx_model_6``), stored as
        read-only dicts: a config is a cache key, so a changed option
        makes a new config (:meth:`with_updates`).
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
        setattr_(self, "code_options", _read_only(self.code_options))
        setattr_(self, "tx_options", _read_only(self.tx_options))

    def __reduce__(self):
        # Rebuilt through the constructor: the option dicts travel as plain
        # dicts, come back read-only, and no encoding memo is carried along.
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @functools.cached_property
    def token(self) -> str:
        """Canonical JSON token of the result-defining fields, encoded once.

        The display ``label`` is excluded: relabelling a configuration must
        not invalidate its cached results.
        """
        payload = {
            "code": self.code,
            "tx_model": self.tx_model,
            "k": self.k,
            "expansion_ratio": self.expansion_ratio,
            "nsent": self.nsent,
            "code_options": self.code_options,
            "tx_options": self.tx_options,
        }
        return json.dumps(payload, sort_keys=True, default=repr)

    @functools.cached_property
    def snapshot_json(self) -> str:
        """``json.dumps(dataclasses.asdict(self))``, encoded once."""
        return json.dumps(dataclasses.asdict(self))

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


class ReadOnlyDict(dict):
    """A ``dict`` whose mutators raise ``TypeError``.

    Still a ``dict`` to ``json.dumps``, ``==`` and ``**`` unpacking, so
    tokens and snapshots encode exactly as the plain dict would; pickles
    and copies are plain dicts.
    """

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError(
            "config option dicts are read-only; build a new config with "
            "with_updates()"
        )

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


def _read_only(options: Any) -> Any:
    """``options`` as a :class:`ReadOnlyDict`, numpy scalars made Python ones."""
    if not isinstance(options, dict) or type(options) is ReadOnlyDict:
        return options
    return ReadOnlyDict(
        (key, value.item() if isinstance(value, np.generic) else value)
        for key, value in options.items()
    )


__all__ = ["SimulationConfig"]
