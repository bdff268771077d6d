"""Memoryless loss models: Bernoulli (IID) losses and the perfect channel.

Both are special cases of the Gilbert model (``q = 1 - p`` and ``p = 0``
respectively) but are provided as explicit classes because they are common
baselines and cheaper to simulate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.base import LossModel
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_probability


class BernoulliChannel(LossModel):
    """Independent, identically distributed packet losses."""

    def __init__(self, loss_rate: float):
        self.loss_rate = validate_probability(loss_rate, "loss_rate")

    @property
    def uses_rng(self) -> bool:
        return 0.0 < self.loss_rate < 1.0

    @property
    def global_loss_probability(self) -> float:
        return self.loss_rate

    def loss_mask(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = ensure_rng(rng)
        if self.loss_rate == 0.0:
            return np.zeros(count, dtype=bool)
        if self.loss_rate == 1.0:
            return np.ones(count, dtype=bool)
        return rng.random(count) < self.loss_rate

    def loss_mask_batch(self, count: int, rngs: Sequence[RandomState]) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        runs = len(rngs)
        if self.loss_rate == 0.0:
            return np.broadcast_to(np.zeros(count, dtype=bool), (runs, count))
        if self.loss_rate == 1.0:
            return np.broadcast_to(np.ones(count, dtype=bool), (runs, count))
        # One uniform matrix, filled row by row straight from each run's
        # generator (``random(out=...)`` consumes the stream exactly like
        # ``random(count)``), compared against the rate in one shot.
        draws = np.empty((runs, count), dtype=np.float64)
        for row, rng in zip(draws, rngs):
            ensure_rng(rng).random(out=row)
        return draws < self.loss_rate

    def loss_mask_batch_unit(self, count: int, rng, runs: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self.loss_rate == 0.0:
            return np.broadcast_to(np.zeros(count, dtype=bool), (runs, count))
        if self.loss_rate == 1.0:
            return np.broadcast_to(np.ones(count, dtype=bool), (runs, count))
        # The whole unit's uniforms in ONE draw from the shared generator.
        return ensure_rng(rng).random((runs, count)) < self.loss_rate

    def __repr__(self) -> str:
        return f"BernoulliChannel(loss_rate={self.loss_rate})"


class PerfectChannel(LossModel):
    """A channel that never loses packets."""

    uses_rng = False

    @property
    def global_loss_probability(self) -> float:
        return 0.0

    def loss_mask(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return np.zeros(count, dtype=bool)

    def loss_mask_batch(self, count: int, rngs: Sequence[RandomState]) -> np.ndarray:
        return np.broadcast_to(self.loss_mask(count), (len(rngs), count))

    def loss_mask_batch_unit(self, count: int, rng, runs: int) -> np.ndarray:
        return np.broadcast_to(self.loss_mask(count), (runs, count))

    def __repr__(self) -> str:
        return "PerfectChannel()"


__all__ = ["BernoulliChannel", "PerfectChannel"]
