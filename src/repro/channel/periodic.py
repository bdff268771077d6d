"""Deterministic periodic-burst loss model.

Not part of the paper's evaluation, but invaluable for controlled unit and
integration tests: exactly ``burst_length`` consecutive packets are lost out
of every ``period`` packets, starting at ``offset``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.base import LossModel
from repro.utils.rng import RandomState
from repro.utils.validation import validate_positive_int


class PeriodicBurstChannel(LossModel):
    """Lose ``burst_length`` packets out of every ``period`` packets."""

    uses_rng = False

    def __init__(self, period: int, burst_length: int, offset: int = 0):
        self.period = validate_positive_int(period, "period")
        if burst_length < 0:
            raise ValueError(f"burst_length must be >= 0, got {burst_length}")
        if burst_length > period:
            raise ValueError(
                f"burst_length ({burst_length}) cannot exceed period ({period})"
            )
        self.burst_length = int(burst_length)
        self.offset = int(offset) % self.period

    @property
    def global_loss_probability(self) -> float:
        return self.burst_length / self.period

    def loss_mask(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        positions = (np.arange(count) + self.offset) % self.period
        return positions < self.burst_length

    def loss_mask_batch(self, count: int, rngs: Sequence[RandomState]) -> np.ndarray:
        return np.broadcast_to(self.loss_mask(count), (len(rngs), count))

    def loss_mask_batch_unit(self, count: int, rng: RandomState, runs: int) -> np.ndarray:
        return np.broadcast_to(self.loss_mask(count), (runs, count))

    def __repr__(self) -> str:
        return (
            f"PeriodicBurstChannel(period={self.period}, "
            f"burst_length={self.burst_length}, offset={self.offset})"
        )


__all__ = ["PeriodicBurstChannel"]
