"""Trace-replay loss model.

The paper points out that Gilbert parameters can be fitted from packet-loss
traces (e.g. the GSM traces of [8] or the Internet traces of [16]).  The
:class:`TraceChannel` closes the loop: it replays a recorded loss trace
directly, and :func:`fit_gilbert_parameters` estimates the ``(p, q)`` pair
of the Gilbert model that best matches a trace, so measured channels can be
plugged into the rest of the library.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.base import LossModel
from repro.utils.rng import RandomState, ensure_rng


class TraceChannel(LossModel):
    """Replay a recorded loss trace.

    Parameters
    ----------
    trace:
        Sequence of booleans/0-1 values; truthy entries mark lost packets.
    cyclic:
        If ``True`` (default) the trace wraps around when more packets than
        the trace length are transmitted; otherwise the excess packets are
        assumed received.
    random_offset:
        If ``True``, each call to :meth:`loss_mask` starts the replay at a
        random position of the trace (useful to decorrelate simulation runs
        that share one measured trace).
    """

    def __init__(
        self,
        trace: Sequence[int] | np.ndarray,
        *,
        cyclic: bool = True,
        random_offset: bool = False,
    ):
        trace = np.asarray(trace).astype(bool)
        if trace.ndim != 1 or trace.size == 0:
            raise ValueError("trace must be a non-empty 1-D sequence")
        self.trace = trace
        self.cyclic = cyclic
        self.random_offset = random_offset

    @property
    def uses_rng(self) -> bool:
        return self.random_offset

    @property
    def global_loss_probability(self) -> float:
        return float(np.count_nonzero(self.trace)) / self.trace.size

    def loss_mask(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = ensure_rng(rng)
        offset = int(rng.integers(self.trace.size)) if self.random_offset else 0
        if count == 0:
            return np.zeros(0, dtype=bool)
        if self.cyclic:
            positions = (np.arange(count) + offset) % self.trace.size
            return self.trace[positions]
        mask = np.zeros(count, dtype=bool)
        available = min(count, self.trace.size - offset)
        mask[:available] = self.trace[offset : offset + available]
        return mask

    def loss_mask_batch(self, count: int, rngs: Sequence[RandomState]) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        runs = len(rngs)
        if not self.random_offset:
            return np.broadcast_to(self.loss_mask(count), (runs, count))
        # One offset draw per run (the serial path draws it even for
        # count == 0), then the replay is a single vectorised gather.
        offsets = np.fromiter(
            (int(ensure_rng(rng).integers(self.trace.size)) for rng in rngs),
            dtype=np.int64,
            count=runs,
        )
        if count == 0:
            return np.zeros((runs, 0), dtype=bool)
        return self._replay(offsets, count)

    def loss_mask_batch_unit(self, count: int, rng: RandomState, runs: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if not self.random_offset:
            return np.broadcast_to(self.loss_mask(count), (runs, count))
        # All per-run offsets in ONE draw from the shared unit generator.
        offsets = ensure_rng(rng).integers(self.trace.size, size=runs)
        if count == 0:
            return np.zeros((runs, 0), dtype=bool)
        return self._replay(offsets.astype(np.int64), count)

    def _replay(self, offsets: np.ndarray, count: int) -> np.ndarray:
        """Gather the trace at one offset per run (shared batch tail)."""
        positions = offsets[:, None] + np.arange(count, dtype=np.int64)
        if self.cyclic:
            return self.trace[positions % self.trace.size]
        masks = np.zeros((offsets.size, count), dtype=bool)
        in_trace = positions < self.trace.size
        masks[in_trace] = self.trace[positions[in_trace]]
        return masks

    def __repr__(self) -> str:
        return (
            f"TraceChannel(length={self.trace.size}, "
            f"loss_rate={self.global_loss_probability:.4f}, cyclic={self.cyclic})"
        )


def fit_gilbert_parameters(trace: Sequence[int] | np.ndarray) -> tuple[float, float]:
    """Estimate Gilbert ``(p, q)`` parameters from a loss trace.

    ``p`` is estimated as the fraction of received packets followed by a
    loss, ``q`` as the fraction of lost packets followed by a reception --
    the maximum-likelihood estimators for a two-state Markov chain.
    """
    trace = np.asarray(trace).astype(bool)
    if trace.ndim != 1 or trace.size < 2:
        raise ValueError("trace must contain at least two packets")
    current, following = trace[:-1], trace[1:]
    received_count = int(np.count_nonzero(~current))
    lost_count = int(np.count_nonzero(current))
    p = float(np.count_nonzero(~current & following)) / received_count if received_count else 0.0
    q = float(np.count_nonzero(current & ~following)) / lost_count if lost_count else 1.0
    return p, q


__all__ = ["TraceChannel", "fit_gilbert_parameters"]
