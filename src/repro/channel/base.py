"""Base class for packet-loss channel models."""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import RandomState, ensure_rng


class LossModel(abc.ABC):
    """A packet erasure channel.

    A loss model only decides, for a sequence of packet transmissions,
    which packets are erased; content is never corrupted (erasure channel,
    as in the paper).
    """

    @property
    def uses_rng(self) -> bool:
        """Whether :meth:`loss_mask` draws from the generator.

        Deterministic channels (perfect, periodic bursts, trace replay
        without a random offset) override this to return False, which lets
        the batched pipeline broadcast one mask over a work unit and
        relaxes draw-ordering constraints when runs share one generator.
        """
        return True

    #: Whether :meth:`loss_mask_batch` draws straight from a bound
    #: :class:`~repro.seeds.RunStreams` block (through the kernel's
    #: ``draw_sojourns_batch``) instead of the block's generators; the
    #: synthesis pipeline takes the compiled stream path only when every
    #: drawing stage does.
    draws_stream_blocks: bool = False

    @abc.abstractmethod
    def loss_mask(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Return a boolean array of length ``count``; ``True`` marks a *lost* packet.

        Models with a kernelised hot loop (the Gilbert sojourn fill) run
        it on the :func:`~repro.kernels.current_backend` of the caller's
        kernel scope.
        """

    def loss_mask_batch(self, count: int, rngs: Sequence[RandomState]) -> np.ndarray:
        """Loss masks for a whole work unit as one ``(runs, count)`` array.

        Row ``i`` must be exactly what ``self.loss_mask(count, rngs[i])``
        would return, with the generators consumed in run order -- the
        batched pipeline relies on this draw-identity.  The default
        implementation guarantees it by calling :meth:`loss_mask` per run;
        the built-in channels override it with vectorised draws (or a
        broadcast view for deterministic models -- treat the result as
        read-only).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        masks = np.empty((len(rngs), count), dtype=bool)
        for row, rng in zip(masks, rngs):
            row[:] = self.loss_mask(count, ensure_rng(rng))
        return masks

    def loss_mask_batch_unit(self, count: int, rng: RandomState, runs: int) -> np.ndarray:
        """Loss masks for a whole work unit drawn from ONE shared generator.

        The ``"unit"`` seed scheme's entry point (:mod:`repro.seeds`):
        every run's mask comes from the single unit generator, so overrides
        draw whole ``(runs, count)`` blocks in one call (a uniform matrix
        for Bernoulli, block geometrics plus one sojourn-fill kernel call
        for Gilbert).  Rows must be distributed exactly like
        :meth:`loss_mask` results and the draw order must be deterministic
        for a given generator state; block draws are *not* bit-identical to
        per-run calls -- the unit scheme defines its streams by this
        method's draw order.  The default loops :meth:`loss_mask` over the
        shared generator so duck-typed models work unchanged.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = ensure_rng(rng)
        masks = np.empty((runs, count), dtype=bool)
        for row in masks:
            row[:] = self.loss_mask(count, rng)
        return masks

    def reception_mask(self, count: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Complement of :meth:`loss_mask`: ``True`` marks a received packet."""
        return ~self.loss_mask(count, rng)

    def transmit(self, indices: np.ndarray, rng: RandomState = None) -> np.ndarray:
        """Filter a schedule of packet indices through the channel.

        Returns the sub-sequence of ``indices`` that survives, preserving
        the transmission order.
        """
        rng = ensure_rng(rng)
        indices = np.asarray(indices)
        mask = self.loss_mask(indices.size, rng)
        return indices[~mask]

    @property
    @abc.abstractmethod
    def global_loss_probability(self) -> float:
        """Long-run fraction of packets lost."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p_global={self.global_loss_probability:.4f})"


__all__ = ["LossModel"]
