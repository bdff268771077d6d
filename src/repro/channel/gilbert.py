"""Two-state Gilbert (Markov) packet-loss model.

The model of section 3.2 of the paper: a *no-loss* state in which packets
are delivered and a *loss* state in which packets are erased.  ``p`` is the
probability of moving from no-loss to loss between two packets, ``q`` the
probability of moving back.  The long-run ("global") loss probability is
``p / (p + q)`` and the mean loss-burst length is ``1 / q``.

Special cases (also noted in the paper):

* ``p = 0`` -- perfect channel (no loss ever).
* ``q = 1 - p`` -- independent, identically distributed (Bernoulli) losses.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.base import LossModel
from repro.kernels import current_backend
from repro.seeds import RunStreams
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_probability

#: The (p, q) grid used for every 3-D figure of the paper, in percent.
PAPER_GRID_PERCENT: tuple[int, ...] = (0, 1, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def paper_grid() -> tuple[list[float], list[float]]:
    """The 14 x 14 (p, q) grid of the paper, as probabilities in [0, 1]."""
    values = [value / 100.0 for value in PAPER_GRID_PERCENT]
    return list(values), list(values)


class GilbertChannel(LossModel):
    """Two-state Markov loss model.

    Parameters
    ----------
    p:
        Probability of transitioning from the no-loss state to the loss
        state between two consecutive packets.
    q:
        Probability of transitioning from the loss state back to the
        no-loss state.
    """

    def __init__(self, p: float, q: float):
        self.p = validate_probability(p, "p")
        self.q = validate_probability(q, "q")

    @property
    def global_loss_probability(self) -> float:
        """Stationary probability of the loss state, ``p / (p + q)``."""
        if self.p == 0.0:
            return 0.0
        if self.p + self.q == 0.0:
            return 0.0
        return self.p / (self.p + self.q)

    @property
    def stationary_distribution(self) -> tuple[float, float]:
        """(P[no-loss], P[loss]) under the stationary regime."""
        loss = self.global_loss_probability
        return 1.0 - loss, loss

    @property
    def mean_burst_length(self) -> float:
        """Expected length of a loss burst (``1 / q``; ``inf`` if q == 0)."""
        if self.q == 0.0:
            return float("inf")
        return 1.0 / self.q

    @property
    def mean_gap_length(self) -> float:
        """Expected length of a loss-free run (``1 / p``; ``inf`` if p == 0)."""
        if self.p == 0.0:
            return float("inf")
        return 1.0 / self.p

    @property
    def is_memoryless(self) -> bool:
        """True when the model degenerates to IID (Bernoulli) losses."""
        return abs(self.q - (1.0 - self.p)) < 1e-12

    @property
    def uses_rng(self) -> bool:
        """False for the degenerate all-received / all-lost chains."""
        return self.p != 0.0 and self.q != 0.0

    #: Geometric sojourn lengths are drawn in batches of this many runs.
    _SOJOURN_BATCH = 256

    draws_stream_blocks = True

    def loss_mask(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Simulate ``count`` packet transmissions started in steady state.

        The one-run case of :meth:`loss_mask_batch`, so a run's mask and
        its draws from ``rng`` are the same whichever entry point made it.
        """
        masks = self.loss_mask_batch(count, [rng])
        # p = 0 and q = 0 come back as a read-only broadcast view.
        return masks[0] if masks.flags.writeable else masks[0].copy()

    def loss_mask_batch(self, count: int, rngs: Sequence[RandomState]) -> np.ndarray:
        """One mask per generator, filled into a single ``(runs, count)`` array.

        The chain is memoryless, so given the initial state (drawn from the
        stationary distribution) the residual sojourn times are geometric.
        Row ``i`` consumes ``rngs[i]`` exactly like the historical serial
        chain -- one uniform for the initial state, then alternating
        geometric batches -- and every backend produces bit-identical masks
        and leaves every generator in the same state.  The scope's
        backend (:func:`~repro.kernels.current_backend`) draws
        all runs' sojourns in run order
        (:meth:`~repro.kernels.base.KernelBackend.draw_sojourns_batch`:
        compiled on cext when numpy's ``libnpyrandom`` links, a per-run
        loop otherwise) and **one** ``fill_sojourns_batch`` call expands
        every run's first batch, which for typical parameters covers the
        whole mask.  A :class:`~repro.seeds.RunStreams` block bound to the
        backend is handed over whole, so the draws run on its state rows.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        runs = len(rngs)
        if self.p == 0.0:
            return np.broadcast_to(np.zeros(count, dtype=bool), (runs, count))
        if self.q == 0.0:
            return np.broadcast_to(np.ones(count, dtype=bool), (runs, count))
        masks = np.empty((runs, count), dtype=bool)
        if count == 0 or runs == 0:
            return masks
        backend = current_backend()
        if not (isinstance(rngs, RunStreams) and rngs.kernel is backend):
            rngs = [ensure_rng(rng) for rng in rngs]
        states, gap_runs, burst_runs = backend.draw_sojourns_batch(
            masks,
            rngs,
            self.global_loss_probability,
            self.p,
            self.q,
            self._SOJOURN_BATCH,
        )
        backend.fill_sojourns_batch(masks, states, gap_runs, burst_runs)
        return masks

    def loss_mask_batch_unit(self, count: int, rng, runs: int) -> np.ndarray:
        """One mask per run, all sojourns drawn from ONE shared generator.

        The ``"unit"`` seed scheme's block path (:mod:`repro.seeds`): the
        per-run draws of :meth:`loss_mask_batch` disappear entirely.
        Initial states come from one ``(runs,)`` uniform draw, the first
        sojourn batch of *every* run from two ``(runs, batch)`` geometric
        draws, and the whole block is expanded by a single
        ``fill_sojourns_batch`` kernel call with per-row fill offsets; only
        the rare rows whose first batch falls short of ``count`` continue
        chain-style (in row order, so the draw order stays deterministic).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self.p == 0.0:
            return np.broadcast_to(np.zeros(count, dtype=bool), (runs, count))
        if self.q == 0.0:
            return np.broadcast_to(np.ones(count, dtype=bool), (runs, count))
        masks = np.empty((runs, count), dtype=bool)
        if count == 0 or runs == 0:
            return masks
        rng = ensure_rng(rng)
        backend = current_backend()
        batch_size = self._SOJOURN_BATCH
        states = rng.random(runs) < self.global_loss_probability
        gap_runs = rng.geometric(self.p, size=(runs, batch_size))
        burst_runs = rng.geometric(self.q, size=(runs, batch_size))
        filled = backend.fill_sojourns_batch(masks, states, gap_runs, burst_runs)
        # Unlike loss_mask_batch, the continuation draws here come *after*
        # the fill (one shared generator, no per-run ordering to
        # preserve), so the kernel's fill counts directly identify the
        # rare rows whose first batch fell short.
        for index in np.flatnonzero(filled < count):
            row, row_filled = masks[index], int(filled[index])
            in_loss_state = bool(states[index])
            while row_filled < count:
                gap = rng.geometric(self.p, size=batch_size)
                burst = rng.geometric(self.q, size=batch_size)
                row_filled = backend.fill_sojourns(
                    row, row_filled, in_loss_state, gap, burst
                )
        return masks

    def __repr__(self) -> str:
        return f"GilbertChannel(p={self.p}, q={self.q})"


__all__ = ["GilbertChannel", "PAPER_GRID_PERCENT", "paper_grid"]
