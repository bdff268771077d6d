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
from repro.kernels import KernelSpec, get_backend
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

    def loss_mask(
        self,
        count: int,
        rng: Optional[np.random.Generator] = None,
        *,
        kernel: KernelSpec = None,
    ) -> np.ndarray:
        """Simulate ``count`` packet transmissions started in steady state.

        The chain is memoryless, so given the initial state (drawn from the
        stationary distribution) the residual sojourn times are geometric.
        Sojourn lengths are drawn here in batches -- one uniform for the
        initial state, then alternating geometric batches, exactly the draw
        sequence of the historical serial chain -- and expanded into the mask
        by the selected :mod:`repro.kernels` backend (vectorised
        ``np.repeat`` on numpy, a compiled loop on cext).  Every backend
        consumes the generator identically and produces masks bit-identical
        to the historical serial chain for any seed.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        mask = np.empty(count, dtype=bool)
        self._fill_mask(mask, ensure_rng(rng), get_backend(kernel))
        return mask

    def loss_mask_batch(
        self,
        count: int,
        rngs: Sequence[RandomState],
        *,
        kernel: KernelSpec = None,
    ) -> np.ndarray:
        """One mask per generator, filled into a single ``(runs, count)`` array.

        The chain draws stay per run -- they are what defines each run's
        stream, so row ``i`` consumes ``rngs[i]`` exactly like
        :meth:`loss_mask` would -- but everything around them is batched:
        the first sojourn batch of every run is drawn into two
        ``(runs, batch)`` matrices and expanded by **one**
        ``fill_sojourns_batch`` kernel call (for typical parameters that
        first batch covers the whole mask), and only the rare rows whose
        sojourns fall short continue chain-style.
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
        backend = get_backend(kernel)
        batch_size = self._SOJOURN_BATCH
        loss_probability = self.global_loss_probability
        states = np.empty(runs, dtype=bool)
        gap_runs = np.empty((runs, batch_size), dtype=np.int64)
        burst_runs = np.empty((runs, batch_size), dtype=np.int64)
        extras: dict[int, list] = {}
        for index, rng in enumerate(rngs):
            rng = ensure_rng(rng)
            states[index] = rng.random() < loss_probability
            gap = rng.geometric(self.p, size=batch_size)
            burst = rng.geometric(self.q, size=batch_size)
            gap_runs[index] = gap
            burst_runs[index] = burst
            # The serial chain draws a run's continuation batches *before*
            # the next run's draws, which matters when runs share one
            # generator -- so pre-draw them here, inside the per-run loop.
            # A batch falls short exactly when its uncapped sojourn total
            # does (capping only shortens the final used sojourn).  The
            # fill consumes ONE sojourn per index -- ``burst[i]`` in the
            # loss state, ``gap[i]`` otherwise, alternating -- so the
            # total is the strided alternating sum, and each batch's even
            # sojourn count leaves the starting state unchanged.
            in_loss_state = bool(states[index])

            def batch_total(gap_batch: np.ndarray, burst_batch: np.ndarray) -> int:
                first, second = (
                    (burst_batch, gap_batch) if in_loss_state else (gap_batch, burst_batch)
                )
                # Tiny p/q saturate rng.geometric near 2**63 - 1, so the
                # raw sum could overflow (and a wrapped negative total
                # would draw batches forever); capping each sojourn at
                # ``count`` cannot change whether the total reaches it.
                return int(np.minimum(first[0::2], count).sum()) + int(
                    np.minimum(second[1::2], count).sum()
                )

            covered = batch_total(gap, burst)
            while covered < count:
                gap = rng.geometric(self.p, size=batch_size)
                burst = rng.geometric(self.q, size=batch_size)
                extras.setdefault(index, []).append((gap, burst))
                covered += batch_total(gap, burst)
        filled = backend.fill_sojourns_batch(masks, states, gap_runs, burst_runs)
        for index, batches in extras.items():
            # An even number of sojourns per batch leaves the state
            # unchanged, so the initial state still applies.
            row, row_filled = masks[index], int(filled[index])
            in_loss_state = bool(states[index])
            for gap, burst in batches:
                row_filled = backend.fill_sojourns(
                    row, row_filled, in_loss_state, gap, burst
                )
        return masks

    def loss_mask_batch_unit(
        self,
        count: int,
        rng,
        runs: int,
        *,
        kernel: KernelSpec = None,
    ) -> np.ndarray:
        """One mask per run, all sojourns drawn from ONE shared generator.

        The ``"unit"`` seed scheme's block path (:mod:`repro.seeds`): the
        per-run pre-draw loop of :meth:`loss_mask_batch` disappears
        entirely.  Initial states come from one ``(runs,)`` uniform draw,
        the first sojourn batch of *every* run from two ``(runs, batch)``
        geometric draws, and the whole block is expanded by a single
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
        backend = get_backend(kernel)
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

    def _fill_mask(
        self, mask: np.ndarray, rng: np.random.Generator, backend
    ) -> None:
        """Fill a preallocated mask with one run's chain (shared hot loop)."""
        count = mask.size
        if count == 0:
            return
        if self.p == 0.0:
            mask[:] = False
            return
        if self.q == 0.0:
            # Stationary distribution puts all mass on the loss state.
            mask[:] = True
            return
        batch_size = self._SOJOURN_BATCH
        in_loss_state = bool(rng.random() < self.global_loss_probability)
        filled = 0
        while filled < count:
            gap_runs = rng.geometric(self.p, size=batch_size)
            burst_runs = rng.geometric(self.q, size=batch_size)
            # An even number of sojourns per batch leaves the state
            # unchanged, so ``in_loss_state`` is loop-invariant.
            filled = backend.fill_sojourns(
                mask, filled, in_loss_state, gap_runs, burst_runs
            )

    def __repr__(self) -> str:
        return f"GilbertChannel(p={self.p}, q={self.q})"


__all__ = ["GilbertChannel", "PAPER_GRID_PERCENT", "paper_grid"]
