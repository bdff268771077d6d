"""The six transmission models evaluated in section 4 of the paper.

Every stochastic model also overrides
:meth:`~repro.scheduling.base.TransmissionModel.schedule_batch` with a
vectorised form: the whole work unit's schedules are assembled in one
``(runs, length)`` allocation, and each override consumes the streams
exactly as the serial :meth:`schedule` does, so batch row ``i`` is
bit-identical to a serial call with ``rngs[i]``.  The shuffle-only models
(``tx_model_2`` to ``tx_model_4``) fill and shuffle every row of a bound
:class:`~repro.seeds.RunStreams` block in one compiled call
(``Generator.shuffle``'s Fisher-Yates steps on each run's own PCG64
stream); otherwise, and for ``tx_model_6``'s subset choice, the draws
stay a loop over the runs' generators.

Under the ``"unit"`` seed scheme (:mod:`repro.seeds`) the per-generator
constraint disappears -- a whole work unit shares one counter-based
generator -- so the stochastic models also override
:meth:`~repro.scheduling.base.TransmissionModel.schedule_batch_unit` with
true block draws: row-wise shuffles and subset choices for *all* runs
happen in a single ``Generator.permuted`` call, leaving no per-run loop at
all.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fec.packet import PacketLayout
from repro.scheduling.base import TransmissionModel
from repro.scheduling.interleaver import block_interleave, proportional_interleave
from repro.seeds import RunStreams
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_fraction


def _shuffled_rows(
    template: np.ndarray, start: int, rngs: Sequence[RandomState]
) -> np.ndarray:
    """One ``template`` row per run, ``rngs[i].shuffle(row[start:])`` in run order.

    A :class:`~repro.seeds.RunStreams` block bound to a kernel fills and
    shuffles all rows in one compiled call on the runs' own streams.
    """
    out = np.empty((len(rngs), template.size), dtype=np.int64)
    if isinstance(rngs, RunStreams) and rngs.kernel is not None:
        rngs.kernel.shuffle_streams(rngs.states(), out, start, template)
        return out
    out[:] = template
    for row, rng in zip(out, rngs):
        ensure_rng(rng).shuffle(row[start:])
    return out


def _permuted_rows(
    template: np.ndarray, start: int, rng: RandomState, runs: int
) -> np.ndarray:
    """``runs`` template rows, their ``[start:]`` tails shuffled in ONE
    ``permuted`` call on the shared unit generator."""
    out = np.empty((runs, template.size), dtype=np.int64)
    out[:] = template
    ensure_rng(rng).permuted(out[:, start:], axis=1, out=out[:, start:])
    return out


class TxModel1(TransmissionModel):
    """Send source packets sequentially, then parity packets sequentially."""

    name = "tx_model_1"
    uses_rng = False
    schedule_reads_blocks = False

    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        return np.concatenate([layout.source_indices, layout.parity_indices])


class TxModel2(TransmissionModel):
    """Send source packets sequentially, then parity packets in random order."""

    name = "tx_model_2"
    draws_stream_blocks = True
    schedule_reads_blocks = False

    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        rng = ensure_rng(rng)
        parity = layout.parity_indices.copy()
        rng.shuffle(parity)
        return np.concatenate([layout.source_indices, parity])

    def schedule_batch(
        self, layout: PacketLayout, rngs: Sequence[RandomState]
    ) -> np.ndarray:
        template = np.concatenate([layout.source_indices, layout.parity_indices])
        return _shuffled_rows(template, layout.k, rngs)

    def schedule_batch_unit(
        self, layout: PacketLayout, rng: RandomState, runs: int
    ) -> np.ndarray:
        template = np.concatenate([layout.source_indices, layout.parity_indices])
        return _permuted_rows(template, layout.k, rng, runs)


class TxModel3(TransmissionModel):
    """Send parity packets sequentially, then source packets in random order."""

    name = "tx_model_3"
    draws_stream_blocks = True
    schedule_reads_blocks = False

    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        rng = ensure_rng(rng)
        source = layout.source_indices.copy()
        rng.shuffle(source)
        return np.concatenate([layout.parity_indices, source])

    def schedule_batch(
        self, layout: PacketLayout, rngs: Sequence[RandomState]
    ) -> np.ndarray:
        # Serial order: the source packets are shuffled *before* they are
        # appended to the parity stream, so the draws match exactly.
        template = np.concatenate([layout.parity_indices, layout.source_indices])
        return _shuffled_rows(template, layout.n - layout.k, rngs)

    def schedule_batch_unit(
        self, layout: PacketLayout, rng: RandomState, runs: int
    ) -> np.ndarray:
        template = np.concatenate([layout.parity_indices, layout.source_indices])
        return _permuted_rows(template, layout.n - layout.k, rng, runs)


class TxModel4(TransmissionModel):
    """Send all packets (source and parity) in a fully random order."""

    name = "tx_model_4"
    draws_stream_blocks = True
    schedule_reads_blocks = False

    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        rng = ensure_rng(rng)
        order = np.arange(layout.n, dtype=np.int64)
        rng.shuffle(order)
        return order

    def schedule_batch(
        self, layout: PacketLayout, rngs: Sequence[RandomState]
    ) -> np.ndarray:
        return _shuffled_rows(np.arange(layout.n, dtype=np.int64), 0, rngs)

    def schedule_batch_unit(
        self, layout: PacketLayout, rng: RandomState, runs: int
    ) -> np.ndarray:
        return _permuted_rows(np.arange(layout.n, dtype=np.int64), 0, rng, runs)


class TxModel5(TransmissionModel):
    """Interleave packets to spread each block / the parity stream over time.

    For multi-block codes (RSE) this is the classic block interleaver: one
    packet of each block in turn.  For single-block codes (LDGM-*) packets
    of the source and parity streams are merged proportionally (one source
    packet for every ``n/k - 1`` parity packets).
    """

    name = "tx_model_5"
    uses_rng = False

    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        if layout.num_blocks > 1:
            return block_interleave(layout)
        return proportional_interleave(layout.source_indices, layout.parity_indices)


class TxModel6(TransmissionModel):
    """Send a random fraction of the source packets plus all parity packets,
    mixed in random order (the remaining source packets are never sent).

    Parameters
    ----------
    source_fraction:
        Fraction of source packets included in the transmission (the paper
        uses 20%).
    """

    name = "tx_model_6"
    schedule_reads_blocks = False

    def __init__(self, source_fraction: float = 0.2):
        self.source_fraction = validate_fraction(source_fraction, "source_fraction")

    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        rng = ensure_rng(rng)
        source = layout.source_indices
        keep = int(round(self.source_fraction * source.size))
        if keep > 0:
            chosen = rng.choice(source, size=keep, replace=False)
        else:
            chosen = np.zeros(0, dtype=np.int64)
        combined = np.concatenate([chosen, layout.parity_indices])
        rng.shuffle(combined)
        return combined

    def schedule_batch(
        self, layout: PacketLayout, rngs: Sequence[RandomState]
    ) -> np.ndarray:
        source = layout.source_indices
        parity = layout.parity_indices
        keep = int(round(self.source_fraction * source.size))
        out = np.empty((len(rngs), keep + parity.size), dtype=np.int64)
        out[:, keep:] = parity
        # Serial draw order per run: the source subset is chosen first,
        # then the combined stream is shuffled.
        for row, rng in zip(out, rngs):
            rng = ensure_rng(rng)
            if keep > 0:
                row[:keep] = rng.choice(source, size=keep, replace=False)
            rng.shuffle(row)
        return out

    def schedule_batch_unit(
        self, layout: PacketLayout, rng: RandomState, runs: int
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        source = layout.source_indices
        parity = layout.parity_indices
        keep = int(round(self.source_fraction * source.size))
        out = np.empty((runs, keep + parity.size), dtype=np.int64)
        out[:, keep:] = parity
        if keep > 0:
            # Row-wise choice without replacement as one block draw: a
            # full row permutation of the source indices, truncated to the
            # first ``keep`` entries, is a uniform subset in uniform order.
            pool = np.empty((runs, source.size), dtype=np.int64)
            pool[:] = source
            rng.permuted(pool, axis=1, out=pool)
            out[:, :keep] = pool[:, :keep]
        rng.permuted(out, axis=1, out=out)
        return out

    def __repr__(self) -> str:
        return f"TxModel6(source_fraction={self.source_fraction})"


__all__ = ["TxModel1", "TxModel2", "TxModel3", "TxModel4", "TxModel5", "TxModel6"]
