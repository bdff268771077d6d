"""Batched run synthesis: schedule -> loss -> received, arrays end to end.

This is the pre-decode "front end" of a simulated work unit.  The
incremental path builds each run separately -- one schedule draw, one loss
mask, one received array per run; :func:`synthesize_runs` produces the same
data for a whole work unit at once:

1. **Schedules** -- the transmission model emits every run's schedule as
   one ``(runs, length)`` array (:meth:`TransmissionModel.schedule_batch`);
   deterministic models broadcast a single row.
2. **Loss masks** -- the channel draws every run's mask as one
   ``(runs, length)`` array (:meth:`LossModel.loss_mask_batch`), using the
   kernel scope's :mod:`repro.kernels` backend for kernelised chains
   (Gilbert).
3. **Assembly** -- the kernel backend's
   :meth:`~repro.kernels.KernelBackend.gather_received` writes the
   surviving indices straight into the flat layout of a
   :class:`~repro.kernels.ReceivedBatch` (on ``cext`` one row-parallel C
   pass over the schedule and mask rows, broadcast rows read in place);
   per-run arrays are never materialised, and the received indices are
   range-checked **once per work unit**, as they are written.  The batch
   records that check (``index_bound``), so the decoders never repeat it.

Every stage is **bit-identical** to the per-run reference for any seed: the
batch APIs consume the generators exactly as the serial calls would (in run
order), so stage-major execution is draw-identical whenever the runs have
independent generators -- or whenever at most one stage draws at all.  When
runs *share* one generator and both stages are stochastic, stage-major
execution would reorder the draws, so :func:`synthesize_runs` transparently
falls back to the retained per-run interleaved loop (also used for
duck-typed third-party models without batch APIs, and for models with
run-dependent schedule lengths).

The per-run seed scheme hands over a lazy :class:`~repro.seeds.RunStreams`
block instead of generators.  The path is chosen once per unit, before any
draw: when every drawing stage draws straight from stream blocks and the
kernel backend seeds and draws them in C, the block is bound to the
backend and no Python generator is built; when no stage draws at all,
nothing is seeded; otherwise the block's generators run the code above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.base import LossModel
from repro.fec.packet import PacketLayout
from repro.kernels import ReceivedBatch, current_backend
from repro.seeds import RunStreams
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_positive_int


@dataclass(frozen=True)
class SynthesizedRuns:
    """Pre-decode arrays for a whole work unit.

    Attributes
    ----------
    batch:
        The runs' received packet indices, flattened once in run order
        (what the decoder prototypes consume).
    n_sent:
        ``int64`` array: number of packets transmitted per run.
    """

    batch: ReceivedBatch
    n_sent: np.ndarray

    @property
    def num_runs(self) -> int:
        return self.batch.num_runs

    @property
    def n_received(self) -> np.ndarray:
        """``int64`` array: number of packets received per run."""
        return self.batch.lengths


def _empty_synthesis() -> SynthesizedRuns:
    zeros = np.zeros(0, dtype=np.int64)
    return SynthesizedRuns(
        batch=ReceivedBatch(flat=zeros, offsets=zeros.copy(), lengths=zeros.copy()),
        n_sent=zeros.copy(),
    )


def _all_distinct(rngs: Sequence[np.random.Generator]) -> bool:
    # Two Generator wrappers can share one BitGenerator (and hence one
    # stream), so distinctness must be judged on the underlying state.
    return len({id(rng.bit_generator) for rng in rngs}) == len(rngs)


def can_batch_stages(tx_model, channel, rngs: Sequence[np.random.Generator]) -> bool:
    """Whether stage-major batching is draw-identical to the per-run loop.

    True when both layers expose batch APIs and the draw order cannot
    differ: the generators are pairwise distinct (each run only ever
    consumes its own stream), or at most one of the two stages draws at
    all.  ``rngs`` must already be resolved generators.
    """
    if getattr(tx_model, "schedule_batch", None) is None:
        return False
    if getattr(channel, "loss_mask_batch", None) is None:
        return False
    tx_draws = bool(getattr(tx_model, "uses_rng", True))
    channel_draws = bool(getattr(channel, "uses_rng", True))
    return (not tx_draws) or (not channel_draws) or _all_distinct(rngs)


def _bind_stream_block(tx_model, channel, streams: RunStreams, backend) -> bool:
    """Whether the unit synthesises on its stream block, binding it if needed.

    True when both stages have batch APIs and each either draws nothing
    or draws straight from stream blocks, and -- if any stage draws --
    the backend takes the block.  No stage draws: nothing is ever seeded.
    """
    if getattr(tx_model, "schedule_batch", None) is None:
        return False
    if getattr(channel, "loss_mask_batch", None) is None:
        return False
    drawing = [stage for stage in (tx_model, channel) if getattr(stage, "uses_rng", True)]
    if not all(getattr(stage, "draws_stream_blocks", False) for stage in drawing):
        return False
    return not drawing or streams.bind(backend)


def synthesize_runs(
    layout: PacketLayout,
    tx_model,
    channel: LossModel,
    rngs: Sequence[RandomState],
    *,
    nsent: Optional[int] = None,
) -> SynthesizedRuns:
    """Schedules, losses and received batches for one work unit, vectorised.

    ``rngs`` may contain distinct generators (one independent stream per
    run, the runner's scheme) or the same generator repeated
    (``run_many``'s sequential consumption) -- either way the draws happen
    in the exact order of the incremental path, via the batched stages
    when that is provably draw-identical and via the retained per-run
    interleaved loop otherwise.  A :class:`~repro.seeds.RunStreams` block
    is drawn in C where every stage allows it, and materialised into its
    generators otherwise.
    """
    if nsent is not None:
        nsent = validate_positive_int(nsent, "nsent")
    if isinstance(rngs, RunStreams) and len(rngs):
        if _bind_stream_block(tx_model, channel, rngs, current_backend()):
            return _synthesize_batched(layout, tx_model, channel, rngs, nsent=nsent)
    resolved = [ensure_rng(rng) for rng in rngs]
    if not resolved:
        return _empty_synthesis()
    if can_batch_stages(tx_model, channel, resolved):
        return _synthesize_batched(layout, tx_model, channel, resolved, nsent=nsent)
    return _synthesize_interleaved(layout, tx_model, channel, resolved, nsent=nsent)


def _synthesize_batched(
    layout: PacketLayout,
    tx_model,
    channel: LossModel,
    rngs: Sequence[np.random.Generator],
    *,
    nsent: Optional[int],
) -> SynthesizedRuns:
    """Stage-major path: whole-unit schedule and loss arrays, one gather.

    ``rngs`` is a list of distinct generators or a stream block the
    stages draw from directly.
    """
    schedules = tx_model.schedule_batch(layout, rngs)
    if not (isinstance(schedules, np.ndarray) and schedules.ndim == 2):
        # Run-dependent schedule lengths (a ragged row list): the
        # generators were already consumed in run order, so assemble the
        # rows as-is -- per-run loss masks follow, which is draw-identical
        # here because can_batch_stages() established the stages cannot
        # contend for one generator.
        return _assemble_ragged(layout, tx_model, channel, schedules, rngs, nsent=nsent)
    if schedules.dtype != np.int64:
        schedules = schedules.astype(np.int64)
    if nsent is not None:
        schedules = schedules[:, :nsent]
    width = schedules.shape[1]
    loss = channel.loss_mask_batch(width, rngs)
    return _assemble_dense(layout, schedules, loss)


def _assemble_dense(
    layout: PacketLayout, schedules: np.ndarray, loss: np.ndarray
) -> SynthesizedRuns:
    """Gather a dense ``(runs, width)`` schedule/loss pair into a batch.

    The backend's :meth:`~repro.kernels.KernelBackend.gather_received`
    writes the flat batch and range-checks the received indices in the
    same pass; broadcast rows and column-sliced views are passed as they
    are, never copied here.
    """
    runs, width = schedules.shape
    return SynthesizedRuns(
        batch=current_backend().gather_received(schedules, loss, layout.n),
        n_sent=np.full(runs, width, dtype=np.int64),
    )


def synthesize_runs_unit(
    layout: PacketLayout,
    tx_model,
    channel: LossModel,
    rng: RandomState,
    runs: int,
    *,
    nsent: Optional[int] = None,
) -> SynthesizedRuns:
    """Whole-unit synthesis from ONE shared generator (the unit seed scheme).

    The counterpart of :func:`synthesize_runs` for the ``"unit"`` scheme
    of :mod:`repro.seeds`: every run's randomness comes from the single
    counter-based unit generator, so stage-major batching is
    *unconditional* -- there is no shared-generator fallback loop, because
    the scheme's streams are **defined** by this function's block-draw
    order (all schedules first, then all loss masks).  Models without the
    ``*_batch_unit`` APIs degrade to deterministic per-run draws from the
    shared generator, stage by stage.
    """
    if nsent is not None:
        nsent = validate_positive_int(nsent, "nsent")
    if runs < 0:
        raise ValueError(f"runs must be non-negative, got {runs}")
    if runs == 0:
        return _empty_synthesis()
    rng = ensure_rng(rng)

    if getattr(tx_model, "schedule_batch_unit", None) is not None:
        schedules = tx_model.schedule_batch_unit(layout, rng, runs)
    else:
        schedules = [
            np.asarray(tx_model.schedule(layout, rng), dtype=np.int64)
            for _ in range(runs)
        ]
    if isinstance(schedules, np.ndarray) and schedules.ndim == 2:
        if schedules.dtype != np.int64:
            schedules = schedules.astype(np.int64)
        if nsent is not None:
            schedules = schedules[:, :nsent]
        width = schedules.shape[1]
        if getattr(channel, "loss_mask_batch_unit", None) is not None:
            loss = channel.loss_mask_batch_unit(width, rng, runs)
        else:
            loss = np.empty((runs, width), dtype=bool)
            for row in loss:
                row[:] = channel.loss_mask(width, rng)
        return _assemble_dense(layout, schedules, loss)

    # Ragged schedule lengths: the schedules are already drawn, so per-run
    # loss masks follow in row order from the same shared generator.
    return _assemble_ragged(
        layout, tx_model, channel, schedules, [rng] * len(schedules), nsent=nsent
    )


def _assemble_ragged(
    layout: PacketLayout,
    tx_model,
    channel: LossModel,
    rows: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    nsent: Optional[int],
) -> SynthesizedRuns:
    """Assemble already-drawn ragged schedule rows (per-run loss masks)."""
    n_sent = np.empty(len(rows), dtype=np.int64)
    received: List[np.ndarray] = []
    for index, (schedule, rng) in enumerate(zip(rows, rngs)):
        if index == 0:
            schedule = tx_model.validate_schedule(layout, schedule)
        else:
            schedule = np.asarray(schedule, dtype=np.int64)
        if nsent is not None:
            schedule = schedule[:nsent]
        loss = channel.loss_mask(schedule.size, rng)
        n_sent[index] = schedule.size
        received.append(schedule[~loss])
    batch = ReceivedBatch.from_sequences(received).checked(layout.n)
    return SynthesizedRuns(batch=batch, n_sent=n_sent)


def _synthesize_interleaved(
    layout: PacketLayout,
    tx_model,
    channel: LossModel,
    rngs: Sequence[np.random.Generator],
    *,
    nsent: Optional[int],
) -> SynthesizedRuns:
    """Per-run reference loop: schedule then mask, run by run.

    This is the bit-identity reference the batched path is tested against,
    and the executable path for shared-generator batches (draw interleaving
    matters there) and for duck-typed models without batch APIs.
    """
    n_sent = np.empty(len(rngs), dtype=np.int64)
    received: List[np.ndarray] = []
    validated = False
    for index, rng in enumerate(rngs):
        schedule = tx_model.schedule(layout, rng)
        if validated:
            schedule = np.asarray(schedule, dtype=np.int64)
        else:
            schedule = tx_model.validate_schedule(layout, schedule)
            validated = True
        if nsent is not None:
            schedule = schedule[:nsent]
        loss = channel.loss_mask(schedule.size, rng)
        n_sent[index] = schedule.size
        received.append(schedule[~loss])
    batch = ReceivedBatch.from_sequences(received).checked(layout.n)
    return SynthesizedRuns(batch=batch, n_sent=n_sent)


__all__ = [
    "SynthesizedRuns",
    "synthesize_runs",
    "synthesize_runs_unit",
    "can_batch_stages",
]
