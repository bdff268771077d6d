"""Base class for transmission (and reception) models."""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.fec.packet import PacketLayout
from repro.utils.rng import RandomState, ensure_rng


class TransmissionModel(abc.ABC):
    """Decides the order in which encoding packets are transmitted.

    A schedule is an array of global packet indices.  It usually contains
    every index in ``[0, n)`` exactly once, but a model may also choose to
    send only a subset (``tx_model_6``) -- the simulator takes the schedule
    at face value.
    """

    #: Registry name, e.g. ``"tx_model_2"``.
    name: str = "abstract"

    #: Whether :meth:`schedule` draws from the generator.  Deterministic
    #: models (``tx_model_1``, ``tx_model_5``) set this False, which lets
    #: the batched pipeline compute their schedule once and broadcast it
    #: over a work unit, and relaxes the draw-ordering constraints when
    #: runs share one generator.
    uses_rng: bool = True

    #: Whether :meth:`schedule_batch` draws straight from a bound
    #: :class:`~repro.seeds.RunStreams` block (one compiled call for the
    #: whole unit) instead of the block's generators; the synthesis
    #: pipeline takes the compiled stream path only when every drawing
    #: stage does.
    draws_stream_blocks: bool = False

    #: Whether the schedule depends on how the layout groups packets into
    #: blocks, beyond its source and parity index arrays.  Codes with equal
    #: index arrays but different blocks (RSE and LDGM at one k and ratio)
    #: then get different schedules, so the runner shares one synthesized
    #: transmission between them only when this is False.  True by
    #: default: a model that does not say otherwise is assumed to read
    #: the blocks.
    schedule_reads_blocks: bool = True

    @abc.abstractmethod
    def schedule(self, layout: PacketLayout, rng: RandomState = None) -> np.ndarray:
        """Return the transmission order as an array of global packet indices."""

    def schedule_batch(self, layout: PacketLayout, rngs: Sequence[RandomState]):
        """Schedules for a whole work unit, one row per run.

        Row ``i`` must be exactly what ``self.schedule(layout, rngs[i])``
        would return, with the generators consumed in run order -- the
        batched pipeline relies on this draw-identity, and the default
        implementation guarantees it by calling :meth:`schedule` per run
        (vectorising only the stacking).  Models whose schedules draw
        nothing are computed once and broadcast (a read-only view).

        Returns a ``(runs, length)`` ``int64`` array when every run's
        schedule has the same length (all built-in models), or the list of
        per-run arrays when lengths differ -- the generators are already
        consumed either way, so the pipeline assembles ragged rows as-is
        rather than re-drawing.
        """
        if not self.uses_rng:
            template = np.asarray(self.schedule(layout, None), dtype=np.int64)
            if template.ndim != 1:
                return [template] * len(rngs)
            return np.broadcast_to(template, (len(rngs), template.size))
        rows = [
            np.asarray(self.schedule(layout, rng), dtype=np.int64) for rng in rngs
        ]
        shapes = {row.shape for row in rows}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            return rows
        return np.stack(rows)

    def schedule_batch_unit(
        self, layout: PacketLayout, rng: RandomState, runs: int
    ):
        """Schedules for a whole work unit drawn from ONE shared generator.

        This is the ``"unit"`` seed scheme's entry point
        (:mod:`repro.seeds`): unlike :meth:`schedule_batch`, every run's
        randomness comes from the single unit generator, so overrides are
        free to draw whole ``(runs, length)`` blocks in one call (e.g.
        ``Generator.permuted`` row shuffles) instead of looping per run.
        Block draws are *not* bit-identical to per-run :meth:`schedule`
        calls on the same generator -- the unit scheme defines its streams
        by this method's draw order -- but each row must be distributed
        exactly like a :meth:`schedule` result, and the draw order must be
        deterministic for a given generator state.

        The default implementation loops :meth:`schedule` over the shared
        generator (deterministic, sequential consumption), so duck-typed
        third-party models work under the unit scheme unchanged.  Returns
        a dense ``(runs, length)`` ``int64`` array or a ragged row list,
        exactly like :meth:`schedule_batch`.
        """
        if not self.uses_rng:
            return self.schedule_batch(layout, [None] * runs)
        rng = ensure_rng(rng)
        rows = [
            np.asarray(self.schedule(layout, rng), dtype=np.int64)
            for _ in range(runs)
        ]
        shapes = {row.shape for row in rows}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            return rows
        return np.stack(rows)

    def description(self) -> str:
        """One-line human description (defaults to the class docstring)."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name

    def validate_schedule(self, layout: PacketLayout, schedule: np.ndarray) -> np.ndarray:
        """Sanity-check a schedule produced by :meth:`schedule`."""
        schedule = np.asarray(schedule, dtype=np.int64)
        if schedule.ndim != 1:
            raise ValueError("schedule must be a 1-D array of packet indices")
        if schedule.size and (schedule.min() < 0 or schedule.max() >= layout.n):
            raise ValueError(
                f"schedule contains indices outside [0, {layout.n})"
            )
        return schedule

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


__all__ = ["TransmissionModel"]
