"""Kernel-backend interface and the flattened received-batch container.

A :class:`KernelBackend` owns the *hot loops* of the decode path -- the
LDGM peel, the block-count rule of RSE and repetition, the Gilbert
sojourn draws and fill, the gather of each run's surviving packet
indices into a :class:`ReceivedBatch` (range-checked once, as it is
written), and optionally the per-run stream blocks (``stream_blocks``)
-- behind a small, swappable surface.  Everything else (prototype
compilation, the run/sweep orchestration) is backend-independent numpy.

The LDGM decode and the gather have working base-class defaults: the
LDGM default replays each run through the code's own incremental
decoder (:func:`replay_decode_batch`, the same loop the
``IncrementalPrototype`` fallback runs), and a compiled backend
overrides it with its own peel.

All backends are **bit-identical**: for any input they must produce
exactly the arrays the incremental reference decoder produces.  The test
suite enforces this across every registered backend, so a backend is a
pure wall-clock knob, never a semantics knob.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fastpath.prototypes import BlockCountPrototype, LDGMPrototype
    from repro.fec.base import FECCode

#: ``n_necessary`` sentinel in the integer result array of a batch decode
#: for runs that never decode.
NOT_DECODED = -1


@dataclass(frozen=True)
class ReceivedBatch:
    """A batch of received-index sequences, flattened once.

    The decoders used to re-concatenate the per-run arrays on every call
    (and the LDGM prefix search again per probe); flattening once per work
    unit and slicing by offsets makes a sub-batch a pair of views instead
    of a copy.

    Attributes
    ----------
    flat:
        All runs' received packet indices concatenated, in run order
        (plain per-code indices; no run stacking applied).
    offsets:
        Start of each run inside ``flat`` (``int64``, one per run).
    lengths:
        Number of indices of each run (``int64``, one per run).
    index_bound:
        When set, every index is known to lie in ``[0, index_bound)``
        (the batch was range-checked when it was assembled), so
        :meth:`check_index_range` against any ``n >= index_bound`` is
        free.  ``None`` for hand-built batches, which are checked in full.
    """

    flat: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    index_bound: Optional[int] = None

    @classmethod
    def from_sequences(cls, received: Sequence[np.ndarray]) -> "ReceivedBatch":
        """Flatten a list of per-run index arrays into one batch."""
        lengths = np.fromiter(
            (r.size for r in received), dtype=np.int64, count=len(received)
        )
        offsets = np.zeros(len(received), dtype=np.int64)
        if lengths.size:
            np.cumsum(lengths[:-1], out=offsets[1:])
        if lengths.sum() == 0:
            flat = np.zeros(0, dtype=np.int64)
        else:
            flat = np.concatenate(
                [np.asarray(r, dtype=np.int64) for r in received]
            )
        return cls(flat=flat, offsets=offsets, lengths=lengths)

    @classmethod
    def coerce(cls, received) -> "ReceivedBatch":
        """Accept either a ready batch or a sequence of per-run arrays."""
        if isinstance(received, ReceivedBatch):
            return received
        return cls.from_sequences(received)

    @property
    def num_runs(self) -> int:
        return int(self.lengths.size)

    def __len__(self) -> int:
        return self.num_runs

    def run(self, index: int) -> np.ndarray:
        """View of one run's received sequence."""
        start = int(self.offsets[index])
        return self.flat[start : start + int(self.lengths[index])]

    def sequences(self) -> Iterator[np.ndarray]:
        """Iterate per-run views (for fallback/incremental consumers)."""
        for index in range(self.num_runs):
            yield self.run(index)

    def slice(self, start: int, stop: int) -> "ReceivedBatch":
        """Sub-batch of runs ``start..stop`` -- views, no data copy."""
        if start == 0 and stop >= self.num_runs:
            return self
        lengths = self.lengths[start:stop]
        offsets = self.offsets[start:stop]
        if lengths.size == 0:
            return ReceivedBatch(
                flat=self.flat[:0], offsets=offsets, lengths=lengths,
                index_bound=self.index_bound,
            )
        base = int(offsets[0])
        end = int(offsets[-1] + lengths[-1])
        return ReceivedBatch(
            flat=self.flat[base:end], offsets=offsets - base, lengths=lengths,
            index_bound=self.index_bound,
        )

    def check_index_range(self, n: int) -> None:
        """Raise ``ValueError`` unless every received index is in ``[0, n)``.

        Decoders that index per-run tables by packet id would otherwise
        write a stray index into a neighbouring run's row (numpy) or out
        of bounds (compiled kernels).  A batch whose ``index_bound`` is
        at most ``n`` is already known to pass and is not scanned again.
        """
        if self.index_bound is not None and self.index_bound <= n:
            return
        if self.flat.size and (self.flat.min() < 0 or self.flat.max() >= n):
            raise ValueError(f"received indices outside [0, {n})")

    def checked(self, n: int) -> "ReceivedBatch":
        """This batch, range-checked against ``n`` and marked ``index_bound=n``."""
        if self.index_bound is not None and self.index_bound <= n:
            return self
        self.check_index_range(n)
        return replace(self, index_bound=n)


def replay_decode_batch(
    code: "FECCode", batch: ReceivedBatch
) -> Tuple[np.ndarray, np.ndarray]:
    """Feed each run of ``batch`` to a fresh ``code.new_symbolic_decoder()``.

    Stops each run at the packet that completes decoding and returns
    ``(decoded, n_necessary)`` like :meth:`KernelBackend.ldgm_decode_batch`.
    The whole batch is range-checked against ``code.n`` first, so an
    out-of-range index raises ``ValueError`` even when it follows the
    completing packet -- the same contract as the compiled decoders.
    """
    batch.check_index_range(code.n)
    decoded = np.zeros(batch.num_runs, dtype=bool)
    n_necessary = np.full(batch.num_runs, NOT_DECODED, dtype=np.int64)
    new_decoder = code.new_symbolic_decoder
    for run, indices in enumerate(batch.sequences()):
        decoder = new_decoder()
        add_packet = decoder.add_packet
        for count, index in enumerate(indices.tolist(), start=1):
            if add_packet(index):
                n_necessary[run] = count
                break
        decoded[run] = decoder.is_complete
    return decoded, n_necessary


class KernelBackend(abc.ABC):
    """One implementation of the decode hot loops.

    Backends are stateless, so one instance is shared across codes and
    threads (compiled kernels run with the GIL released, on caller-owned
    arrays), and selected through :func:`repro.kernels.get_backend`.
    """

    #: Registry name; also what ``REPRO_KERNEL`` / ``--kernel`` match.
    name: str = "abstract"

    #: Whether the backend seeds and draws :class:`~repro.seeds.RunStreams`
    #: blocks itself (``seed_streams``, ``shuffle_streams`` and a
    #: :meth:`draw_sojourns_batch` that takes the bound block).  Backends
    #: without it are handed the block's generators instead.
    stream_blocks: bool = False

    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode every run of ``batch`` with an LDGM prototype's peel.

        Returns ``(decoded, n_necessary)`` exactly as the incremental
        decoder would: ``n_necessary`` is the 1-based arrival position of
        the packet completing decoding, ``-1`` where the run never decodes.
        Raises ``ValueError`` on any received index outside
        ``[0, prototype.n)``.  The default replays the code's own
        incremental decoder run by run; backends with a compiled peel
        override it.
        """
        return replay_decode_batch(prototype.code, batch)

    @abc.abstractmethod
    def block_count_decode_batch(
        self, prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched decode of a counting-rule code (RSE blocks, repetition).

        A run decodes at the packet that gives the last of its groups
        ``prototype.needed[g]`` distinct keys (key = packet index modulo
        ``prototype.key_modulus``).  Returns ``(decoded, n_necessary)``
        like :meth:`ldgm_decode_batch`; raises ``ValueError`` on any
        received index outside ``[0, prototype.n)``.
        """

    @abc.abstractmethod
    def fill_sojourns(
        self,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> int:
        """Expand one batch of Gilbert sojourn lengths into ``mask``.

        The sojourns alternate starting from ``in_loss_state`` (the batch
        has even length, so the caller's state is unchanged after a full
        batch); each sojourn is capped at the space remaining, exactly as
        the serial reference chain caps it.  Returns the new fill count.
        """

    def fill_sojourns_batch(
        self,
        masks: np.ndarray,
        states: np.ndarray,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> np.ndarray:
        """Expand one sojourn batch per run into the rows of ``masks``.

        ``masks`` is ``(runs, count)``; ``states`` the per-run initial
        states; ``gap_runs``/``burst_runs`` are ``(runs, batch)`` matrices
        of drawn sojourn lengths.  Row ``i`` is filled exactly like
        ``fill_sojourns(masks[i], 0, states[i], gap_runs[i],
        burst_runs[i])``; rows whose batch does not cover ``count`` are
        left partially filled (the caller continues them chain-style).
        Returns the per-run fill counts.  Backends with a compiled batch
        kernel override this to amortise the per-row call overhead.
        """
        filled = np.empty(masks.shape[0], dtype=np.int64)
        for index in range(masks.shape[0]):
            filled[index] = self.fill_sojourns(
                masks[index], 0, bool(states[index]), gap_runs[index], burst_runs[index]
            )
        return filled

    def draw_sojourns_batch(
        self,
        masks: np.ndarray,
        rngs: Sequence[np.random.Generator],
        loss_probability: float,
        p: float,
        q: float,
        batch: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw every run's Gilbert chain from its own generator, in run order.

        Row ``i`` of the ``(runs, count)`` ``masks`` consumes ``rngs[i]``
        exactly like the serial chain: one uniform for the initial state
        (loss when below ``loss_probability``), then ``batch`` gap
        sojourns (``geometric(p)``) and ``batch`` burst sojourns
        (``geometric(q)``) per round until the sojourns cover ``count``.
        Returns the first round of every run as ``(states, gap_runs,
        burst_runs)`` for :meth:`fill_sojourns_batch` to expand into
        ``[0, covered)``.  The rare runs that round leaves short draw their
        continuation rounds before the next run draws anything (which
        matters when runs share a generator) and expand them here, into
        the disjoint tail ``[covered, count)`` of their row.  A backend
        with ``stream_blocks`` also takes a
        :class:`~repro.seeds.RunStreams` block bound to it and draws its
        rows in place.
        """
        runs, count = masks.shape
        states = np.empty(runs, dtype=bool)
        gap_runs = np.empty((runs, batch), dtype=np.int64)
        burst_runs = np.empty((runs, batch), dtype=np.int64)
        for index, rng in enumerate(rngs):
            in_loss_state = bool(rng.random() < loss_probability)
            states[index] = in_loss_state
            gap = gap_runs[index] = rng.geometric(p, size=batch)
            burst = burst_runs[index] = rng.geometric(q, size=batch)
            # The fill consumes one sojourn per index, the burst in the
            # loss state and the gap otherwise, alternating.  Capping each
            # sojourn at ``count`` cannot change whether the total reaches
            # it, and keeps saturated draws (tiny p or q make geometric
            # return nearly 2**63 - 1) from overflowing the sum.
            first, second = (burst, gap) if in_loss_state else (gap, burst)
            covered = int(np.minimum(first[0::2], count).sum()) + int(
                np.minimum(second[1::2], count).sum()
            )
            # A short round held no capped sojourn, so the first round
            # fills exactly ``[0, covered)``; its even sojourn count
            # leaves every continuation starting in the initial state.
            while covered < count:
                gap = rng.geometric(p, size=batch)
                burst = rng.geometric(q, size=batch)
                covered = self.fill_sojourns(
                    masks[index], covered, in_loss_state, gap, burst
                )
        return states, gap_runs, burst_runs

    def gather_received(
        self, schedules: np.ndarray, loss: np.ndarray, n: int
    ) -> ReceivedBatch:
        """Each run's surviving schedule entries, flattened into one batch.

        ``schedules`` is an ``int64`` ``(runs, width)`` array and ``loss``
        the matching boolean mask (``True`` = lost); either may be a
        broadcast row or a column-sliced view.  Run ``i`` receives
        ``schedules[i][~loss[i]]`` in arrival order, and the runs are laid
        out back to back.  Raises ``ValueError`` if and only if a
        *received* index lies outside ``[0, n)`` (an out-of-range entry
        in a lost slot is never delivered); the returned batch carries
        ``index_bound=n``, so the decoders do not scan it again.
        Backends with a compiled gather override this to read the inputs
        in place and check the indices as they are written.
        """
        runs, width = schedules.shape
        kept = ~np.asarray(loss, dtype=bool)
        lengths = kept.sum(axis=1, dtype=np.int64)
        offsets = np.zeros(runs, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        # Boolean selection over the 2-D array is row-major: run 0's
        # surviving indices in arrival order, then run 1's, ... -- exactly
        # the flat layout of a ReceivedBatch, with no per-run arrays in
        # between.
        flat = schedules[kept]
        return ReceivedBatch(flat=flat, offsets=offsets, lengths=lengths).checked(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


__all__ = [
    "KernelBackend",
    "ReceivedBatch",
    "NOT_DECODED",
    "replay_decode_batch",
]
