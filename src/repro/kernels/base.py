"""Kernel-backend interface and the flattened received-batch container.

A :class:`KernelBackend` owns the *hot loops* of the decode path -- the
LDGM peeling cascade behind the gallop+bisect prefix search, the
block-count rule of RSE and repetition, and the Gilbert sojourn fill --
behind a small, swappable surface.  Everything else (prototype
compilation, the run/sweep orchestration) is backend-independent numpy.

All backends are **bit-identical**: for any input they must produce
exactly the arrays the incremental reference decoder produces.  The test
suite enforces this across every registered backend, so a backend is a
pure wall-clock knob, never a semantics knob.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fastpath.prototypes import BlockCountPrototype, LDGMPrototype

#: ``n_necessary`` sentinel in the integer result array of a batch decode
#: for runs that never decode.
NOT_DECODED = -1

#: Bit position splitting a packed peeling word into (unknown count, id sum).
COUNT_SHIFT = 40
SUM_MASK = (1 << COUNT_SHIFT) - 1

#: Word of the per-run sentinel row appended after the real check rows: a
#: huge unknown count that can never reach one, so it separates run blocks
#: in the stacked state (the chain walk stops on it) without ever
#: triggering a reveal.  No update ever lands on it.
SENTINEL_WORD = np.int64(1) << (COUNT_SHIFT + 22)


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
    """

    flat: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

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
                flat=self.flat[:0], offsets=offsets, lengths=lengths
            )
        base = int(offsets[0])
        end = int(offsets[-1] + lengths[-1])
        return ReceivedBatch(
            flat=self.flat[base:end], offsets=offsets - base, lengths=lengths
        )

    def check_index_range(self, n: int) -> None:
        """Raise ``ValueError`` unless every received index is in ``[0, n)``.

        Decoders that index per-run tables by packet id would otherwise
        write a stray index into a neighbouring run's row (numpy) or out
        of bounds (compiled kernels).
        """
        if self.flat.size and (self.flat.min() < 0 or self.flat.max() >= n):
            raise ValueError(f"received indices outside [0, {n})")


class KernelBackend(abc.ABC):
    """One implementation of the decode hot loops.

    Backends are stateless (safe to share across codes, threads use the
    GIL anyway) and selected through :func:`repro.kernels.get_backend`.
    """

    #: Registry name; also what ``REPRO_KERNEL`` / ``--kernel`` match.
    name: str = "abstract"

    #: Whether the batch decodes stack the whole batch's state into one
    #: allocation (the numpy lockstep search and first-arrival table do);
    #: prototypes build the tables those decodes need only then, and
    #: callers chunk such LDGM batches to bound peak memory.  Per-run
    #: backends leave it False and take batches of any size.
    stacks_batches: bool = False

    @abc.abstractmethod
    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched minimal-decodable-prefix search over an LDGM prototype.

        Returns ``(decoded, n_necessary)`` exactly as the incremental
        decoder would: ``n_necessary`` is the 1-based arrival position of
        the packet completing decoding, ``-1`` where the run never decodes.
        """

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

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


__all__ = [
    "KernelBackend",
    "ReceivedBatch",
    "NOT_DECODED",
    "COUNT_SHIFT",
    "SUM_MASK",
    "SENTINEL_WORD",
]
