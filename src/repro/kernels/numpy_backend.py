"""Pure-numpy backend: the always-available fallback when no compiler is found.

The LDGM decode is the :class:`~repro.kernels.base.KernelBackend`
default: each run is replayed through the code's own incremental peeling
decoder, exactly like the ``IncrementalPrototype`` fallback, so there is
no second peel to keep bit-identical with the compiled one.  It is the
slow path -- a C compiler makes ``auto`` pick ``cext`` -- and is kept
because a C compiler is never required.

The block-count decode of RSE and repetition is closed form here: order
statistics over a ``(runs, keys)`` first-arrival position table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.kernels.base import NOT_DECODED, KernelBackend, ReceivedBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fastpath.prototypes import BlockCountPrototype

#: "Never arrived" sentinel in the block-count first-arrival position
#: table; sorts after every real position, so reaching it in an order
#: statistic means the group's distinct-count goal was not met.
_NEVER = np.iinfo(np.int64).max

#: Upper bound on the elements of one first-arrival position table
#: (``runs x (key_modulus + 1)`` int64); larger batches are decoded in
#: run chunks to bound peak memory (~0.5 GB).
_MAX_TABLE_ELEMENTS = 64_000_000


class NumpyBackend(KernelBackend):
    """Vectorised fallback backend (always available)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # Block-count decode: order statistics over first-arrival positions.
    # ------------------------------------------------------------------

    def block_count_decode_batch(
        self, prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The whole batch as order statistics, without a single sort.

        1. one reversed scatter builds the ``(runs, keys)`` table of each
           key's first arrival position (later stores win a fancy-indexing
           scatter, so storing in reverse arrival order keeps the first),
        2. the prototype's :attr:`~BlockCountPrototype.order_statistics`
           gather regroups the table's columns by group (groups padded to
           a common width with a sentinel key that never arrives),
        3. ``np.partition`` selects each group's ``needed``-th smallest
           position.
        """
        batch.check_index_range(prototype.n)
        num_runs = batch.num_runs
        chunk = max(1, _MAX_TABLE_ELEMENTS // (prototype.key_modulus + 1))
        if num_runs > chunk:
            decoded = np.zeros(num_runs, dtype=bool)
            n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
            for start in range(0, num_runs, chunk):
                stop = min(start + chunk, num_runs)
                decoded[start:stop], n_necessary[start:stop] = (
                    self._block_count_chunk(prototype, batch.slice(start, stop))
                )
            return decoded, n_necessary
        return self._block_count_chunk(prototype, batch)

    @staticmethod
    def _block_count_chunk(
        prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_runs = batch.num_runs
        modulus = prototype.key_modulus
        table_width = modulus + 1
        first_position = np.full(num_runs * table_width, _NEVER, dtype=np.int64)
        if batch.flat.size:
            run_ids = np.repeat(
                np.arange(num_runs, dtype=np.int64), batch.lengths
            )
            # Indices were range-checked against n, so the modulus is the
            # identity whenever the key space is the whole code (RSE).
            keys = batch.flat if modulus == prototype.n else batch.flat % modulus
            positions = np.arange(batch.flat.size, dtype=np.int64) - np.repeat(
                batch.offsets, batch.lengths
            )
            cells = run_ids * np.int64(table_width) + keys
            # Reversed scatter: duplicate keys collapse to their *first*
            # arrival because the earliest store happens last.
            first_position[cells[::-1]] = positions[::-1]
        gather, classes, impossible = prototype.order_statistics
        grouped = first_position.reshape(num_runs, table_width)[:, gather]
        threshold = np.empty((num_runs, prototype.num_groups), dtype=np.int64)
        for needed, groups in classes:
            # Clamped for malformed third-party inputs (needed beyond the
            # group width is impossible and overwritten below; zero means
            # trivially reached before any arrival).
            kth = min(needed, grouped.shape[2]) - 1
            if kth < 0:
                threshold[:, groups] = -1
                continue
            statistic = np.partition(grouped[:, groups, :], kth, axis=2)
            threshold[:, groups] = statistic[:, :, kth]
        if impossible.size:
            threshold[:, impossible] = _NEVER
        decoded = (threshold < _NEVER).all(axis=1)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        n_necessary[decoded] = threshold[decoded].max(axis=1) + 1
        return decoded, n_necessary

    # ------------------------------------------------------------------
    # Gilbert sojourn fill.
    # ------------------------------------------------------------------

    def fill_sojourns(
        self,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> int:
        """Vectorised sojourn expansion (``np.repeat``; no per-packet loop).

        The serial chain consumes sojourn ``index`` from the array of its
        current state and toggles the state after every sojourn, so the
        states alternate along the batch and each array only contributes
        its even or odd positions.
        """
        count = mask.shape[0]
        even_position = np.arange(gap_runs.shape[0]) % 2 == 0
        states = np.where(even_position, in_loss_state, not in_loss_state)
        runs = np.where(states, burst_runs, gap_runs)
        remaining = count - filled
        # Cap sojourns at the remaining space, as the serial chain does
        # per sojourn; tiny p/q make rng.geometric saturate at 2**63 - 1
        # and an uncapped cumulative sum would overflow.  The cap cannot
        # change which sojourn crosses ``remaining`` or any earlier one.
        runs = np.minimum(runs, remaining)
        cumulative = np.cumsum(runs)
        if cumulative[-1] >= remaining:
            # The batch overshoots: truncate the final sojourn so the
            # expansion ends exactly at ``count`` (the serial chain caps
            # each sojourn at the remaining space the same way).
            cut = int(np.searchsorted(cumulative, remaining))
            runs = runs[: cut + 1].copy()
            runs[cut] = remaining - (cumulative[cut - 1] if cut else 0)
            mask[filled:] = np.repeat(states[: cut + 1], runs)
            return count
        segment = np.repeat(states, runs)
        mask[filled : filled + segment.size] = segment
        return filled + segment.size


__all__ = ["NumpyBackend"]
