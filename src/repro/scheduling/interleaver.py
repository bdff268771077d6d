"""Interleaving helpers used by Tx_model_5.

Two flavours are needed (section 4.7 of the paper):

* **Block interleaving** for RSE: transmit one packet of every block in
  turn, so the packets of a single block are spread as far apart as
  possible and a loss burst touches every block a little instead of one
  block a lot.
* **Proportional interleaving** for the single-block LDGM codes: alternate
  source and parity packets so that the source/parity transmission rates
  follow the expansion ratio (one source packet for every ``n/k - 1``
  parity packets on average).

Both interleavers are vectorised (a lexsort for the round robin, a
closed-form Bresenham emission count for the proportional merge); the
test suite keeps the original per-position loops and proves the
vectorised forms emit identical schedules.
"""

from __future__ import annotations

import numpy as np

from repro.fec.packet import PacketLayout


def block_interleave(layout: PacketLayout) -> np.ndarray:
    """Round-robin over blocks: packet ``j`` of block 0, of block 1, ...

    Within each block packets are taken in order (source packets first, then
    parity), matching the classic interleaver used with Reed-Solomon codes.
    Computed as one stable sort by (within-block position, block id).
    """
    per_block = [block.all_indices for block in layout.blocks]
    sizes = np.fromiter(
        (indices.size for indices in per_block), dtype=np.int64, count=len(per_block)
    )
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    flat = np.concatenate(per_block).astype(np.int64, copy=False)
    block_ids = np.repeat(np.arange(len(per_block), dtype=np.int64), sizes)
    starts = np.zeros(len(per_block), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    position = np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
    return flat[np.lexsort((block_ids, position))]


def proportional_interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Merge two packet streams so their rates stay proportional throughout.

    The classic "Bresenham merge": at every position the stream that is most
    behind its target proportion emits the next packet.  With ``first`` the
    source packets and ``second`` the parity packets this realises the
    paper's "one source packet then n/k - 1 parity packets" schedule for any
    (possibly non-integer) expansion ratio.

    The per-position loop has a closed form: after ``m`` emissions the first
    stream has contributed ``max(ceil(m * F / T), m - S)`` packets (the
    ceiling follows from "emit while behind the target"; the ``m - S`` floor
    is the second stream running dry), so the whole emission pattern is one
    vectorised ceil + diff.  ``F / T`` is evaluated in float64 exactly as
    the loop's comparison was, keeping the output bit-identical to the
    per-position loop.
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    total = first.size + second.size
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    emitted = np.arange(1, total + 1, dtype=np.int64)
    need_first = emitted * first.size / total
    taken_first = np.maximum(
        np.ceil(need_first).astype(np.int64), emitted - second.size
    )
    from_first = np.diff(taken_first, prepend=0) == 1
    schedule = np.empty(total, dtype=np.int64)
    schedule[from_first] = first
    schedule[~from_first] = second
    return schedule


__all__ = ["block_interleave", "proportional_interleave"]
