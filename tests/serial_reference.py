"""Per-position loop forms of vectorised front-end stages (test oracles).

The library computes interleaved schedules and Gilbert loss masks in
vectorised or compiled form.  These are the original loops those forms
replaced; the equivalence tests prove the fast forms emit identical
schedules and masks and consume the generator identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.gilbert import GilbertChannel
from repro.fec.packet import PacketLayout
from repro.utils.rng import ensure_rng


def block_interleave_reference(layout: PacketLayout) -> np.ndarray:
    """Round robin over blocks, one position at a time."""
    per_block = [block.all_indices for block in layout.blocks]
    longest = max(indices.size for indices in per_block)
    schedule: list[int] = []
    for position in range(longest):
        for indices in per_block:
            if position < indices.size:
                schedule.append(int(indices[position]))
    return np.array(schedule, dtype=np.int64)


def proportional_interleave_reference(
    first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Per-position Bresenham merge of two packet streams."""
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    total = first.size + second.size
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    schedule = np.empty(total, dtype=np.int64)
    taken_first = 0
    taken_second = 0
    for position in range(total):
        # Emit from the stream whose progress lags its share the most.
        need_first = (position + 1) * first.size / total
        if taken_first < first.size and (
            taken_first < need_first or taken_second >= second.size
        ):
            schedule[position] = first[taken_first]
            taken_first += 1
        else:
            schedule[position] = second[taken_second]
            taken_second += 1
    return schedule


def gilbert_loss_mask_serial(
    channel: GilbertChannel, count: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """The historical sojourn-by-sojourn Gilbert chain (seed-compatible)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(rng)
    mask = np.empty(count, dtype=bool)
    if count == 0:
        return mask
    if channel.p == 0.0:
        mask[:] = False
        return mask
    if channel.q == 0.0:
        mask[:] = True
        return mask

    in_loss_state = bool(rng.random() < channel.global_loss_probability)
    filled = 0
    batch_size = channel._SOJOURN_BATCH
    while filled < count:
        gap_runs = rng.geometric(channel.p, size=batch_size)
        burst_runs = rng.geometric(channel.q, size=batch_size)
        for index in range(batch_size):
            run = int(burst_runs[index] if in_loss_state else gap_runs[index])
            run = min(run, count - filled)
            mask[filled : filled + run] = in_loss_state
            filled += run
            in_loss_state = not in_loss_state
            if filled >= count:
                break
    return mask
