"""Maximum-likelihood (Gaussian elimination) decoding for LDGM codes.

The paper only uses the iterative decoder; ML decoding over GF(2) is
provided as an extension so the ablation benchmark
(``benchmarks/bench_ablation_ml_decoding.py``) can quantify how much of the
measured inefficiency is attributable to the decoder rather than to the
code itself.

Decoding success criterion: the submatrix of ``H`` restricted to the
*unknown* (not received) message nodes has full column rank, i.e. every
unknown node -- source or parity -- is uniquely determined by the check
equations.  This is the standard "full rank" condition; it is marginally
stricter than requiring only the source nodes to be determined, and the
difference is negligible for the regimes studied here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.fec.ldgm.matrix import ParityCheckMatrix


def _unknown_row_masks(matrix: ParityCheckMatrix, known: np.ndarray) -> list[int]:
    """Represent every check row as an integer bitmask over unknown columns."""
    unknown_indices = np.nonzero(~known)[0]
    position_of = {int(col): bit for bit, col in enumerate(unknown_indices)}
    masks = []
    for row in range(matrix.num_checks):
        mask = 0
        for col in matrix.row_columns(row):
            bit = position_of.get(int(col))
            if bit is not None:
                mask |= 1 << bit
        if mask:
            masks.append(mask)
    return masks


def _gf2_rank(masks: Sequence[int]) -> int:
    """Rank of a set of GF(2) row vectors given as integer bitmasks.

    Classic XOR-basis construction: every basis vector is indexed by its
    leading bit, and each incoming row is reduced against the basis until it
    is either zero (dependent) or contributes a new pivot.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for mask in masks:
        current = mask
        while current:
            leading_bit = current.bit_length() - 1
            pivot = pivots.get(leading_bit)
            if pivot is None:
                pivots[leading_bit] = current
                rank += 1
                break
            current ^= pivot
    return rank


def ml_decodable(matrix: ParityCheckMatrix, known: np.ndarray) -> bool:
    """Whether ML (Gaussian elimination) decoding succeeds.

    Parameters
    ----------
    matrix:
        The parity-check matrix of the code.
    known:
        Boolean array of length ``n``; ``True`` marks received packets.
    """
    known = np.asarray(known, dtype=bool)
    if known.shape != (matrix.n,):
        raise ValueError(f"known must have shape ({matrix.n},), got {known.shape}")
    num_unknown = int(np.count_nonzero(~known))
    if num_unknown == 0:
        return True
    # All unknown source nodes must at least be coverable; a quick necessary
    # condition before the rank computation.
    if num_unknown > matrix.num_checks:
        return False
    masks = _unknown_row_masks(matrix, known)
    return _gf2_rank(masks) == num_unknown


def ml_necessary_count(
    matrix: ParityCheckMatrix, received_order: Sequence[int]
) -> Optional[int]:
    """Number of received packets needed before ML decoding succeeds.

    ``received_order`` lists the packet indices in arrival order (duplicates
    allowed; they count as received packets, matching the simulator's
    accounting).  Returns ``None`` if decoding fails even with every listed
    packet.

    Because decodability is monotone in the set of received packets, the
    answer is found by binary search over the prefix length, each probe
    costing one GF(2) rank computation.
    """
    received_order = list(received_order)
    total = len(received_order)

    def known_after(prefix: int) -> np.ndarray:
        known = np.zeros(matrix.n, dtype=bool)
        for index in received_order[:prefix]:
            known[int(index)] = True
        return known

    if not ml_decodable(matrix, known_after(total)):
        return None
    low, high = 0, total
    while low < high:
        middle = (low + high) // 2
        if ml_decodable(matrix, known_after(middle)):
            high = middle
        else:
            low = middle + 1
    return low


__all__ = ["ml_decodable", "ml_necessary_count"]
