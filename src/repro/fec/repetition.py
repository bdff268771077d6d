"""Packet repetition pseudo-code (the "no FEC" baseline of section 4.2).

Instead of FEC parity packets, every source packet is simply transmitted
``copies`` times.  The paper uses this baseline (figure 7) to motivate the
use of real FEC: with any loss at all, a receiver essentially has to wait
for the end of the transmission (inefficiency ratio close to the number of
copies) and decoding often fails entirely.

The baseline is modelled as a :class:`repro.fec.FECCode` so the simulator,
schedulers and benchmarks can treat it uniformly: encoding packet ``i``
simply carries source packet ``i mod k``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fec.base import (
    FECCode,
    ObjectDecoder,
    ObjectEncoder,
    SymbolicDecoder,
    check_payloads,
)
from repro.fec.packet import PacketLayout, single_block_layout
from repro.utils.rng import RandomState


class RepetitionCode(FECCode):
    """Send every source packet ``copies`` times (no real FEC).

    ``n`` must be a multiple of ``k``; packet ``i`` is a copy of source
    packet ``i mod k``.
    """

    name = "repetition"

    def __init__(self, k: int, n: int, *, seed: RandomState = None):
        super().__init__(k, n)
        if n % k != 0:
            raise ValueError(
                f"repetition requires n to be a multiple of k, got k={k}, n={n}"
            )
        self._copies = n // k
        self._layout = single_block_layout(k, n)

    @property
    def copies(self) -> int:
        """Number of times each source packet is transmitted."""
        return self._copies

    @property
    def layout(self) -> PacketLayout:
        return self._layout

    def source_of(self, index: int) -> int:
        """Source packet carried by encoding packet ``index``."""
        if not 0 <= index < self.n:
            raise IndexError(f"packet index {index} out of range [0, {self.n})")
        return index % self.k

    def new_symbolic_decoder(self) -> SymbolicDecoder:
        return _RepetitionSymbolicDecoder(self)

    def new_encoder(self) -> ObjectEncoder:
        return _RepetitionEncoder(self)

    def new_decoder(self) -> ObjectDecoder:
        return _RepetitionDecoder(self)


class _RepetitionSymbolicDecoder(SymbolicDecoder):
    def __init__(self, code: RepetitionCode):
        self._code = code
        self._have = np.zeros(code.k, dtype=bool)
        self._count = 0

    def add_packet(self, index: int) -> bool:
        source = self._code.source_of(index)
        if not self._have[source]:
            self._have[source] = True
            self._count += 1
        return self.is_complete

    @property
    def is_complete(self) -> bool:
        return self._count >= self._code.k

    @property
    def decoded_source_count(self) -> int:
        return self._count


class _RepetitionEncoder(ObjectEncoder):
    def __init__(self, code: RepetitionCode):
        self._code = code

    def encode(self, source_payloads: Sequence[bytes]) -> list[bytes]:
        _, matrix = check_payloads(source_payloads, self._code.k)
        return [matrix[i % self._code.k].tobytes() for i in range(self._code.n)]


class _RepetitionDecoder(ObjectDecoder):
    def __init__(self, code: RepetitionCode):
        self._code = code
        self._payloads: list[bytes | None] = [None] * code.k
        self._count = 0

    def add_packet(self, index: int, payload: bytes) -> bool:
        source = self._code.source_of(index)
        if self._payloads[source] is None:
            self._payloads[source] = bytes(payload)
            self._count += 1
        return self.is_complete

    @property
    def is_complete(self) -> bool:
        return self._count >= self._code.k

    def source_payloads(self) -> list[bytes]:
        if not self.is_complete:
            raise RuntimeError("decoding is not complete yet")
        return list(self._payloads)  # type: ignore[arg-type]


__all__ = ["RepetitionCode"]
