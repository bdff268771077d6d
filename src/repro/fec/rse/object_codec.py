"""Multi-block Reed-Solomon erasure code for whole objects.

:class:`ReedSolomonCode` ties together the block partitioner, the per-block
codec and the symbolic decoder behind the common :class:`repro.fec.FECCode`
interface used by the simulator and the FLUTE substrate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.fec.base import (
    FECCode,
    ObjectDecoder,
    ObjectEncoder,
    SymbolicDecoder,
    check_payloads,
)
from repro.fec.packet import PacketLayout, multi_block_layout
from repro.fec.rse.blocks import MAX_BLOCK_SIZE_GF256, BlockPartition, partition_object
from repro.fec.rse.codec import ReedSolomonBlockCodec
from repro.fec.rse.symbolic import RSESymbolicDecoder
from repro.utils.rng import RandomState


class ReedSolomonCode(FECCode):
    """Reed-Solomon erasure code (RSE) for an object of ``k`` source packets.

    The object is segmented into blocks of at most ``max_block_size``
    encoding packets (256 for GF(2^8)); each block is encoded independently
    with a systematic MDS codec.

    Parameters
    ----------
    k, n:
        Global number of source / encoding packets.
    max_block_size:
        Upper bound on the number of encoding packets per block.
    construction:
        Generator-matrix construction (``"vandermonde"`` or ``"cauchy"``).
    seed:
        Accepted for interface uniformity with the LDGM codes; RSE is
        deterministic so the value is ignored.
    """

    name = "rse"

    def __init__(
        self,
        k: int,
        n: int,
        *,
        max_block_size: int = MAX_BLOCK_SIZE_GF256,
        construction: str = "vandermonde",
        seed: RandomState = None,
    ):
        super().__init__(k, n)
        self._partition = partition_object(k, n, max_block_size=max_block_size)
        self._layout = multi_block_layout(self._partition.block_ks, self._partition.block_ns)
        self._construction = construction
        self._codecs: Dict[tuple[int, int], ReedSolomonBlockCodec] = {}

    @property
    def is_mds(self) -> bool:
        return True

    @property
    def partition(self) -> BlockPartition:
        """The block partition used for this object."""
        return self._partition

    @property
    def num_blocks(self) -> int:
        return self._partition.num_blocks

    @property
    def layout(self) -> PacketLayout:
        return self._layout

    def new_symbolic_decoder(self) -> SymbolicDecoder:
        return RSESymbolicDecoder(self._layout)

    def new_encoder(self) -> ObjectEncoder:
        return _RSEObjectEncoder(self)

    def new_decoder(self) -> ObjectDecoder:
        return _RSEObjectDecoder(self)

    def _block_codec(self, block_k: int, block_n: int) -> ReedSolomonBlockCodec:
        """Cache block codecs: many blocks share the same (k_b, n_b)."""
        key = (block_k, block_n)
        codec = self._codecs.get(key)
        if codec is None:
            codec = ReedSolomonBlockCodec(block_k, block_n, construction=self._construction)
            self._codecs[key] = codec
        return codec


class _RSEObjectEncoder(ObjectEncoder):
    """Encode the whole object block by block."""

    def __init__(self, code: ReedSolomonCode):
        self._code = code

    def encode(self, source_payloads: Sequence[bytes]) -> list[bytes]:
        code = self._code
        payload_len, source_matrix = check_payloads(source_payloads, code.k)
        output: list[Optional[bytes]] = [None] * code.n
        for block in code.layout.blocks:
            codec = code._block_codec(block.k, block.n)
            block_sources = source_matrix[block.source_indices]
            encoded = codec.encode(block_sources)
            for row, index in enumerate(block.all_indices):
                output[int(index)] = encoded[row].tobytes()
        assert all(payload is not None for payload in output)
        return output  # type: ignore[return-value]


class _RSEObjectDecoder(ObjectDecoder):
    """Incremental payload decoder: buffers packets per block, solves each
    block as soon as it has ``k_b`` distinct packets."""

    def __init__(self, code: ReedSolomonCode):
        self._code = code
        self._layout = code.layout
        self._block_of = np.empty(code.n, dtype=np.int64)
        self._esi_of = np.empty(code.n, dtype=np.int64)
        for block in self._layout.blocks:
            for esi, index in enumerate(block.all_indices):
                self._block_of[int(index)] = block.block_id
                self._esi_of[int(index)] = esi
        self._pending: Dict[int, Dict[int, bytes]] = {
            block.block_id: {} for block in self._layout.blocks
        }
        self._recovered: Dict[int, np.ndarray] = {}
        self._payload_len: Optional[int] = None

    def add_packet(self, index: int, payload: bytes) -> bool:
        if not 0 <= index < self._code.n:
            raise IndexError(f"packet index {index} out of range [0, {self._code.n})")
        if self.is_complete:
            return True
        if self._payload_len is None:
            self._payload_len = len(payload)
        elif len(payload) != self._payload_len:
            raise ValueError(
                f"payload length {len(payload)} does not match previous packets "
                f"({self._payload_len})"
            )
        block_id = int(self._block_of[index])
        if block_id in self._recovered:
            return self.is_complete
        pending = self._pending[block_id]
        esi = int(self._esi_of[index])
        if esi in pending:
            return self.is_complete
        pending[esi] = bytes(payload)
        block = self._layout.blocks[block_id]
        if len(pending) >= block.k:
            self._decode_block(block_id)
        return self.is_complete

    def _decode_block(self, block_id: int) -> None:
        block = self._layout.blocks[block_id]
        pending = self._pending[block_id]
        codec = self._code._block_codec(block.k, block.n)
        esis = sorted(pending)
        symbols = np.vstack(
            [np.frombuffer(pending[esi], dtype=np.uint8) for esi in esis]
        )
        self._recovered[block_id] = codec.decode(esis, symbols)
        self._pending[block_id].clear()

    @property
    def is_complete(self) -> bool:
        return len(self._recovered) == self._layout.num_blocks

    def source_payloads(self) -> list[bytes]:
        if not self.is_complete:
            raise RuntimeError("decoding is not complete yet")
        payloads: list[Optional[bytes]] = [None] * self._code.k
        for block in self._layout.blocks:
            recovered = self._recovered[block.block_id]
            for row, index in enumerate(block.source_indices):
                payloads[int(index)] = recovered[row].tobytes()
        assert all(payload is not None for payload in payloads)
        return payloads  # type: ignore[return-value]


__all__ = ["ReedSolomonCode"]
