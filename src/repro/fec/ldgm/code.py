"""The public LDGM code classes.

:class:`LDGMCode`, :class:`LDGMStaircaseCode` and :class:`LDGMTriangleCode`
bind a parity-check matrix to the common :class:`repro.fec.FECCode`
interface (layout, symbolic decoder, payload encoder/decoder).
"""

from __future__ import annotations

from repro.fec.base import FECCode, ObjectDecoder, ObjectEncoder, SymbolicDecoder
from repro.fec.ldgm.decoder import LDGMPayloadDecoder
from repro.fec.ldgm.encoder import LDGMEncoder
from repro.fec.ldgm.matrix import (
    DEFAULT_LEFT_DEGREE,
    LDGMVariant,
    ParityCheckMatrix,
    build_parity_check_matrix,
)
from repro.fec.ldgm.symbolic import LDGMSymbolicDecoder
from repro.fec.packet import PacketLayout, single_block_layout
from repro.utils.rng import RandomState


class _BaseLDGMCode(FECCode):
    """Common implementation of the three LDGM variants."""

    variant: LDGMVariant = LDGMVariant.LDGM

    def __init__(
        self,
        k: int,
        n: int,
        *,
        left_degree: int = DEFAULT_LEFT_DEGREE,
        seed: RandomState = None,
    ):
        super().__init__(k, n)
        self._matrix = build_parity_check_matrix(
            k, n, self.variant, left_degree=left_degree, seed=seed
        )
        self._layout = single_block_layout(k, n)

    @property
    def matrix(self) -> ParityCheckMatrix:
        """The parity-check matrix backing this code instance."""
        return self._matrix

    @property
    def left_degree(self) -> int:
        """Requested left degree (actual degree may be capped for tiny codes)."""
        return int(
            max((cols.size for cols in self._matrix.source_cols), default=0)
        )

    @property
    def layout(self) -> PacketLayout:
        return self._layout

    def new_symbolic_decoder(self) -> SymbolicDecoder:
        return LDGMSymbolicDecoder(self._matrix)

    def new_encoder(self) -> ObjectEncoder:
        return LDGMEncoder(self._matrix)

    def new_decoder(self) -> ObjectDecoder:
        return LDGMPayloadDecoder(self._matrix)


class LDGMCode(_BaseLDGMCode):
    """Plain LDGM: the parity part of H is the identity matrix."""

    name = "ldgm"
    variant = LDGMVariant.LDGM


class LDGMStaircaseCode(_BaseLDGMCode):
    """LDGM Staircase: the parity part of H is a staircase (dual diagonal)."""

    name = "ldgm-staircase"
    variant = LDGMVariant.STAIRCASE


class LDGMTriangleCode(_BaseLDGMCode):
    """LDGM Triangle: staircase plus a progressively filled lower triangle."""

    name = "ldgm-triangle"
    variant = LDGMVariant.TRIANGLE


__all__ = ["LDGMCode", "LDGMStaircaseCode", "LDGMTriangleCode"]
