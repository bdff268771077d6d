"""FEC framework and the three codes studied in the paper.

The paper (section 2) compares three application-layer packet erasure codes:

* **RSE** -- the Reed-Solomon erasure code over GF(2^8), a small-block MDS
  code.  Large objects must be segmented into blocks of at most 256 encoding
  packets, which is the source of the "coupon collector" inefficiency.
* **LDGM Staircase** -- a large-block LDPC-derived code whose parity part of
  the parity-check matrix is a staircase (dual-diagonal) matrix.
* **LDGM Triangle** -- LDGM Staircase with the triangle below the staircase
  progressively filled.

All codes expose the same interface (:class:`repro.fec.base.FECCode`): a
:class:`~repro.fec.base.PacketLayout` describing source/parity packets, real
payload encoders/decoders, and a *symbolic* decoder that only tracks packet
indices -- the simulator uses symbolic decoders because the paper's
inefficiency-ratio metric depends only on *which* packets arrive and in what
order, not on their content.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": "DecoderState FECCode ObjectDecoder ObjectEncoder SymbolicDecoder",
    "ldgm": "LDGMCode LDGMStaircaseCode LDGMTriangleCode",
    "packet": "BlockLayout Packet PacketKind PacketLayout",
    "registry": "available_codes make_code register_code",
    "repetition": "RepetitionCode",
    "rse": "ReedSolomonCode",
})

__all__ = [
    "FECCode",
    "ObjectEncoder",
    "ObjectDecoder",
    "SymbolicDecoder",
    "DecoderState",
    "Packet",
    "PacketKind",
    "PacketLayout",
    "BlockLayout",
    "ReedSolomonCode",
    "RepetitionCode",
    "LDGMCode",
    "LDGMStaircaseCode",
    "LDGMTriangleCode",
    "make_code",
    "register_code",
    "available_codes",
]
