"""Reed-Solomon erasure code (RSE) over GF(2^8).

The paper's RSE code (section 2.2) follows Rizzo's codec [14]: a systematic
MDS code per block, limited to at most 256 encoding packets per block by the
field size.  Objects larger than one block are segmented, which causes the
"coupon collector" inefficiency analysed by the paper.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "blocks": "BlockPartition partition_object",
    "codec": "ReedSolomonBlockCodec",
    "object_codec": "ReedSolomonCode",
})

__all__ = [
    "ReedSolomonBlockCodec",
    "ReedSolomonCode",
    "BlockPartition",
    "partition_object",
]
