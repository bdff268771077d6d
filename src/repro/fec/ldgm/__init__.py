"""LDGM, LDGM Staircase and LDGM Triangle codes.

These are the large-block codes of the paper (section 2.3).  They are built
from a sparse binary parity-check matrix ``H = [H1 | H2]``:

* ``H1`` ((n-k) x k) connects source packets to check nodes with a regular
  left degree of 3 (each source packet appears in exactly 3 equations).
* ``H2`` ((n-k) x (n-k)) connects parity packets to check nodes and is what
  distinguishes the variants: the identity for plain LDGM, a staircase
  (dual-diagonal) matrix for LDGM Staircase, and the staircase plus a
  progressively filled lower triangle for LDGM Triangle.

Encoding is a cascade of XORs; decoding uses the iterative (peeling)
algorithm of section 2.3.2.  A maximum-likelihood (Gaussian elimination)
decoder is provided as an extension for the ablation benchmarks.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "code": "LDGMCode LDGMStaircaseCode LDGMTriangleCode",
    "decoder": "LDGMPayloadDecoder",
    "encoder": "LDGMEncoder",
    "matrix": "LDGMVariant ParityCheckMatrix build_parity_check_matrix",
    "ml_decoder": "ml_decodable ml_necessary_count",
    "symbolic": "LDGMSymbolicDecoder",
})

__all__ = [
    "LDGMVariant",
    "ParityCheckMatrix",
    "build_parity_check_matrix",
    "LDGMEncoder",
    "LDGMPayloadDecoder",
    "LDGMSymbolicDecoder",
    "LDGMCode",
    "LDGMStaircaseCode",
    "LDGMTriangleCode",
    "ml_decodable",
    "ml_necessary_count",
]
