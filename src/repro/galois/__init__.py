"""GF(2^8) arithmetic and linear algebra.

The Reed-Solomon erasure code of the paper (section 2.2) operates on the
Galois field GF(2^8), the field used by Rizzo's reference codec.  This
subpackage provides:

* :mod:`repro.galois.tables` -- exponent/logarithm tables for the field.
* :mod:`repro.galois.field` -- element-wise (vectorised) field arithmetic.
* :mod:`repro.galois.matrix` -- matrix multiplication, inversion, rank and
  linear-system solving over the field.
* :mod:`repro.galois.vandermonde` -- Vandermonde and Cauchy matrix builders
  used to construct systematic MDS generator matrices.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "field": "GF256 gf_add gf_div gf_inv gf_mul gf_pow",
    "matrix": "gf_identity gf_mat_inv gf_mat_mul gf_mat_rank gf_mat_vec gf_solve",
    "vandermonde": "cauchy_matrix systematic_generator_matrix vandermonde_matrix",
})

__all__ = [
    "GF256",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_identity",
    "gf_mat_mul",
    "gf_mat_vec",
    "gf_mat_inv",
    "gf_mat_rank",
    "gf_solve",
    "vandermonde_matrix",
    "cauchy_matrix",
    "systematic_generator_matrix",
]
