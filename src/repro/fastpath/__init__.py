"""Vectorised batch-simulation fast path.

The incremental simulator (:mod:`repro.core.simulator`) feeds packets one
at a time through a symbolic decoder -- the right abstraction for clarity
and the reference for correctness, but a Python-level loop in the hottest
path of every sweep.  This package replaces it with array computation that
is **bit-identical** for any seed:

* :mod:`repro.fastpath.prototypes` -- per-code precompiled decoder state
  (RSE/repetition block tables, LDGM peeling arrays) whose batched decode
  runs on a pluggable :mod:`repro.kernels` backend, plus an incremental
  fallback for other codes.
* :mod:`repro.fastpath.batch` -- :func:`simulate_batch_columnar`, the
  drop-in batch equivalent of running the simulator once per run: the
  batched :mod:`repro.pipeline` front end (whole-unit schedules, loss
  masks and received assembly as arrays) plus the prototype decode,
  returning columnar :class:`~repro.core.metrics.RunResultBatch` arrays
  (:func:`simulate_batch` wraps them back into per-run results).

Every sweep decodes through this package; the incremental path stays as
the test oracle (``Simulator.run``, ``Simulator.run_many(fastpath=False)``
and :func:`decode_batch_incremental`).  ``--kernel`` /
``REPRO_KERNEL`` / :func:`repro.kernels.kernel_scope` picks the kernel
backend (numpy fallback or compiled C -- results are bit-identical
either way).
"""

from repro.fastpath.batch import (
    decode_batch_incremental,
    simulate_batch,
    simulate_batch_columnar,
)
from repro.fastpath.prototypes import (
    NOT_DECODED,
    BlockCountPrototype,
    DecoderPrototype,
    IncrementalPrototype,
    LDGMPrototype,
    ReceivedBatch,
    compile_prototype,
    register_prototype_compiler,
)

__all__ = [
    "simulate_batch",
    "simulate_batch_columnar",
    "decode_batch_incremental",
    "NOT_DECODED",
    "ReceivedBatch",
    "DecoderPrototype",
    "BlockCountPrototype",
    "LDGMPrototype",
    "IncrementalPrototype",
    "compile_prototype",
    "register_prototype_compiler",
]
