"""Batched run-synthesis pipeline: whole work units as array computation.

With the decode hot loops compiled (:mod:`repro.kernels`), the pre-decode
layers dominated the profile: per-run schedule generation, per-run channel
masks and per-run result-object construction.  This package batches those
layers the same way :mod:`repro.fastpath` batched decoding, so a work unit
flows schedule -> loss -> decode -> metrics as arrays end to end:

* :func:`synthesize_runs` -- the pre-decode front end: every run's
  transmission schedule as one ``(runs, length)`` array
  (:meth:`TransmissionModel.schedule_batch`), every run's loss mask as one
  array (:meth:`LossModel.loss_mask_batch`), and one boolean gather into
  the flat :class:`~repro.kernels.ReceivedBatch` the decoder prototypes
  consume.  Schedules are bounds-checked once per work unit, not per run.

The batched decode that consumes it is
:func:`repro.fastpath.simulate_batch_columnar`.  Both are
**bit-identical** to the per-run incremental path for any seed; the
per-run interleaved loop is retained inside :func:`synthesize_runs` as
the reference (and as the executable path for shared-generator batches and
duck-typed models without batch APIs).
"""

from repro.pipeline.synthesis import (
    SynthesizedRuns,
    can_batch_stages,
    synthesize_runs,
    synthesize_runs_unit,
)

__all__ = [
    "SynthesizedRuns",
    "synthesize_runs",
    "synthesize_runs_unit",
    "can_batch_stages",
]
