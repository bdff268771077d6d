"""Batched run execution: the vectorised replacement for the per-run loop.

:func:`simulate_batch_columnar` is the fast-path equivalent of calling
:meth:`repro.core.simulator.Simulator.run` once per run.  The pre-decode
front end -- schedules, loss masks, received assembly -- is produced by the
batched :func:`repro.pipeline.synthesize_runs` pipeline (whole work unit as
``(runs, length)`` arrays, falling back to the per-run interleaved
reference loop exactly where stage-major draws could diverge), and the
resulting :class:`~repro.kernels.ReceivedBatch` is decoded by the code's
precompiled :class:`~repro.fastpath.prototypes.DecoderPrototype`.  Results
come back columnar (:class:`~repro.core.metrics.RunResultBatch`) --
bit-identical to the serial loop for any seed, on every kernel backend;
:func:`simulate_batch` keeps the historical list-of-:class:`RunResult` API
on top of it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.channel.base import LossModel
from repro.core.metrics import RunResult, RunResultBatch
from repro.fastpath.prototypes import compile_prototype
from repro.fec.base import FECCode
from repro.fec.packet import PacketLayout
from repro.kernels import kernel_scope
from repro.kernels.base import replay_decode_batch
from repro.pipeline.synthesis import (
    SynthesizedRuns,
    synthesize_runs,
    synthesize_runs_unit,
)
from repro.seeds import UnitStreams
from repro.utils.rng import RandomState


def simulate_batch_columnar(
    code: FECCode,
    tx_model,
    channel: LossModel,
    rngs: Union[Sequence[RandomState], UnitStreams],
    *,
    nsent: Optional[int] = None,
    synthesis: Optional[SynthesizedRuns] = None,
) -> RunResultBatch:
    """Simulate one transmission per generator in ``rngs``, fully columnar.

    ``rngs`` may contain distinct generators (one independent stream per
    run, the runner's per-run scheme) or the same generator repeated
    (``run_many``'s sequential consumption) -- either way the draws happen
    in the exact order of the incremental path.  It may also be a
    :class:`repro.seeds.UnitStreams` carrying a whole-unit generator (the
    counter-based ``"unit"`` scheme), in which case the front end is
    synthesised by the unconditional block-draw path of
    :func:`repro.pipeline.synthesize_runs_unit`.  The hot loops run on
    the enclosing :func:`~repro.kernels.kernel_scope`'s backend and thread
    team; called outside one, the call opens its own (``REPRO_KERNEL`` /
    ``REPRO_KERNEL_THREADS`` / auto).

    ``synthesis`` hands over a front end :func:`synthesize_front_end`
    already produced for these very streams, layout and models (the
    runner shares one between the codes of a cell); only the decode
    runs then, and ``rngs`` is not drawn from.
    """
    with kernel_scope():
        if synthesis is None:
            synthesis = synthesize_front_end(code.layout, tx_model, channel, rngs, nsent=nsent)
        batch = synthesis.batch
        decoded, n_necessary = compile_prototype(code).decode_batch(batch)
        return RunResultBatch(
            decoded=decoded,
            n_necessary=n_necessary,
            n_received=batch.lengths,
            n_sent=synthesis.n_sent,
            k=code.k,
            n=code.n,
        )


def synthesize_front_end(
    layout: PacketLayout,
    tx_model,
    channel: LossModel,
    rngs: Union[Sequence[RandomState], UnitStreams],
    *,
    nsent: Optional[int] = None,
) -> SynthesizedRuns:
    """The pre-decode arrays of :func:`simulate_batch_columnar`'s runs.

    A whole-unit generator goes through
    :func:`~repro.pipeline.synthesize_runs_unit`; per-run streams and
    generator lists through :func:`~repro.pipeline.synthesize_runs`.
    """
    if isinstance(rngs, UnitStreams):
        if rngs.unit_rng is not None:
            return synthesize_runs_unit(
                layout, tx_model, channel, rngs.unit_rng, rngs.runs, nsent=nsent
            )
        rngs = rngs.run_rngs()
    return synthesize_runs(layout, tx_model, channel, rngs, nsent=nsent)


def decode_batch_incremental(code: FECCode, synthesis) -> RunResultBatch:
    """Incremental symbolic decode of an already-synthesised front end.

    The reference decoder for scheme-defined (block-drawn) front ends,
    kept as a test oracle: the pre-decode arrays come from the synthesis
    pipeline, so only the decoder differs from
    :func:`simulate_batch_columnar` -- each run is replayed through the
    code's own incremental decoder, the reference the compiled decoders
    are proven bit-identical against.
    """
    batch = synthesis.batch
    decoded, n_necessary = replay_decode_batch(code, batch)
    return RunResultBatch(
        decoded=decoded,
        n_necessary=n_necessary,
        n_received=batch.lengths,
        n_sent=synthesis.n_sent,
        k=code.k,
        n=code.n,
    )


def simulate_batch(
    code: FECCode,
    tx_model,
    channel: LossModel,
    rngs: Union[Sequence[RandomState], UnitStreams],
    *,
    nsent: Optional[int] = None,
) -> List[RunResult]:
    """Per-run result list on top of :func:`simulate_batch_columnar`.

    Kept for callers that want the historical list-of-results API; the
    hot paths (runner work units, benchmarks) consume the columnar batch
    directly and never materialise per-run objects.
    """
    return simulate_batch_columnar(code, tx_model, channel, rngs, nsent=nsent).to_results()


__all__ = [
    "simulate_batch",
    "simulate_batch_columnar",
    "synthesize_front_end",
    "decode_batch_incremental",
]
