"""Single-run simulator: scheduler -> channel -> incremental decoder.

One run reproduces what one receiver experiences during one transmission of
the object (figure 3 of the paper): the sender emits packets in the order
chosen by the transmission model, the channel erases some of them, and the
receiver feeds the surviving packets to the incremental decoder, stopping as
soon as the object is decodable.  The number of packets received at that
moment is the numerator of the inefficiency ratio.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.base import LossModel
from repro.channel.bernoulli import PerfectChannel
from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.core.metrics import RunResult, RunResultBatch
from repro.fec.base import FECCode
from repro.kernels.threads import kernel_scope
from repro.scheduling.base import TransmissionModel
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_positive_int


class Simulator:
    """Simulate transmissions of one encoded object to independent receivers.

    The code instance (hence the LDGM parity-check matrix) is fixed for the
    lifetime of the simulator; randomness across runs comes from the
    scheduler and the channel, matching a sender that encodes once and
    transmits the same object many times / to many receivers.
    """

    def __init__(
        self,
        code: FECCode,
        tx_model: TransmissionModel,
        channel: Optional[LossModel] = None,
    ):
        self.code = code
        self.tx_model = tx_model
        self.channel = channel if channel is not None else PerfectChannel()
        self._schedule_validated = False

    def _make_schedule(self, rng: np.random.Generator) -> np.ndarray:
        """One transmission schedule; fully validated on the first call only.

        Schedules of later runs come from the same model and layout, so the
        per-run bounds check is redundant (and the decoders bounds-check
        every packet index anyway).
        """
        layout = self.code.layout
        schedule = self.tx_model.schedule(layout, rng)
        if self._schedule_validated:
            return np.asarray(schedule, dtype=np.int64)
        schedule = self.tx_model.validate_schedule(layout, schedule)
        self._schedule_validated = True
        return schedule

    def run(self, rng: RandomState = None, nsent: Optional[int] = None) -> RunResult:
        """Simulate one transmission and return its :class:`RunResult`.

        Parameters
        ----------
        rng:
            Seed or generator for this run (scheduler + channel randomness).
        nsent:
            Truncate the transmission to the first ``nsent`` scheduled
            packets (section 6.2); ``None`` sends the full schedule.
        """
        rng = ensure_rng(rng)
        schedule = self._make_schedule(rng)
        if nsent is not None:
            schedule = schedule[: validate_positive_int(nsent, "nsent")]

        # The incremental path is the *reference* the fast path is checked
        # against, so its channel sampling is pinned to the numpy kernel:
        # a compiled-backend bug must not be able to reproduce on both
        # sides of an equivalence gate (outputs are bit-identical either
        # way; channels without a kernelised loop never read the scope).
        with kernel_scope("numpy"):
            loss_mask = self.channel.loss_mask(schedule.size, rng)
        received = schedule[~loss_mask]

        decoder = self.code.new_symbolic_decoder()
        add_packet = decoder.add_packet
        n_necessary: Optional[int] = None
        count = 0
        for index in received:
            count += 1
            if add_packet(index):
                n_necessary = count
                break

        return RunResult(
            decoded=decoder.is_complete,
            n_necessary=n_necessary,
            n_received=int(received.size),
            n_sent=int(schedule.size),
            k=self.code.k,
            n=self.code.n,
        )

    def _batch_streams(self, runs: int, rng: RandomState, seed_scheme):
        """Resolve what :meth:`run_many`/:meth:`run_batch` should draw from.

        ``seed_scheme=None`` keeps the historical contract -- one shared
        generator consumed sequentially across the batch, regardless of any
        ``REPRO_SEED_SCHEME`` environment default.  An explicit scheme
        derives the batch's streams from the seed with an empty cell path,
        i.e. run ``r`` of the per-run scheme draws from
        ``SeedSequence([seed, r])``.  A ``Generator`` seed is collapsed
        through four 63-bit draws (not ``as_seed_int``'s single 31-bit
        one, whose narrow space risks whole-batch stream collisions).
        """
        if seed_scheme is None:
            return [ensure_rng(rng)] * runs
        from repro.seeds import get_scheme
        from repro.utils.rng import as_seed_int

        if isinstance(rng, np.random.Generator):
            entropy = [int(word) for word in rng.integers(0, 2**63 - 1, size=4)]
            base_seed = int(
                np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0]
            )
        elif rng is None:
            # Fresh entropy, matching ``rng=None``'s meaning everywhere
            # else (as_seed_int would collapse None to the constant 0,
            # silently repeating the same "random" batch on every call).
            base_seed = int(
                np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0]
            )
        else:
            base_seed = as_seed_int(rng)
        return get_scheme(seed_scheme).unit_streams(base_seed, (), 0, runs)

    def run_many(
        self,
        runs: int,
        rng: RandomState = None,
        nsent: Optional[int] = None,
        *,
        fastpath: bool = True,
        seed_scheme=None,
    ) -> list[RunResult]:
        """Simulate ``runs`` independent transmissions.

        With ``fastpath=True`` (the default) the whole batch is decoded by
        the vectorised :mod:`repro.fastpath` engine -- bit-identical to the
        incremental loop for any seed; ``fastpath=False`` keeps the
        per-packet reference path.  The batch runs on the caller's
        :func:`~repro.kernels.kernel_scope` (default: ``REPRO_KERNEL`` /
        ``REPRO_KERNEL_THREADS`` / auto).  ``seed_scheme`` optionally
        derives the batch's streams through a named :mod:`repro.seeds`
        scheme instead of consuming ``rng`` sequentially;
        ``fastpath=False`` then decodes the scheme-defined front end with
        the incremental reference decoder (bit-identical to the fast path
        within each scheme).
        """
        if seed_scheme is not None:
            streams = self._batch_streams(runs, rng, seed_scheme)
            if fastpath:
                from repro.fastpath import simulate_batch

                return simulate_batch(
                    self.code, self.tx_model, self.channel, streams, nsent=nsent
                )
            if streams.unit_rng is not None:
                # Unit-batching scheme: same scheme-defined front end as
                # the fast path, incremental reference decode.
                from repro.fastpath import decode_batch_incremental
                from repro.pipeline.synthesis import synthesize_runs_unit

                with kernel_scope():
                    synthesis = synthesize_runs_unit(
                        self.code.layout,
                        self.tx_model,
                        self.channel,
                        streams.unit_rng,
                        streams.runs,
                        nsent=nsent,
                    )
                return decode_batch_incremental(self.code, synthesis).to_results()
            return [
                self.run(run_rng, nsent=nsent) for run_rng in streams.run_rngs()
            ]
        rng = ensure_rng(rng)
        if fastpath:
            from repro.fastpath import simulate_batch

            return simulate_batch(
                self.code, self.tx_model, self.channel, [rng] * runs, nsent=nsent
            )
        return [self.run(rng, nsent=nsent) for _ in range(runs)]

    def run_batch(
        self,
        runs: int,
        rng: RandomState = None,
        nsent: Optional[int] = None,
        *,
        seed_scheme=None,
    ) -> RunResultBatch:
        """Simulate ``runs`` independent transmissions, returning columns.

        The columnar face of :meth:`run_many`: the whole batch flows
        through the :mod:`repro.pipeline` run-synthesis pipeline and comes
        back as one :class:`~repro.core.metrics.RunResultBatch` (one array
        per metric) -- bit-identical to ``run_many(runs, rng, nsent)`` for
        any seed, without materialising per-run result objects.  An
        explicit ``seed_scheme`` derives the streams through
        :mod:`repro.seeds` instead (the ``"unit"`` scheme draws the whole
        batch's randomness as blocks from one counter-based generator).
        """
        from repro.fastpath import simulate_batch_columnar

        return simulate_batch_columnar(
            self.code,
            self.tx_model,
            self.channel,
            self._batch_streams(runs, rng, seed_scheme),
            nsent=nsent,
        )


def simulate_once(
    config: SimulationConfig,
    *,
    p: Optional[float] = None,
    q: Optional[float] = None,
    channel: Optional[LossModel] = None,
    seed: RandomState = None,
) -> RunResult:
    """Convenience helper: build everything from a config and run once.

    Either give Gilbert parameters ``p`` and ``q`` or a ready-made channel
    (a perfect channel is used if neither is supplied).

    >>> from repro.core import SimulationConfig, simulate_once
    >>> config = SimulationConfig(code="ldgm-staircase", tx_model="tx_model_2",
    ...                           k=200, expansion_ratio=2.5)
    >>> result = simulate_once(config, p=0.05, q=0.5, seed=7)
    >>> result.decoded
    True
    """
    if channel is not None and (p is not None or q is not None):
        raise ValueError("give either a channel or (p, q), not both")
    if (p is None) != (q is None):
        raise ValueError("p and q must be given together")
    rng = ensure_rng(seed)
    if channel is None:
        channel = GilbertChannel(p, q) if p is not None else PerfectChannel()
    code = config.build_code(seed=rng)
    tx_model = config.build_tx_model()
    simulator = Simulator(code, tx_model, channel)
    return simulator.run(rng, nsent=config.nsent)


__all__ = ["Simulator", "simulate_once"]
