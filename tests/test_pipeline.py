"""Batched run-synthesis pipeline: batch/serial equivalence and columnar results.

The pipeline contract is that every batched stage -- ``schedule_batch``,
``loss_mask_batch``, the received-batch assembly and the columnar
``RunResultBatch`` -- is bit-identical to the per-run incremental path for
any seed.  This suite sweeps the full tx model x rx model x channel matrix
(including the trace and periodic channels, which have no decoder-level
parity test elsewhere), drives a hypothesis sweep over random
configurations, and pins the dispatch rules (shared generators, duck-typed
models, ragged schedules) to the per-run reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.bernoulli import BernoulliChannel, PerfectChannel
from repro.channel.gilbert import GilbertChannel
from repro.channel.periodic import PeriodicBurstChannel
from repro.channel.trace import TraceChannel
from repro.core.metrics import CellStats, RunResultBatch
from repro.core.simulator import Simulator
from repro.fastpath import simulate_batch, simulate_batch_columnar
from repro.fec.registry import make_code
from repro.kernels import available_backends, get_backend, kernel_scope
from repro.pipeline import can_batch_stages, synthesize_runs
from repro.runner.units import WorkUnit, execute_unit
from repro.scheduling.interleaver import block_interleave, proportional_interleave
from repro.scheduling.registry import available_tx_models, make_tx_model
from serial_reference import (
    block_interleave_reference,
    gilbert_loss_mask_serial,
    proportional_interleave_reference,
)

#: A loss trace with structure (bursts and gaps), for the replay channels.
_TRACE = (np.sin(np.arange(41) * 1.7) > 0.2).tolist()

#: Every channel family; trace and periodic previously lacked a batched
#: parity test at the simulation level.
CHANNELS = [
    GilbertChannel(0.05, 0.5),
    GilbertChannel(0.3, 0.2),
    GilbertChannel(0.99, 0.99),
    GilbertChannel(0.0, 0.5),
    GilbertChannel(0.2, 0.0),
    BernoulliChannel(0.2),
    BernoulliChannel(0.0),
    BernoulliChannel(1.0),
    PerfectChannel(),
    PeriodicBurstChannel(7, 2, offset=3),
    TraceChannel(_TRACE),
    TraceChannel(_TRACE, cyclic=False),
    TraceChannel(_TRACE, random_offset=True),
    TraceChannel(_TRACE, cyclic=False, random_offset=True),
]

TX_MODELS = [(f"tx_model_{i}", {}) for i in range(1, 7)] + [
    ("rx_model_1", {"num_source_packets": 17}),
    ("rx_model_1", {"num_source_packets": 17, "pick_randomly": False}),
]

CODES = [("ldgm-staircase", 2.5), ("rse", 2.5), ("repetition", 2.0)]


def seeded_rngs(salt, runs):
    return [
        np.random.default_rng(np.random.SeedSequence([1811, salt, run]))
        for run in range(runs)
    ]


def reference_results(code, tx_model, channel, rngs, nsent=None):
    """One incremental Simulator.run per generator (the ground truth)."""
    return [
        Simulator(code, tx_model, channel).run(rng, nsent=nsent) for rng in rngs
    ]


class TestScheduleBatch:
    """schedule_batch row i == schedule(rngs[i]), generators consumed alike."""

    @pytest.mark.parametrize("tx_name,options", TX_MODELS)
    @pytest.mark.parametrize("code_name,ratio", CODES)
    def test_rows_and_generator_state(self, tx_name, options, code_name, ratio):
        code = make_code(code_name, k=60, expansion_ratio=ratio, seed=5)
        model = make_tx_model(tx_name, **options)
        serial_rngs, batch_rngs = seeded_rngs(0, 6), seeded_rngs(0, 6)
        rows = [model.schedule(code.layout, rng) for rng in serial_rngs]
        batch = model.schedule_batch(code.layout, batch_rngs)
        assert batch.shape == (6, rows[0].size)
        for index, row in enumerate(rows):
            assert np.array_equal(batch[index], row)
        for serial_rng, batch_rng in zip(serial_rngs, batch_rngs):
            assert serial_rng.integers(1 << 30) == batch_rng.integers(1 << 30)

    def test_deterministic_models_broadcast(self):
        code = make_code("rse", k=60, expansion_ratio=2.5, seed=5)
        for name in ("tx_model_1", "tx_model_5"):
            model = make_tx_model(name)
            assert not model.uses_rng
            batch = model.schedule_batch(code.layout, seeded_rngs(1, 4))
            assert batch.base is not None  # a broadcast view, not 4 copies
            assert np.array_equal(batch[0], model.schedule(code.layout))

    def test_default_implementation_stacks_third_party_models(self):
        class ThirdPartyModel(make_tx_model("tx_model_1").__class__.__mro__[1]):
            name = "third-party"

            def schedule(self, layout, rng=None):
                rng = np.random.default_rng(0) if rng is None else rng
                return np.sort(rng.choice(layout.n, size=5, replace=False))

        code = make_code("ldgm-staircase", k=40, expansion_ratio=2.5, seed=1)
        model = ThirdPartyModel()
        batch = model.schedule_batch(code.layout, seeded_rngs(2, 3))
        rows = [model.schedule(code.layout, rng) for rng in seeded_rngs(2, 3)]
        assert isinstance(batch, np.ndarray) and batch.shape == (3, 5)
        for index, row in enumerate(rows):
            assert np.array_equal(batch[index], row)

    def test_default_implementation_returns_ragged_rows_as_list(self):
        class RaggedModel(make_tx_model("tx_model_1").__class__.__mro__[1]):
            name = "ragged"

            def schedule(self, layout, rng=None):
                size = 3 + int(rng.integers(4))
                return np.arange(size, dtype=np.int64)

        code = make_code("ldgm-staircase", k=40, expansion_ratio=2.5, seed=1)
        batch = RaggedModel().schedule_batch(code.layout, seeded_rngs(3, 8))
        rows = [RaggedModel().schedule(code.layout, rng) for rng in seeded_rngs(3, 8)]
        assert isinstance(batch, list)
        assert [row.size for row in batch] == [row.size for row in rows]


class TestLossMaskBatch:
    """loss_mask_batch row i == loss_mask(rngs[i]), for every channel."""

    @pytest.mark.parametrize("channel", CHANNELS, ids=repr)
    @pytest.mark.parametrize("count", [0, 1, 23, 400])
    def test_rows_and_generator_state(self, channel, count):
        serial = np.stack(
            [channel.loss_mask(count, rng) for rng in seeded_rngs(4, 5)]
        ).reshape(5, count)
        batch = channel.loss_mask_batch(count, seeded_rngs(4, 5))
        assert np.array_equal(np.asarray(batch), serial)
        serial_rngs, batch_rngs = seeded_rngs(4, 5), seeded_rngs(4, 5)
        for rng in serial_rngs:
            channel.loss_mask(count, rng)
        channel.loss_mask_batch(count, batch_rngs)
        for serial_rng, batch_rng in zip(serial_rngs, batch_rngs):
            assert serial_rng.integers(1 << 30) == batch_rng.integers(1 << 30)

    def test_deterministic_channels_do_not_consume_generators(self):
        for channel in (
            PerfectChannel(),
            PeriodicBurstChannel(5, 2),
            TraceChannel(_TRACE),
        ):
            assert not channel.uses_rng
            rngs = seeded_rngs(5, 3)
            channel.loss_mask_batch(50, rngs)
            fresh = seeded_rngs(5, 3)
            for used, untouched in zip(rngs, fresh):
                assert used.integers(1 << 30) == untouched.integers(1 << 30)

    def test_uses_rng_flags(self):
        assert GilbertChannel(0.1, 0.5).uses_rng
        assert not GilbertChannel(0.0, 0.5).uses_rng
        assert not GilbertChannel(0.1, 0.0).uses_rng
        assert BernoulliChannel(0.5).uses_rng
        assert not BernoulliChannel(0.0).uses_rng
        assert not BernoulliChannel(1.0).uses_rng
        assert TraceChannel(_TRACE, random_offset=True).uses_rng
        assert not TraceChannel(_TRACE).uses_rng

    def test_gilbert_batch_matches_serial_reference_chain(self):
        channel = GilbertChannel(0.07, 0.3)
        masks = channel.loss_mask_batch(300, seeded_rngs(6, 4))
        for index, rng in enumerate(seeded_rngs(6, 4)):
            assert np.array_equal(
                masks[index], gilbert_loss_mask_serial(channel, 300, rng)
            )

    def test_fill_sojourns_batch_matches_per_row_fill(self):
        rng = np.random.default_rng(11)
        states = rng.random(8) < 0.5
        gap_runs = rng.geometric(0.1, size=(8, 16)).astype(np.int64)
        burst_runs = rng.geometric(0.6, size=(8, 16)).astype(np.int64)
        from repro.kernels import available_backends

        reference = None
        for kernel in available_backends():
            backend = get_backend(kernel)
            masks = np.empty((8, 40), dtype=bool)
            filled = backend.fill_sojourns_batch(masks, states, gap_runs, burst_runs)
            rows = np.empty((8, 40), dtype=bool)
            expected = [
                backend.fill_sojourns(rows[i], 0, bool(states[i]), gap_runs[i], burst_runs[i])
                for i in range(8)
            ]
            assert filled.tolist() == expected
            for i, count in enumerate(expected):
                assert np.array_equal(masks[i, :count], rows[i, :count])
            if reference is None:
                reference = (filled.copy(), masks.copy())
            else:
                assert np.array_equal(reference[0], filled)
                for i, count in enumerate(expected):
                    assert np.array_equal(reference[1][i, :count], masks[i, :count])


class TestPipelineEquivalence:
    """Full matrix: batched pipeline == per-run incremental simulator."""

    @pytest.mark.parametrize("channel", CHANNELS, ids=repr)
    @pytest.mark.parametrize("tx_name,options", TX_MODELS)
    def test_tx_by_channel(self, tx_name, options, channel):
        code = make_code("ldgm-staircase", k=40, expansion_ratio=2.5, seed=3)
        tx_model = make_tx_model(tx_name, **options)
        expected = reference_results(code, tx_model, channel, seeded_rngs(7, 4))
        actual = simulate_batch(code, tx_model, channel, seeded_rngs(7, 4))
        assert actual == expected

    @pytest.mark.parametrize("code_name,ratio", CODES)
    @pytest.mark.parametrize(
        "channel",
        [GilbertChannel(0.1, 0.4), PeriodicBurstChannel(9, 3), TraceChannel(_TRACE, random_offset=True)],
        ids=repr,
    )
    def test_codes_by_channel(self, code_name, ratio, channel):
        code = make_code(code_name, k=60, expansion_ratio=ratio, seed=2)
        tx_model = make_tx_model("tx_model_2")
        expected = reference_results(code, tx_model, channel, seeded_rngs(8, 5))
        actual = simulate_batch(code, tx_model, channel, seeded_rngs(8, 5))
        assert actual == expected

    def test_nsent_truncation(self):
        code = make_code("rse", k=60, expansion_ratio=2.5, seed=2)
        tx_model = make_tx_model("tx_model_4")
        channel = TraceChannel(_TRACE)
        for nsent in (1, 40, 5000):
            expected = reference_results(
                code, tx_model, channel, seeded_rngs(9, 4), nsent=nsent
            )
            actual = simulate_batch(
                code, tx_model, channel, seeded_rngs(9, 4), nsent=nsent
            )
            assert actual == expected

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        code_index=st.integers(min_value=0, max_value=len(CODES) - 1),
        tx_index=st.integers(min_value=0, max_value=len(TX_MODELS) - 1),
        channel_index=st.integers(min_value=0, max_value=len(CHANNELS) - 1),
        k=st.integers(min_value=2, max_value=70),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        runs=st.integers(min_value=1, max_value=5),
        nsent=st.none() | st.integers(min_value=1, max_value=250),
    )
    def test_random_configurations_bit_identical(
        self, code_index, tx_index, channel_index, k, seed, runs, nsent
    ):
        code_name, ratio = CODES[code_index]
        try:
            code = make_code(code_name, k=k, expansion_ratio=ratio, seed=seed)
        except ValueError:
            return  # degenerate dimensions (e.g. RSE without parity room)
        tx_name, options = TX_MODELS[tx_index]
        tx_model = make_tx_model(tx_name, **options)
        channel = CHANNELS[channel_index]
        rngs = lambda: [
            np.random.default_rng(np.random.SeedSequence([seed, run]))
            for run in range(runs)
        ]
        expected = reference_results(code, tx_model, channel, rngs(), nsent=nsent)
        actual = simulate_batch(code, tx_model, channel, rngs(), nsent=nsent)
        assert actual == expected


class TestDispatch:
    """Stage-major batching only where provably draw-identical."""

    def _layout_rngs(self, shared):
        if shared:
            rng = np.random.default_rng(5)
            return [rng] * 4
        return seeded_rngs(10, 4)

    def test_distinct_generators_batch(self):
        assert can_batch_stages(
            make_tx_model("tx_model_2"), GilbertChannel(0.1, 0.5), self._layout_rngs(False)
        )

    def test_shared_generator_with_two_stochastic_stages_falls_back(self):
        assert not can_batch_stages(
            make_tx_model("tx_model_2"), GilbertChannel(0.1, 0.5), self._layout_rngs(True)
        )

    def test_shared_generator_with_one_stochastic_stage_batches(self):
        assert can_batch_stages(
            make_tx_model("tx_model_1"), GilbertChannel(0.1, 0.5), self._layout_rngs(True)
        )
        assert can_batch_stages(
            make_tx_model("tx_model_2"), PerfectChannel(), self._layout_rngs(True)
        )

    def test_duck_typed_model_falls_back(self):
        class DuckModel:
            name = "duck"

            def schedule(self, layout, rng=None):
                return np.arange(layout.n, dtype=np.int64)

            def validate_schedule(self, layout, schedule):
                return np.asarray(schedule, dtype=np.int64)

        assert not can_batch_stages(
            DuckModel(), PerfectChannel(), self._layout_rngs(False)
        )
        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=1)
        expected = reference_results(
            code, DuckModel(), GilbertChannel(0.2, 0.4), seeded_rngs(11, 3)
        )
        actual = simulate_batch(
            code, DuckModel(), GilbertChannel(0.2, 0.4), seeded_rngs(11, 3)
        )
        assert actual == expected

    def test_shared_generator_pipeline_still_bit_identical(self):
        code = make_code("ldgm-staircase", k=50, expansion_ratio=2.5, seed=4)
        for tx_name, channel in [
            ("tx_model_2", GilbertChannel(0.1, 0.5)),  # fallback path
            ("tx_model_1", GilbertChannel(0.1, 0.5)),  # batched, shared rng
            ("tx_model_2", PeriodicBurstChannel(6, 2)),  # batched, shared rng
        ]:
            tx_model = make_tx_model(tx_name)
            serial = reference_results(
                code, tx_model, channel, [np.random.default_rng(9)] * 5
            )
            batched = simulate_batch(
                code, tx_model, channel, [np.random.default_rng(9)] * 5
            )
            assert batched == serial

    def test_shared_generator_gilbert_continuation_draw_order(self):
        # Regression: with a shared generator, a deterministic tx model and
        # a Gilbert chain whose first sojourn batch does not cover the mask
        # (short sojourns, long schedule), the serial path draws a run's
        # continuation batches *before* the next run's state draw.  The
        # batched channel stage must pre-draw them in that exact order.
        code = make_code("ldgm-staircase", k=1500, expansion_ratio=2.0, seed=11)
        channel = GilbertChannel(0.9, 0.9)  # mean sojourn ~1.1: continuation certain
        for tx_name in ("tx_model_1", "tx_model_5"):
            tx_model = make_tx_model(tx_name)
            serial = reference_results(
                code, tx_model, channel, [np.random.default_rng(42)] * 8
            )
            batched = simulate_batch(
                code, tx_model, channel, [np.random.default_rng(42)] * 8
            )
            assert batched == serial

    def test_ragged_third_party_schedules_flow_through(self):
        from repro.scheduling.base import TransmissionModel

        class RaggedModel(TransmissionModel):
            name = "ragged"

            def schedule(self, layout, rng=None):
                size = 5 + int(rng.integers(layout.n - 5))
                order = np.arange(layout.n, dtype=np.int64)
                rng.shuffle(order)
                return order[:size]

        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=6)
        expected = reference_results(
            code, RaggedModel(), PerfectChannel(), seeded_rngs(12, 5)
        )
        actual = simulate_batch(
            code, RaggedModel(), PerfectChannel(), seeded_rngs(12, 5)
        )
        assert actual == expected


class TestValidation:
    def test_out_of_range_index_raises_once_per_unit(self):
        from repro.scheduling.base import TransmissionModel

        class BadModel(TransmissionModel):
            name = "bad"
            uses_rng = False

            def schedule(self, layout, rng=None):
                schedule = np.arange(layout.n, dtype=np.int64)
                schedule[-1] = layout.n  # out of range
                return schedule

        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=0)
        with pytest.raises(ValueError, match="outside"):
            simulate_batch(code, BadModel(), PerfectChannel(), seeded_rngs(13, 3))

    def test_schedule_validated_once_not_per_run(self):
        calls = {"count": 0}
        model = make_tx_model("tx_model_2")
        original = model.validate_schedule

        def counting_validate(layout, schedule):
            calls["count"] += 1
            return original(layout, schedule)

        model.validate_schedule = counting_validate
        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=0)
        # Batched path: bounds are checked on the assembled arrays, so the
        # per-run validate hook is not consulted at all.
        simulate_batch(code, model, GilbertChannel(0.1, 0.5), seeded_rngs(14, 6))
        assert calls["count"] == 0
        # Interleaved reference path: exactly one validation per work unit.
        simulate_batch(
            code, model, GilbertChannel(0.1, 0.5), [np.random.default_rng(3)] * 6
        )
        assert calls["count"] == 1


def _gather_cases():
    """``(schedules, loss)`` layouts the dense assembly hands to the gather."""
    rng = np.random.default_rng(np.random.SeedSequence([19, 7]))
    runs, width = 9, 83
    rows = np.stack([rng.permutation(width) for _ in range(runs)]).astype(np.int64)
    bursts = np.repeat(rng.random((runs, width // 4 + 1)) < 0.4, 4, axis=1)[:, :width]
    scattered = rng.random((runs, width)) < 0.3
    row = np.broadcast_to(rows[0], (runs, width))
    kept = np.broadcast_to(np.zeros(width, dtype=bool), (runs, width))
    lost = np.broadcast_to(np.ones(width, dtype=bool), (runs, width))
    return {
        "dense": (rows, scattered),
        "dense-bursts": (rows, bursts),
        "broadcast-schedule": (row, bursts),
        "broadcast-kept": (rows, kept),
        "broadcast-lost": (rows, lost),
        "broadcast-both-kept": (row, kept),
        "broadcast-both-lost": (row, lost),
        "nsent-view": (rows[:, :50], bursts[:, :50]),
        "broadcast-nsent-view": (row[:, :50], kept[:, :50]),
        "one-run": (rows[:1], scattered[:1]),
        "runs=0": (rows[:0], scattered[:0]),
        "width=0": (rows[:, :0], scattered[:, :0]),
        "broadcast-width=0": (row[:, :0], kept[:, :0]),
    }


def _assert_same_batch(actual, expected):
    assert np.array_equal(actual.flat, expected.flat)
    assert np.array_equal(actual.offsets, expected.offsets)
    assert np.array_equal(actual.lengths, expected.lengths)
    assert actual.flat.dtype == expected.flat.dtype == np.int64
    assert actual.index_bound == expected.index_bound


class TestGatherReceived:
    """The backends' received-batch gather against the numpy default."""

    needs_cext = pytest.mark.skipif(
        "cext" not in available_backends(), reason="cext backend unavailable"
    )

    @pytest.mark.parametrize("case", sorted(_gather_cases()))
    def test_numpy_default_matches_per_run_selection(self, case):
        schedules, loss = _gather_cases()[case]
        batch = get_backend("numpy").gather_received(schedules, loss, 83)
        assert batch.num_runs == schedules.shape[0]
        assert batch.index_bound == 83
        for index, (row, mask) in enumerate(zip(schedules, loss)):
            assert np.array_equal(batch.run(index), row[~mask])

    @needs_cext
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", sorted(_gather_cases()))
    def test_cext_matches_numpy_default(self, case, threads):
        schedules, loss = _gather_cases()[case]
        expected = get_backend("numpy").gather_received(schedules, loss, 83)
        with kernel_scope("cext", threads):
            actual = get_backend("cext").gather_received(schedules, loss, 83)
        _assert_same_batch(actual, expected)

    @needs_cext
    def test_cext_reads_broadcast_rows_and_views_in_place(self):
        from repro.kernels.cext import _rows

        for case in ("broadcast-schedule", "broadcast-kept", "nsent-view"):
            schedules, loss = _gather_cases()[case]
            assert _rows(schedules, np.int64) is schedules
            assert _rows(loss, np.bool_) is loss

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("bad", [-3, 83, 10**12])
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_only_received_indices_are_range_checked(self, kernel, bad, broadcast):
        schedules, _ = _gather_cases()["dense"]
        schedules = schedules.copy()
        schedules[:, 17] = bad
        if broadcast:
            schedules = np.broadcast_to(schedules[0], schedules.shape)
        backend = get_backend(kernel)
        loss = np.zeros(schedules.shape, dtype=bool)
        loss[:, [3, 17]] = True  # the bad slot is lost in every run
        batch = backend.gather_received(schedules, loss, 83)
        assert batch.flat.size == schedules.shape[0] * (schedules.shape[1] - 2)
        loss[4, 17] = False  # ... until one run receives it
        with pytest.raises(ValueError, match=r"outside \[0, 83\)"):
            backend.gather_received(schedules, loss, 83)
        with pytest.raises(ValueError, match=r"outside \[0, 83\)"):
            backend.gather_received(
                schedules, np.broadcast_to(np.zeros(83, dtype=bool), schedules.shape), 83
            )

    @pytest.mark.parametrize("kernel", available_backends())
    def test_synthesised_batches_carry_their_bound(self, kernel):
        code = make_code("rse", k=40, expansion_ratio=2.5)
        with kernel_scope(kernel):
            for tx_name in ("tx_model_2", "tx_model_5"):
                synthesis = synthesize_runs(
                    code.layout, make_tx_model(tx_name), GilbertChannel(0.1, 0.5),
                    seeded_rngs(21, 4),
                )
                assert synthesis.batch.index_bound == code.n
                assert synthesis.batch.slice(1, 3).index_bound == code.n
            # One shared generator and two drawing stages: the per-run
            # loop, which checks the assembled batch once and records it too.
            shared = [np.random.default_rng(5)] * 4
            synthesis = synthesize_runs(
                code.layout, make_tx_model("tx_model_2"), GilbertChannel(0.1, 0.5), shared
            )
        assert synthesis.batch.index_bound == code.n


class TestColumnarResults:
    def _batch(self):
        code = make_code("ldgm-staircase", k=40, expansion_ratio=2.5, seed=3)
        return (
            simulate_batch_columnar(
                code,
                make_tx_model("tx_model_2"),
                BernoulliChannel(0.4),
                seeded_rngs(15, 8),
            ),
            code,
        )

    def test_columnar_matches_scalar_results(self):
        batch, code = self._batch()
        results = simulate_batch(
            code,
            make_tx_model("tx_model_2"),
            BernoulliChannel(0.4),
            seeded_rngs(15, 8),
        )
        assert batch.to_results() == results
        assert batch.runs == len(results)
        assert batch.failures == sum(1 for r in results if not r.decoded)
        assert batch.received_ratios().tolist() == [r.received_ratio for r in results]
        assert batch.inefficiency_ratios().tolist() == [
            r.inefficiency_ratio for r in results if r.decoded
        ]

    def test_from_results_roundtrip(self):
        batch, _ = self._batch()
        rebuilt = RunResultBatch.from_results(batch.to_results())
        assert np.array_equal(rebuilt.decoded, batch.decoded)
        assert np.array_equal(rebuilt.n_necessary, batch.n_necessary)
        assert np.array_equal(rebuilt.n_received, batch.n_received)
        assert np.array_equal(rebuilt.n_sent, batch.n_sent)
        assert (rebuilt.k, rebuilt.n) == (batch.k, batch.n)

    def test_concatenate(self):
        batch, _ = self._batch()
        first, second = batch.to_results()[:3], batch.to_results()[3:]
        joined = RunResultBatch.concatenate(
            [RunResultBatch.from_results(first), RunResultBatch.from_results(second)]
        )
        assert joined.to_results() == batch.to_results()
        assert RunResultBatch.concatenate([]).runs == 0
        with pytest.raises(ValueError, match="dimensions"):
            RunResultBatch.concatenate(
                [batch, RunResultBatch(
                    decoded=np.zeros(1, dtype=bool),
                    n_necessary=np.full(1, -1, dtype=np.int64),
                    n_received=np.zeros(1, dtype=np.int64),
                    n_sent=np.zeros(1, dtype=np.int64),
                    k=batch.k + 1,
                    n=batch.n,
                )]
            )

    def test_cellstats_add_batch_matches_per_result_add(self):
        batch, _ = self._batch()
        columnar, scalar = CellStats(), CellStats()
        columnar.add_batch(batch)
        for result in batch.to_results():
            scalar.add(result)
        assert columnar == scalar

    def test_simulator_run_batch(self):
        code = make_code("rse", k=40, expansion_ratio=2.5, seed=1)
        simulator = Simulator(
            code, make_tx_model("tx_model_5"), GilbertChannel(0.1, 0.6)
        )
        batch = simulator.run_batch(6, rng=21)
        expected = Simulator(
            code, make_tx_model("tx_model_5"), GilbertChannel(0.1, 0.6)
        ).run_many(6, rng=21)
        assert batch.to_results() == expected

    def test_empty_batch(self):
        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=0)
        batch = simulate_batch_columnar(
            code, make_tx_model("tx_model_1"), PerfectChannel(), []
        )
        assert batch.runs == 0
        assert batch.to_results() == []


class TestRunnerColumnar:
    def test_execute_unit_matches_reference(self):
        from repro.core.config import SimulationConfig

        unit = WorkUnit(
            config=SimulationConfig(
                code="ldgm-staircase", tx_model="tx_model_2", k=80, expansion_ratio=2.5
            ),
            p=0.1,
            q=0.5,
            seed_path=(1, 2),
            run_start=0,
            run_stop=6,
            base_seed=33,
        )
        from unit_reference import reference_unit_result

        assert execute_unit(unit) == reference_unit_result(unit)


class TestVectorisedInterleavers:
    def test_block_interleave_matches_reference(self):
        for code_name, k in [("rse", 95), ("rse", 200), ("repetition", 30)]:
            code = make_code(code_name, k=k, expansion_ratio=2.0, seed=1)
            assert np.array_equal(
                block_interleave(code.layout),
                block_interleave_reference(code.layout),
            )

    def test_proportional_interleave_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            first = rng.integers(0, 500, size=int(rng.integers(0, 60)))
            second = rng.integers(500, 1000, size=int(rng.integers(0, 60)))
            assert np.array_equal(
                proportional_interleave(first, second),
                proportional_interleave_reference(first, second),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        first_size=st.integers(min_value=0, max_value=200),
        second_size=st.integers(min_value=0, max_value=200),
    )
    def test_proportional_interleave_property(self, first_size, second_size):
        first = np.arange(first_size, dtype=np.int64)
        second = np.arange(1000, 1000 + second_size, dtype=np.int64)
        assert np.array_equal(
            proportional_interleave(first, second),
            proportional_interleave_reference(first, second),
        )


class TestSynthesizeRuns:
    def test_synthesis_matches_manual_front_end(self):
        code = make_code("ldgm-staircase", k=50, expansion_ratio=2.5, seed=7)
        tx_model = make_tx_model("tx_model_3")
        channel = GilbertChannel(0.15, 0.45)
        synthesis = synthesize_runs(
            code.layout, tx_model, channel, seeded_rngs(16, 5)
        )
        for index, rng in enumerate(seeded_rngs(16, 5)):
            schedule = tx_model.schedule(code.layout, rng)
            mask = channel.loss_mask(schedule.size, rng)
            expected = schedule[~mask]
            assert synthesis.n_sent[index] == schedule.size
            assert np.array_equal(synthesis.batch.run(index), expected)
        assert synthesis.num_runs == 5
        assert np.array_equal(
            synthesis.n_received, synthesis.batch.lengths
        )

    def test_empty_rngs(self):
        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=0)
        synthesis = synthesize_runs(
            code.layout, make_tx_model("tx_model_1"), PerfectChannel(), []
        )
        assert synthesis.num_runs == 0
        assert synthesis.n_sent.size == 0
