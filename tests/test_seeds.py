"""Tests for the versioned seed-scheme subsystem (``repro.seeds``)."""

import json

import numpy as np
import pytest

from repro.channel.bernoulli import BernoulliChannel
from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.core.sweep import simulate_grid
from repro.fec.registry import make_code
from repro.pipeline.synthesis import synthesize_runs_unit
from repro.store.codec import RESULT_SCHEMA, unit_key
from repro.store.json_dir import JsonDirStore
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, plan_units
from repro.scheduling.registry import make_tx_model
from repro.seeds import (
    DEFAULT_SCHEME,
    ENV_VAR,
    PerRunScheme,
    UnitScheme,
    available_schemes,
    get_scheme,
    resolve_scheme_name,
)


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


class TestRegistry:
    def test_builtin_schemes_registered(self):
        assert available_schemes() == ["per-run", "unit"]
        assert isinstance(get_scheme("per-run"), PerRunScheme)
        assert isinstance(get_scheme("unit"), UnitScheme)

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_scheme_name(None) == DEFAULT_SCHEME

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "unit")
        assert resolve_scheme_name(None) == "unit"
        # An explicit argument beats the environment.
        assert resolve_scheme_name("per-run") == "per-run"

    def test_unknown_scheme_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown seed scheme"):
            resolve_scheme_name("nope")
        monkeypatch.setenv(ENV_VAR, "stale-name")
        with pytest.raises(ValueError, match="REPRO_SEED_SCHEME"):
            resolve_scheme_name(None)

    def test_scheme_instance_passthrough(self):
        scheme = get_scheme("unit")
        assert get_scheme(scheme) is scheme
        assert resolve_scheme_name(scheme) == "unit"

    def test_only_per_run_streams_ignore_unit_boundaries(self):
        assert get_scheme("per-run").chunk_invariant
        assert not get_scheme("unit").chunk_invariant
        for name in available_schemes():
            scheme = get_scheme(name)
            assert scheme.chunk_invariant is not scheme.batches_units

    def test_tokens_are_versioned(self):
        assert get_scheme("per-run").token() == "per-run/v1"
        assert get_scheme("unit").token() == "unit/v1"


class TestPerRunGoldenStreams:
    """``"per-run"`` must reproduce the pre-seeds streams bit-for-bit."""

    def test_streams_match_seed_sequence_formula(self):
        streams = get_scheme("per-run").unit_streams(42, (3, 5), 2, 6)
        assert streams.unit_rng is None
        for run, rng in zip(range(2, 6), streams.run_rngs()):
            reference = np.random.default_rng(
                np.random.SeedSequence([42, 3, 5, run])
            )
            assert np.array_equal(
                rng.integers(0, 2**63, size=8), reference.integers(0, 2**63, size=8)
            )

    def test_golden_values_pinned(self):
        # Literal first draws of run 0 of cell (0, 0) at base seed 0 --
        # the exact stream every pre-PR-5 sweep consumed.  If this test
        # fails, historical results are no longer reproducible.
        rng = get_scheme("per-run").unit_streams(0, (0, 0), 0, 1).run_rng(0)
        assert rng.integers(0, 2**31, size=4).tolist() == [
            1826701615,
            1367864807,
            1097657232,
            579362556,
        ]

    def test_run_rng_range_checked(self):
        streams = get_scheme("per-run").unit_streams(0, (0,), 2, 4)
        with pytest.raises(ValueError):
            streams.run_rng(1)
        with pytest.raises(ValueError):
            streams.run_rng(4)


class TestUnitScheme:
    def test_unit_rng_present_and_deterministic(self):
        scheme = get_scheme("unit")
        first = scheme.unit_streams(9, (1, 2), 0, 4)
        second = scheme.unit_streams(9, (1, 2), 0, 4)
        assert first.unit_rng is not None
        assert np.array_equal(
            first.unit_rng.integers(0, 2**63, size=16),
            second.unit_rng.integers(0, 2**63, size=16),
        )

    def test_distinct_cells_distinct_streams(self):
        scheme = get_scheme("unit")
        a = scheme.unit_streams(9, (1, 2), 0, 4).unit_rng.integers(0, 2**63, size=8)
        b = scheme.unit_streams(9, (2, 1), 0, 4).unit_rng.integers(0, 2**63, size=8)
        c = scheme.unit_streams(8, (1, 2), 0, 4).unit_rng.integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_run_windows_do_not_overlap_unit_stream(self):
        # The unit generator of [0, N) lives inside run 0's counter
        # window; run 1's window starts RUN_STRIDE blocks later, so even
        # a huge unit draw cannot reach it.
        scheme = get_scheme("unit")
        streams = scheme.unit_streams(3, (0,), 0, 2)
        unit_draws = streams.unit_rng.integers(0, 2**63, size=100_000)
        run1 = scheme.unit_streams(3, (0,), 0, 2).run_rng(1)
        run1_draws = run1.integers(0, 2**63, size=8)
        # Any window overlap would make run 1's draws a subsequence of
        # the unit stream; check a full-match window scan.
        view = np.lib.stride_tricks.sliding_window_view(unit_draws, 8)
        assert not (view == run1_draws).all(axis=1).any()

    def test_disjoint_unit_ranges_distinct_streams(self):
        scheme = get_scheme("unit")
        a = scheme.unit_streams(3, (0,), 0, 4).unit_rng.integers(0, 2**63, size=8)
        b = scheme.unit_streams(3, (0,), 4, 8).unit_rng.integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)


class TestSchedulingUnitBatches:
    def test_unit_rows_are_valid_schedules(self):
        layout = make_code("ldgm-staircase", k=50, expansion_ratio=2.0, seed=1).layout
        rng = np.random.default_rng(0)
        for name in ("tx_model_2", "tx_model_3", "tx_model_4"):
            model = make_tx_model(name)
            rows = model.schedule_batch_unit(layout, np.random.default_rng(0), 6)
            assert rows.shape == (6, layout.n)
            for row in rows:
                assert sorted(row.tolist()) == list(range(layout.n))
        # Rows must not all be equal (each run gets its own shuffle).
        rows = make_tx_model("tx_model_4").schedule_batch_unit(layout, rng, 6)
        assert len({tuple(row) for row in rows}) > 1

    def test_tx6_unit_rows_subset_plus_parity(self):
        layout = make_code("ldgm-staircase", k=50, expansion_ratio=2.0, seed=1).layout
        model = make_tx_model("tx_model_6")
        keep = int(round(model.source_fraction * layout.k))
        rows = model.schedule_batch_unit(layout, np.random.default_rng(0), 5)
        assert rows.shape == (5, keep + layout.parity_indices.size)
        source = set(layout.source_indices.tolist())
        parity = set(layout.parity_indices.tolist())
        for row in rows:
            values = row.tolist()
            assert len(set(values)) == len(values)
            assert parity <= set(values)
            assert set(values) - parity <= source

    def test_deterministic_models_broadcast(self):
        layout = make_code("ldgm-staircase", k=50, expansion_ratio=2.0, seed=1).layout
        model = make_tx_model("tx_model_1")
        rows = model.schedule_batch_unit(layout, np.random.default_rng(0), 3)
        reference = model.schedule(layout)
        assert np.array_equal(rows, np.broadcast_to(reference, (3, layout.n)))


class TestChannelUnitBatches:
    def test_bernoulli_matches_rate(self):
        masks = BernoulliChannel(0.3).loss_mask_batch_unit(
            4000, np.random.default_rng(0), 8
        )
        assert masks.shape == (8, 4000)
        assert abs(masks.mean() - 0.3) < 0.02

    def test_gilbert_unit_block_statistics(self):
        channel = GilbertChannel(0.05, 0.5)
        masks = channel.loss_mask_batch_unit(5000, np.random.default_rng(1), 8)
        assert masks.shape == (8, 5000)
        assert abs(masks.mean() - channel.global_loss_probability) < 0.03

    def test_gilbert_unit_continuation_rows(self):
        # p = q = 0.999 makes every sojourn ~1 packet, so one 256-sojourn
        # batch covers ~256 packets and count = 2000 forces the
        # chain-style continuation for every row.
        channel = GilbertChannel(0.999, 0.999)
        masks = channel.loss_mask_batch_unit(2000, np.random.default_rng(2), 4)
        assert masks.shape == (4, 2000)
        assert abs(masks.mean() - 0.5) < 0.1

    def test_gilbert_unit_deterministic(self):
        channel = GilbertChannel(0.05, 0.5)
        a = channel.loss_mask_batch_unit(500, np.random.default_rng(3), 4)
        b = channel.loss_mask_batch_unit(500, np.random.default_rng(3), 4)
        assert np.array_equal(a, b)

    def test_degenerate_chains_broadcast(self):
        assert not GilbertChannel(0.0, 0.5).loss_mask_batch_unit(
            10, np.random.default_rng(0), 3
        ).any()
        assert GilbertChannel(0.5, 0.0).loss_mask_batch_unit(
            10, np.random.default_rng(0), 3
        ).all()


class TestUnitSynthesis:
    def test_unit_synthesis_deterministic_and_shaped(self):
        code = make_code("ldgm-staircase", k=100, expansion_ratio=2.0, seed=1)
        tx_model = make_tx_model("tx_model_2")
        channel = GilbertChannel(0.05, 0.5)
        first = synthesize_runs_unit(
            code.layout, tx_model, channel, np.random.default_rng(5), 6
        )
        second = synthesize_runs_unit(
            code.layout, tx_model, channel, np.random.default_rng(5), 6
        )
        assert first.num_runs == 6
        assert np.array_equal(first.batch.flat, second.batch.flat)
        assert np.array_equal(first.n_sent, second.n_sent)
        assert (first.n_received <= first.n_sent).all()

    def test_duck_typed_models_fall_back(self):
        # A model/channel without the *_batch_unit APIs must still work
        # (sequential draws from the shared generator).
        code = make_code("ldgm-staircase", k=60, expansion_ratio=2.0, seed=1)

        class DuckTx:
            uses_rng = True

            def schedule(self, layout, rng=None):
                order = np.arange(layout.n, dtype=np.int64)
                rng.shuffle(order)
                return order

            def validate_schedule(self, layout, schedule):
                return np.asarray(schedule, dtype=np.int64)

        class DuckChannel:
            uses_rng = True

            def loss_mask(self, count, rng=None):
                return rng.random(count) < 0.1

        synthesis = synthesize_runs_unit(
            code.layout, DuckTx(), DuckChannel(), np.random.default_rng(0), 4
        )
        assert synthesis.num_runs == 4


class TestSimulatorSchemes:
    def test_run_batch_unit_scheme_deterministic(self):
        code = make_code("ldgm-staircase", k=100, expansion_ratio=2.0, seed=1)
        simulator = Simulator(code, make_tx_model("tx_model_2"), GilbertChannel(0.05, 0.5))
        a = simulator.run_batch(8, 3, seed_scheme="unit")
        b = simulator.run_batch(8, 3, seed_scheme="unit")
        assert np.array_equal(a.n_necessary, b.n_necessary)

    def test_run_many_honours_fastpath_false_per_scheme(self):
        # fastpath=False must decode with the incremental reference, not
        # silently route to the fast path -- and stay bit-identical to
        # fastpath=True within each scheme.
        code = make_code("ldgm-staircase", k=100, expansion_ratio=2.0, seed=1)
        simulator = Simulator(code, make_tx_model("tx_model_2"), GilbertChannel(0.05, 0.5))
        for scheme in ("per-run", "unit"):
            fast = simulator.run_many(4, 9, seed_scheme=scheme)
            slow = simulator.run_many(4, 9, seed_scheme=scheme, fastpath=False)
            assert fast == slow

    def test_batch_streams_from_generator_not_narrowed(self):
        # A Generator seed must consume four 63-bit words (matching the
        # spawn_rngs fix), not as_seed_int's single 31-bit draw.
        code = make_code("ldgm-staircase", k=100, expansion_ratio=2.0, seed=1)
        simulator = Simulator(code, make_tx_model("tx_model_2"), GilbertChannel(0.05, 0.5))
        source = np.random.default_rng(77)
        simulator._batch_streams(2, source, "unit")
        after = np.random.default_rng(77)
        after.integers(0, 2**63 - 1, size=4)
        assert np.array_equal(
            source.integers(0, 2**63, size=2), after.integers(0, 2**63, size=2)
        )

    def test_run_many_per_run_scheme_matches_formula(self):
        code = make_code("ldgm-staircase", k=100, expansion_ratio=2.0, seed=1)
        simulator = Simulator(code, make_tx_model("tx_model_2"), GilbertChannel(0.05, 0.5))
        results = simulator.run_many(3, 5, seed_scheme="per-run")
        reference = [
            simulator.run(np.random.default_rng(np.random.SeedSequence([5, run])))
            for run in range(3)
        ]
        assert results == reference


class TestRunnerUnitScheme:
    def test_fresh_code_per_run_deterministic(self, config):
        first = simulate_grid(
            config, [0.05], [0.5], runs=2, seed=3, fresh_code_per_run=True,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        second = simulate_grid(
            config, [0.05], [0.5], runs=2, seed=3, fresh_code_per_run=True,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        assert np.array_equal(
            first.mean_inefficiency, second.mean_inefficiency, equal_nan=True
        )

    def test_schemes_differ_but_sharding_is_stable_per_scheme(self, config):
        per_run = simulate_grid(
            config, [0.05], [0.5], runs=4, seed=11,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        unit = simulate_grid(
            config, [0.05], [0.5], runs=4, seed=11,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        assert not np.array_equal(
            per_run.mean_inefficiency, unit.mean_inefficiency, equal_nan=True
        )
        # Under "unit" the sharding is part of the stream definition:
        # different runs_per_unit values are allowed to (and generally do)
        # produce different -- but individually deterministic -- results.
        from repro.runner.engine import run_grid

        sharded_a = run_grid(
            config, [0.05], [0.5], runs=4, seed=11, runs_per_unit=2,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        sharded_b = run_grid(
            config, [0.05], [0.5], runs=4, seed=11, runs_per_unit=2,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        assert np.array_equal(
            sharded_a.mean_inefficiency, sharded_b.mean_inefficiency, equal_nan=True
        )

    def test_env_default_reaches_runner(self, config, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "unit")
        grid = simulate_grid(config, [0.05], [0.5], runs=2, seed=1)
        assert grid.metadata["seed_scheme"] == "unit"
        explicit = simulate_grid(
            config, [0.05], [0.5], runs=2, seed=1,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        assert np.array_equal(
            grid.mean_inefficiency, explicit.mean_inefficiency, equal_nan=True
        )


class TestCrossSchemeStatistics:
    def test_inefficiency_estimates_agree(self, config):
        # The two schemes draw different streams of the *same* model, so
        # their decoding-inefficiency estimates must agree within
        # Monte-Carlo tolerance.  160 runs of the k=200 staircase give a
        # standard error of ~0.004 on the mean inefficiency; 0.03 is ~7
        # sigma -- loose enough to be flake-free, tight enough to catch a
        # biased block draw (a wrong subset distribution shifts the mean
        # by far more).
        kw = dict(runs=160, seed=13)
        per_run = simulate_grid(
            config, [0.05], [0.5], **kw,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        unit = simulate_grid(
            config, [0.05], [0.5], **kw,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        assert per_run.failure_counts.sum() == 0
        assert unit.failure_counts.sum() == 0
        delta = abs(
            float(per_run.mean_inefficiency[0, 0]) - float(unit.mean_inefficiency[0, 0])
        )
        assert delta < 0.03, delta

    def test_received_ratio_estimates_agree(self, config):
        kw = dict(runs=160, seed=17)
        per_run = simulate_grid(
            config, [0.3], [0.6], **kw,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        unit = simulate_grid(
            config, [0.3], [0.6], **kw,
            options=ExecutionOptions(seed_scheme="unit"),
        )
        delta = abs(
            float(per_run.mean_received_ratio[0, 0])
            - float(unit.mean_received_ratio[0, 0])
        )
        assert delta < 0.03, delta


class TestCacheSchemeHygiene:
    def test_scheme_is_part_of_the_key(self, config):
        per_run = plan_units(
            [((0, 0), config, 0.05, 0.5)], runs=2, base_seed=9,
            options=ExecutionOptions(seed_scheme="per-run"),
        )[0]
        unit = plan_units(
            [((0, 0), config, 0.05, 0.5)], runs=2, base_seed=9,
            options=ExecutionOptions(seed_scheme="unit"),
        )[0]
        assert unit_key(per_run) != unit_key(unit)

    def test_payload_records_scheme_and_schema(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        unit = plan_units(
            [((0, 0), config, 0.05, 0.5)], runs=2, base_seed=9,
            options=ExecutionOptions(seed_scheme="unit"),
        )[0]
        cache.put(unit, execute_unit(unit))
        path = cache._path(unit_key(unit))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["seed_scheme"] == "unit"
        assert cache.get(unit) is not None

    def test_old_schema_entry_is_a_miss(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        unit = plan_units([((0, 0), config, 0.05, 0.5)], runs=2, base_seed=9)[0]
        cache.put(unit, execute_unit(unit))
        path = cache._path(unit_key(unit))
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["schema"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(unit) is None  # a miss, not an error

    def test_scheme_counts(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        for scheme in ("per-run", "unit"):
            for seed in (1, 2):
                unit = plan_units(
                    [((0, 0), config, 0.05, 0.5)], runs=1, base_seed=seed,
                    options=ExecutionOptions(seed_scheme=scheme),
                )[0]
                cache.put(unit, execute_unit(unit))
        assert cache.scheme_counts() == {"per-run": 2, "unit": 2}


class TestSpawnRngsRegression:
    def test_generator_entropy_not_narrowed(self):
        # Regression for the single-63-bit-draw funnel: spawning from a
        # Generator must consume four words and seed the SeedSequence
        # with all of them.
        from repro.utils.rng import spawn_rngs

        source = np.random.default_rng(123)
        spawned = spawn_rngs(source, 3)
        reference_source = np.random.default_rng(123)
        entropy = [
            int(word) for word in reference_source.integers(0, 2**63 - 1, size=4)
        ]
        reference = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(entropy).spawn(3)
        ]
        for left, right in zip(spawned, reference):
            assert np.array_equal(
                left.integers(0, 2**63, size=4), right.integers(0, 2**63, size=4)
            )
        # And the generator advanced past a single draw (the old funnel).
        after = np.random.default_rng(123)
        after.integers(0, 2**63 - 1, size=4)
        assert np.array_equal(
            source.integers(0, 2**63, size=2), after.integers(0, 2**63, size=2)
        )
