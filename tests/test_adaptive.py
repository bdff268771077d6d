"""Tests for the adaptive sweep controller and its statistics stack."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    adaptive_grid,
    plan_first_round,
    resolve_adaptive,
    round_schedule,
)
from repro.analysis.csvio import grid_to_csv
from repro.analysis.tables import format_runs_table
from repro.core.config import SimulationConfig
from repro.core.metrics import CellStats, RunResult, RunResultBatch, SeriesResult
from repro.core.sweep import simulate_grid
from repro.resilience.faults import FaultInjectingExecutor, FaultPlan
from repro.resilience.policy import FailurePolicy
from repro.runner.engine import run_grid, run_series
from repro.runner.options import ExecutionOptions
from repro.store import MemoryStore
from repro.utils.stats import (
    mean_interval_halfwidth,
    normal_quantile,
    student_t_cdf,
    t_quantile,
    wilson_interval,
)

P_VALUES = [0.0, 0.05, 0.2, 0.5]
Q_VALUES = [0.0, 0.05, 0.2, 0.5]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


class TestStats:
    def test_normal_quantile_table_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-5)

    def test_t_quantile_table_values(self):
        assert t_quantile(0.975, df=10) == pytest.approx(2.228139, abs=1e-5)
        assert t_quantile(0.975, df=1) == pytest.approx(12.7062, abs=1e-3)
        assert t_quantile(0.95, df=30) == pytest.approx(1.697261, abs=1e-5)
        # Converges to the normal quantile for large df.
        assert t_quantile(0.975, df=10000) == pytest.approx(
            normal_quantile(0.975), abs=1e-3
        )

    def test_t_cdf_is_symmetric(self):
        for t in (0.5, 1.3, 2.7):
            assert student_t_cdf(t, 7) + student_t_cdf(-t, 7) == pytest.approx(1.0)

    def test_wilson_interval_known_value(self):
        # 8/10 successes at 95%: the classical Wilson interval.
        low, high = wilson_interval(8, 10, 0.95)
        assert low == pytest.approx(0.4902, abs=1e-3)
        assert high == pytest.approx(0.9433, abs=1e-3)

    def test_wilson_interval_boundaries(self):
        low, high = wilson_interval(10, 10, 0.95)
        assert high == 1.0 and 0.0 < low < 1.0
        low, high = wilson_interval(0, 10, 0.95)
        assert low == 0.0 and 0.0 < high < 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_width_shrinks_with_trials(self):
        widths = []
        for n in (8, 16, 32, 64):
            low, high = wilson_interval(n, n, 0.95)
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)

    def test_mean_interval_halfwidth(self):
        # 16 samples, known variance: t(0.975, 15) * sqrt(var / 16).
        expected = t_quantile(0.975, 15) * np.sqrt(0.0004 / 16)
        assert mean_interval_halfwidth(16, 0.0004, 0.95) == pytest.approx(expected)
        assert mean_interval_halfwidth(1, 0.0, 0.95) == np.inf
        assert mean_interval_halfwidth(10, 0.0, 0.95) == 0.0


class TestCellStatsStreaming:
    def _batch(self, rng, runs, fail_fraction=0.2):
        decoded = rng.random(runs) >= fail_fraction
        n_necessary = np.where(decoded, rng.integers(200, 400, size=runs), -1)
        return RunResultBatch(
            decoded=decoded,
            n_necessary=n_necessary.astype(np.int64),
            n_received=rng.integers(200, 500, size=runs).astype(np.int64),
            n_sent=np.full(runs, 500, dtype=np.int64),
            k=200,
            n=500,
        )

    def test_streaming_matches_numpy_on_random_batches(self, rng):
        stats = CellStats()
        for _ in range(7):
            stats.add_batch(self._batch(rng, int(rng.integers(1, 40))))
        reference = np.asarray(stats.inefficiency_ratios)
        assert stats.count == stats.runs
        assert stats.decoded == reference.size
        assert stats.variance == pytest.approx(np.var(reference, ddof=1), rel=1e-12)
        assert stats.stderr == pytest.approx(
            np.sqrt(np.var(reference, ddof=1) / reference.size), rel=1e-12
        )

    def test_streaming_matches_numpy_run_by_run(self, rng):
        stats = CellStats()
        for batch in [self._batch(rng, 25)]:
            for result in batch.to_results():
                stats.add(result)
        reference = np.asarray(stats.inefficiency_ratios)
        assert stats.variance == pytest.approx(np.var(reference, ddof=1), rel=1e-12)

    def test_add_ratios_matches_add_batch(self, rng):
        batch = self._batch(rng, 30)
        a, b = CellStats(), CellStats()
        a.add_batch(batch)
        b.add_ratios(
            batch.inefficiency_ratios().tolist(),
            batch.received_ratios().tolist(),
            batch.failures,
        )
        assert a.runs == b.runs and a.failures == b.failures
        assert a.variance == pytest.approx(b.variance, rel=1e-12)
        assert a.decode_probability == b.decode_probability

    def test_decode_ci_is_the_wilson_interval(self, rng):
        stats = CellStats()
        stats.add_ratios([1.1] * 8, [1.5] * 10, failures=2)
        assert stats.decode_ci(0.95) == wilson_interval(8, 10, 0.95)

    def test_variance_undefined_below_two_samples(self):
        stats = CellStats()
        assert np.isnan(stats.variance)
        stats.add_ratios([1.2], [1.2], failures=0)
        assert np.isnan(stats.variance)


class TestNaNSafeAggregates:
    def test_best_parameter_skips_empty_cells(self, config):
        # Poison index 0's only unit under --on-error skip: the cell ends
        # up empty (zero failures recorded, NaN mean) and must not win.
        policy = FailurePolicy(
            max_retries=0, on_error="skip", backoff_base=0.001, backoff_max=0.002
        )
        plan = FaultPlan(poison=frozenset({(0,)}))
        configs = [config.with_updates(expansion_ratio=r) for r in (1.5, 2.5)]
        series = run_series(
            configs, [1.5, 2.5], p=0.0, q=1.0, runs=2, seed=7,
            options=ExecutionOptions(
                executor=FaultInjectingExecutor(plan),
                failure_policy=policy,
            ),
        )
        assert np.isnan(series.mean_inefficiency[0])
        assert series.failure_counts[0] == 0
        assert series.best_parameter() == 2.5

    def test_best_parameter_nan_when_nothing_decodes(self):
        series = SeriesResult(
            parameter_name="x",
            parameter_values=np.array([1.0, 2.0]),
            mean_inefficiency=np.array([np.nan, np.nan]),
            failure_counts=np.array([0, 3]),
            runs=2,
        )
        assert np.isnan(series.best_parameter())

    def test_grid_aggregates_ignore_empty_cells(self, config):
        policy = FailurePolicy(
            max_retries=0, on_error="skip", backoff_base=0.001, backoff_max=0.002
        )
        plan = FaultPlan(poison=frozenset({(0, 0)}))
        grid = run_grid(
            config, [0.0, 0.05], [0.5, 1.0], runs=2, seed=7,
            options=ExecutionOptions(
                executor=FaultInjectingExecutor(plan),
                failure_policy=policy,
            ),
        )
        assert np.isnan(grid.mean_inefficiency[0, 0])
        assert grid.failure_counts[0, 0] == 0
        assert not grid.decodable_mask[0, 0]
        assert np.isfinite(grid.min_inefficiency())
        assert np.isfinite(grid.max_inefficiency())
        assert np.isfinite(grid.mean_over_decodable())


class TestConfigAndSchedule:
    def test_resolve_adaptive(self):
        assert resolve_adaptive(None) is None
        assert resolve_adaptive(False) is None
        assert resolve_adaptive(True) == AdaptiveConfig()
        cfg = AdaptiveConfig(ci_width=0.1)
        assert resolve_adaptive(cfg) is cfg
        assert resolve_adaptive({"ci_width": 0.1}) == cfg
        with pytest.raises(TypeError):
            resolve_adaptive(3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(confidence=1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(ci_width=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(min_runs=1)
        with pytest.raises(ValueError):
            AdaptiveConfig(growth=1.0)

    def test_schedule_targets_are_chunk_aligned(self):
        assert round_schedule(8, 2.0, 100) == [8, 16, 32, 64, 100]
        assert round_schedule(4, 2.0, 12) == [4, 8, 12]
        assert round_schedule(8, 2.0, 8) == [8]
        assert round_schedule(8, 2.0, 5) == [5]
        # Every boundary except possibly the budget is a min_runs multiple.
        for target in round_schedule(6, 1.7, 97)[:-1]:
            assert target % 6 == 0

    def test_plan_first_round_counts(self, config):
        units = plan_first_round(
            config, P_VALUES, Q_VALUES, runs=100,
            options=ExecutionOptions(adaptive=AdaptiveConfig(min_runs=8)),
        )
        assert len(units) == len(P_VALUES) * len(Q_VALUES)
        assert all(unit.run_start == 0 and unit.run_stop == 8 for unit in units)


class TestAdaptiveBitIdentity:
    # A loose width makes cells settle at different run counts, which is
    # the interesting case for the determinism contract.
    CFG = AdaptiveConfig(min_runs=4, ci_width=0.6)

    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_adaptive_equals_fixed_truncation(self, config, scheme):
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=self.CFG, seed_scheme=scheme),
        )
        runs_per_cell = np.asarray(grid.metadata["adaptive"]["runs_per_cell"])
        counts = sorted(set(runs_per_cell.ravel().tolist()))
        assert len(counts) > 1, "test wants cells settling at different counts"
        for count in counts:
            fixed = run_grid(
                config, P_VALUES, Q_VALUES, runs=int(count), seed=1,
                runs_per_unit=self.CFG.min_runs,
                options=ExecutionOptions(seed_scheme=scheme),
            )
            mask = runs_per_cell == count
            assert np.array_equal(
                grid.mean_inefficiency[mask],
                fixed.mean_inefficiency[mask],
                equal_nan=True,
            )
            assert np.array_equal(
                grid.mean_received_ratio[mask], fixed.mean_received_ratio[mask]
            )
            assert np.array_equal(
                grid.failure_counts[mask], fixed.failure_counts[mask]
            )

    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_two_fleet_workers_match_serial_adaptive(self, config, scheme):
        serial = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=self.CFG, seed_scheme=scheme),
        )
        store = MemoryStore()
        grids = {}

        def worker(name):
            grids[name] = adaptive_grid(
                config, P_VALUES, Q_VALUES, runs=12, seed=1,
                options=ExecutionOptions(
                    adaptive=self.CFG, seed_scheme=scheme, store=store, fleet=True,
                    lease_ttl=10.0, worker_id=name,
                ),
            )

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert set(grids) == {"w0", "w1"}
        for grid in grids.values():
            assert np.array_equal(
                serial.mean_inefficiency, grid.mean_inefficiency, equal_nan=True
            )
            assert np.array_equal(serial.failure_counts, grid.failure_counts)
            assert (
                serial.metadata["adaptive"]["runs_per_cell"]
                == grid.metadata["adaptive"]["runs_per_cell"]
            )
        # Each adaptive unit executed exactly once, fleet-wide.
        total_units = sum(
            len(round_schedule(self.CFG.min_runs, self.CFG.growth, runs))
            for runs in np.asarray(
                serial.metadata["adaptive"]["runs_per_cell"]
            ).ravel()
        )
        assert store.stats.writes == total_units

    def test_adaptive_run_is_cache_resumable(self, config):
        store = MemoryStore()
        first = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=self.CFG, store=store),
        )
        writes = store.stats.writes
        again = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=self.CFG, store=store),
        )
        assert store.stats.writes == writes  # everything served from cache
        assert np.array_equal(
            first.mean_inefficiency, again.mean_inefficiency, equal_nan=True
        )


class TestStoppingRule:
    def test_tighter_ci_never_runs_fewer(self, config):
        wide = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=AdaptiveConfig(min_runs=4, ci_width=0.6)),
        )
        tight = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=AdaptiveConfig(min_runs=4, ci_width=0.3)),
        )
        wide_runs = np.asarray(wide.metadata["adaptive"]["runs_per_cell"])
        tight_runs = np.asarray(tight.metadata["adaptive"]["runs_per_cell"])
        assert (tight_runs >= wide_runs).all()
        assert tight_runs.sum() > wide_runs.sum()

    def test_budget_caps_unsettled_cells(self, config):
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(
                adaptive=AdaptiveConfig(min_runs=4, ci_width=0.01),
            ),
        )
        meta = grid.metadata["adaptive"]
        assert (np.asarray(meta["runs_per_cell"]) == 12).all()
        assert not np.asarray(meta["settled"]).any()
        assert meta["saved_runs"] == 0

    def test_savings_accounting(self, config):
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=AdaptiveConfig(min_runs=4, ci_width=0.6)),
        )
        meta = grid.metadata["adaptive"]
        assert meta["exhaustive_runs"] == len(P_VALUES) * len(Q_VALUES) * 12
        assert meta["executed_runs"] == int(
            np.asarray(meta["runs_per_cell"]).sum()
        )
        assert meta["saved_runs"] == meta["exhaustive_runs"] - meta["executed_runs"]
        assert 0 < meta["saved_fraction"] < 1


class TestCliffRefinement:
    # At expansion ratio 1.5 the staircase code's decode cliff on the
    # (p, 1.0) slice sits between p=0.3 and p=0.4.
    @pytest.fixture
    def cliff_config(self, config) -> SimulationConfig:
        return config.with_updates(expansion_ratio=1.5)

    def test_refinement_localises_a_known_threshold(self, cliff_config):
        cfg = AdaptiveConfig(
            min_runs=4, ci_width=0.6, refine_cliff=True, refine_resolution=0.05
        )
        grid = adaptive_grid(
            cliff_config, [0.0, 0.5], [1.0], runs=8, seed=1,
            options=ExecutionOptions(adaptive=cfg),
        )
        meta = grid.metadata["adaptive"]
        assert grid.decodable_mask[0, 0] and not grid.decodable_mask[1, 0]
        cliffs = [c for c in meta["cliffs"] if c["axis"] == "p"]
        assert len(cliffs) == 1
        low, high = cliffs[0]["bracket"]
        assert 0.0 <= low < high <= 0.5
        assert high - low <= 0.05
        assert cliffs[0]["decodable_at_low"] is True
        # Refined probes are full grid rows: per-cell stats included.
        assert meta["refined"]
        for row in meta["refined"]:
            assert {"p", "q", "runs", "failures", "mean_received_ratio"} <= set(row)
            assert row["runs"] > 0
        assert meta["refined_runs"] == sum(r["runs"] for r in meta["refined"])

    def test_refinement_is_deterministic(self, cliff_config):
        cfg = AdaptiveConfig(
            min_runs=4, ci_width=0.6, refine_cliff=True, refine_resolution=0.05
        )
        first = adaptive_grid(
            cliff_config, [0.0, 0.5], [1.0], runs=8, seed=1,
            options=ExecutionOptions(adaptive=cfg),
        )
        second = adaptive_grid(
            cliff_config, [0.0, 0.5], [1.0], runs=8, seed=1,
            options=ExecutionOptions(adaptive=cfg),
        )
        assert first.metadata["adaptive"]["cliffs"] == second.metadata["adaptive"]["cliffs"]
        # repr-compare: undecodable probe rows carry NaN means, and
        # NaN != NaN would fail plain dict equality.
        assert repr(first.metadata["adaptive"]["refined"]) == repr(
            second.metadata["adaptive"]["refined"]
        )

    def test_no_cliff_no_probes(self, config):
        cfg = AdaptiveConfig(
            min_runs=4, ci_width=0.6, refine_cliff=True, refine_resolution=0.05
        )
        grid = adaptive_grid(
            config, [0.0], [1.0], runs=8, seed=1,
            options=ExecutionOptions(adaptive=cfg),
        )
        meta = grid.metadata["adaptive"]
        assert meta["refined"] == [] and meta["cliffs"] == []


class TestIntegration:
    def test_simulate_grid_adaptive_kwarg(self, config):
        grid = simulate_grid(
            config, P_VALUES, Q_VALUES, runs=8, seed=1,
            options=ExecutionOptions(adaptive={"min_runs": 4, "ci_width": 0.6}),
        )
        assert "adaptive" in grid.metadata
        fixed = simulate_grid(config, P_VALUES, Q_VALUES, runs=8, seed=1)
        assert "adaptive" not in fixed.metadata

    def test_csv_rows_carry_per_cell_runs(self, config):
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=AdaptiveConfig(min_runs=4, ci_width=0.6)),
        )
        runs_per_cell = np.asarray(grid.metadata["adaptive"]["runs_per_cell"])
        text = grid_to_csv(grid)
        rows = [
            line.split(",") for line in text.splitlines()
            if line and not line.startswith(("#", "p,"))
        ]
        assert len(rows) == runs_per_cell.size
        for row in rows:
            i = P_VALUES.index(float(row[0]))
            j = Q_VALUES.index(float(row[1]))
            assert int(row[5]) == runs_per_cell[i, j]

    def test_adaptive_csv_rows_match_fixed_reference(self, config):
        # The CI gate's contract, in miniature: every settled cell's CSV
        # row is byte-identical to the row of a fixed sweep at that
        # cell's final run count.
        cfg = AdaptiveConfig(min_runs=4, ci_width=0.6)
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(adaptive=cfg),
        )
        runs_per_cell = np.asarray(grid.metadata["adaptive"]["runs_per_cell"])
        adaptive_rows = {
            tuple(line.split(",")[:2]): line
            for line in grid_to_csv(grid).splitlines()
            if line and not line.startswith(("#", "p,"))
        }
        for count in sorted(set(runs_per_cell.ravel().tolist())):
            fixed = run_grid(
                config, P_VALUES, Q_VALUES, runs=int(count), seed=1,
                runs_per_unit=cfg.min_runs,
            )
            for line in grid_to_csv(fixed).splitlines():
                if not line or line.startswith(("#", "p,")):
                    continue
                parts = line.split(",")
                i = P_VALUES.index(float(parts[0]))
                j = Q_VALUES.index(float(parts[1]))
                if runs_per_cell[i, j] == count:
                    assert adaptive_rows[tuple(parts[:2])] == line

    def test_runs_table_marks_unsettled_cells(self, config):
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=12, seed=1,
            options=ExecutionOptions(
                adaptive=AdaptiveConfig(min_runs=4, ci_width=0.01),
            ),
        )
        table = format_runs_table(grid)
        assert "12*" in table

    def test_adaptive_grid_rejects_missing_config(self, config):
        with pytest.raises(ValueError):
            adaptive_grid(
                config, P_VALUES, Q_VALUES, runs=8,
                options=ExecutionOptions(adaptive=None),
            )


def test_run_result_batch_roundtrip_still_streams(rng):
    """add() and add_batch() agree on the streaming accumulators."""
    decoded = rng.random(20) >= 0.3
    batch = RunResultBatch(
        decoded=decoded,
        n_necessary=np.where(decoded, rng.integers(200, 400, size=20), -1).astype(
            np.int64
        ),
        n_received=rng.integers(200, 500, size=20).astype(np.int64),
        n_sent=np.full(20, 500, dtype=np.int64),
        k=200,
        n=500,
    )
    a, b = CellStats(), CellStats()
    a.add_batch(batch)
    for result in batch.to_results():
        b.add(result)
    assert a.runs == b.runs and a.failures == b.failures
    assert a.variance == pytest.approx(b.variance, rel=1e-12)
    assert a.stderr == pytest.approx(b.stderr, rel=1e-12)
