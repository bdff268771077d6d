"""Tests for the adaptive sweep controller and its statistics stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    adaptive_grid,
    adaptive_grids,
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
from repro.runner.engine import grid_cells, run_grid, run_series
from repro.runner.options import ExecutionOptions
from repro.runner.units import plan_units
from repro.store.codec import unit_key
from repro.utils.stats import (
    mean_interval_halfwidth,
    normal_quantile,
    student_t_cdf,
    t_quantile,
    wilson_interval,
)
from unit_reference import assert_grids_equal

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
        # A fractional min_runs used to be truncated silently.
        with pytest.raises(ValueError, match="min_runs"):
            AdaptiveConfig(min_runs=8.9)
        assert AdaptiveConfig(min_runs=8.0).min_runs == 8
        nan = float("nan")
        for field in ("confidence", "ci_width", "rel_tol", "refine_resolution"):
            with pytest.raises(ValueError, match=field):
                AdaptiveConfig(**{field: nan})

    def test_schedule_targets_are_chunk_aligned(self):
        assert round_schedule(8, 100) == [8, 16, 32, 64, 100]
        assert round_schedule(4, 12) == [4, 8, 12]
        assert round_schedule(8, 8) == [8]
        assert round_schedule(8, 5) == [5]
        # Every boundary except possibly the budget is a min_runs multiple.
        for target in round_schedule(6, 97)[:-1]:
            assert target % 6 == 0

    def test_plan_first_round_counts(self, config):
        units = plan_first_round(
            config, P_VALUES, Q_VALUES, runs=100,
            options=ExecutionOptions(adaptive=AdaptiveConfig(min_runs=8)),
        )
        assert len(units) == len(P_VALUES) * len(Q_VALUES)
        assert all(unit.run_start == 0 and unit.run_stop == 8 for unit in units)


#: A loose width makes cells settle at different run counts, which is the
#: interesting case for the determinism contract.  At a 40-run budget
#: (schedule 4, 8, 16, 32, 40) some cells run the multi-window rounds
#: [8, 16), [16, 32) and [32, 40).
CFG = AdaptiveConfig(min_runs=4, ci_width=0.6)


class TestRoundUnitPlan:
    """How a round's run increment is cut into work units, per scheme."""

    RUNS = 40  # schedule 4, 8, 16, 32, 40

    def _sweep(self, monkeypatch, config, scheme):
        """Run the sweep; return it and the units each round planned."""
        from repro.adaptive import controller

        rounds = []
        execute = controller._execute

        def recording(units, **kwargs):
            rounds.append(list(units))
            return execute(units, **kwargs)

        monkeypatch.setattr(controller, "_execute", recording)
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=self.RUNS, seed=1,
            options=ExecutionOptions(adaptive=CFG, seed_scheme=scheme),
        )
        monkeypatch.setattr(controller, "_execute", execute)
        schedule = round_schedule(CFG.min_runs, self.RUNS)
        assert len(rounds) == len(schedule), "test wants every round to run"
        return grid, list(zip([0, *schedule], schedule, rounds))

    def _chunked_plan(self, config, units, start, stop, scheme):
        """The ``min_runs`` chunks of ``[start, stop)`` for these units' cells."""
        _p, _q, cells = grid_cells(config, P_VALUES, Q_VALUES)
        active = {unit.seed_path for unit in units}
        return plan_units(
            [cell for cell in cells if cell[0] in active],
            runs=stop,
            first_run=start,
            runs_per_unit=CFG.min_runs,
            base_seed=1,
            options=ExecutionOptions(adaptive=CFG, seed_scheme=scheme),
        )

    def test_per_run_plans_one_unit_per_cell_and_round(self, monkeypatch, config):
        _grid, rounds = self._sweep(monkeypatch, config, "per-run")
        for start, stop, units in rounds:
            paths = [unit.seed_path for unit in units]
            assert len(paths) == len(set(paths))
            assert all(
                (unit.run_start, unit.run_stop) == (start, stop) for unit in units
            )
        # Rounds [8, 16), [16, 32) and [32, 40) used to be 2, 4 and 2 units.
        assert max(stop - start for start, stop, _units in rounds) == 16

    def test_per_run_splits_a_round_at_the_cap(self, monkeypatch, config):
        from repro.adaptive import controller

        reference, _rounds = self._sweep(monkeypatch, config, "per-run")
        # The cap rounds down to whole min_runs windows.
        monkeypatch.setattr(controller, "MAX_ROUND_UNIT_RUNS", 9)
        cap = controller._round_unit_runs(CFG.min_runs, "per-run")
        assert cap == 8
        grid, rounds = self._sweep(monkeypatch, config, "per-run")
        for start, stop, units in rounds:
            cells = {unit.seed_path for unit in units}
            expected = [
                (first, min(first + cap, stop)) for first in range(start, stop, cap)
            ]
            assert len(units) == len(cells) * len(expected)
            for path in cells:
                assert [
                    (unit.run_start, unit.run_stop)
                    for unit in units
                    if unit.seed_path == path
                ] == expected
        # Per-run streams do not depend on where units split.
        assert grid_to_csv(grid) == grid_to_csv(reference)

    def test_stopping_statistics_do_not_depend_on_the_cap(self, monkeypatch, config):
        # The streamed variance is folded in min_runs windows, so each
        # settle decision sees the statistics of the min_runs-chunk plan.
        from repro.adaptive import controller

        settled = controller._settled

        def sweep(cap):
            seen = []

            def recording(stats, cfg):
                seen.append((stats.runs, stats._ineff_mean, stats._ineff_m2))
                return settled(stats, cfg)

            monkeypatch.setattr(controller, "MAX_ROUND_UNIT_RUNS", cap)
            monkeypatch.setattr(controller, "_settled", recording)
            self._sweep(monkeypatch, config, "per-run")
            monkeypatch.setattr(controller, "_settled", settled)
            return seen

        chunked = sweep(CFG.min_runs)
        assert max(runs for runs, _mean, _m2 in chunked) > 16
        assert sweep(64) == chunked

    def test_per_run_rounds_one_and_two_keep_the_chunked_keys(
        self, monkeypatch, config
    ):
        # An adaptive store written with min_runs chunks still serves the
        # first two rounds (growth 2 makes both one min_runs window).
        _grid, rounds = self._sweep(monkeypatch, config, "per-run")
        for start, stop, units in rounds[:2]:
            chunked = self._chunked_plan(config, units, start, stop, "per-run")
            assert [unit_key(unit) for unit in units] == [
                unit_key(unit) for unit in chunked
            ]

    def test_unit_scheme_keeps_min_runs_windows(self, monkeypatch, config):
        from repro.adaptive import controller

        # The cap does not apply: unit boundaries define this scheme's streams.
        monkeypatch.setattr(controller, "MAX_ROUND_UNIT_RUNS", 8)
        _grid, rounds = self._sweep(monkeypatch, config, "unit")
        assert any(
            len(units) > len({unit.seed_path for unit in units})
            for _start, _stop, units in rounds
        ), "test wants rounds spanning several windows"
        for start, stop, units in rounds:
            assert units == self._chunked_plan(config, units, start, stop, "unit")


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


class TestRoundFolding:
    def test_per_cell_results_and_stats_match_a_full_rescan(self, config):
        # Each round's results are grouped by cell once; every cell must
        # still fold exactly its own results, in run order -- what a
        # sorted rescan of the whole round per cell used to produce.
        from repro.adaptive.controller import _run_cells
        from repro.runner.engine import _execute, grid_cells

        options = ExecutionOptions(adaptive=AdaptiveConfig(min_runs=4, ci_width=0.3))
        _p, _q, cells = grid_cells(config, P_VALUES, Q_VALUES)
        rounds = []

        def execute(units, total_cells):
            results, failures = _execute(
                units, options=options, progress=None, total_cells=total_cells
            )
            # Hand the controller the round in reverse completion order.
            results = dict(reversed(list(results.items())))
            rounds.append(results)
            return results, failures

        state = _run_cells(
            cells, options.adaptive, 24,
            plan_kwargs=dict(base_seed=3, fresh_code_per_run=False, options=options),
            execute=execute, failures_out={},
        )
        assert len(rounds) > 1
        for path, *_ in cells:
            expected = [
                result
                for results in rounds
                for (_token, result_path, _start), result in sorted(
                    results.items(), key=lambda item: item[0][2]
                )
                if result_path == path
            ]
            # Failure-free units fold in min_runs windows, as the
            # min_runs-chunk plan's units would.
            stats = CellStats()
            for result in expected:
                width = len(result.received_ratios) if result.failures else 4
                for start in range(0, len(result.received_ratios), width):
                    stats.add_ratios(
                        result.inefficiency_ratios[start : start + width],
                        result.received_ratios[start : start + width],
                        result.failures,
                    )
            run = state[config.token, path]
            assert run.results == expected
            # Streaming accumulators included: same values, same order.
            assert vars(run.stats) == vars(stats)


class TestSharedRounds:
    """:func:`adaptive_grids`: one round loop serves every config."""

    @staticmethod
    def _options(plan: FaultPlan) -> ExecutionOptions:
        return ExecutionOptions(
            adaptive=AdaptiveConfig(min_runs=4, ci_width=0.6),
            executor=FaultInjectingExecutor(plan),
            failure_policy=FailurePolicy(
                max_retries=0, on_error="skip", backoff_base=0.001, backoff_max=0.002
            ),
        )

    def test_failures_are_recorded_by_their_own_config(self, config):
        # Faults are keyed by seed path, so the poisoned cell fails for
        # both codes, once per round: it never settles.
        plan = FaultPlan(poison=frozenset({(1, 1)}))
        configs = [config, config.with_updates(code="ldgm-triangle")]
        totals = []
        shared = adaptive_grids(
            configs, P_VALUES[:2], Q_VALUES[:2], runs=16, seed=7,
            progress=lambda done, total: totals.append(total),
            options=self._options(plan),
        )
        assert totals[0] == len(configs) * 4  # round 1: every cell of both

        def records(grid):
            # The injected message counts a cell's attempts over every
            # config that ran it; the rest of a record is the unit's own.
            entries = grid.metadata["failed_units"]
            assert all(e["message"].startswith("injected poison") for e in entries)
            return [{k: v for k, v in e.items() if k != "message"} for e in entries]

        for member, grid in zip(configs, shared):
            alone = adaptive_grid(
                member, P_VALUES[:2], Q_VALUES[:2], runs=16, seed=7,
                options=self._options(plan),
            )
            assert len(records(grid)) == len(grid.metadata["adaptive"]["schedule"])
            assert records(grid) == records(alone)
            assert_grids_equal(grid, alone)
            assert grid.metadata["adaptive"] == alone.metadata["adaptive"]


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

    @pytest.mark.parametrize("runs", [12, 40])
    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_adaptive_csv_rows_match_fixed_reference(self, config, scheme, runs):
        # Every settled cell's arrays and CSV row are those of a fixed
        # sweep at that cell's final run count.
        grid = adaptive_grid(
            config, P_VALUES, Q_VALUES, runs=runs, seed=1,
            options=ExecutionOptions(adaptive=CFG, seed_scheme=scheme),
        )
        runs_per_cell = np.asarray(grid.metadata["adaptive"]["runs_per_cell"])
        counts = sorted(set(runs_per_cell.ravel().tolist()))
        assert len(counts) > 1, "test wants cells settling at different counts"
        if runs == 40:
            assert max(counts) > 16, "test wants rounds spanning several windows"
        adaptive_rows = {
            tuple(line.split(",")[:2]): line
            for line in grid_to_csv(grid).splitlines()
            if line and not line.startswith(("#", "p,"))
        }
        matched = 0
        for count in counts:
            fixed = run_grid(
                config, P_VALUES, Q_VALUES, runs=int(count), seed=1,
                runs_per_unit=CFG.min_runs,
                options=ExecutionOptions(seed_scheme=scheme),
            )
            mask = runs_per_cell == count
            for name in ("mean_inefficiency", "mean_received_ratio", "failure_counts"):
                actual, expected = getattr(grid, name), getattr(fixed, name)
                assert np.array_equal(actual[mask], expected[mask], equal_nan=True)
            for line in grid_to_csv(fixed).splitlines():
                if not line or line.startswith(("#", "p,")):
                    continue
                parts = line.split(",")
                i = P_VALUES.index(float(parts[0]))
                j = Q_VALUES.index(float(parts[1]))
                if runs_per_cell[i, j] == count:
                    assert adaptive_rows[tuple(parts[:2])] == line
                    matched += 1
        assert matched == runs_per_cell.size

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
