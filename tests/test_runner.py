"""Tests for the parallel experiment-execution engine (``repro.runner``)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.experiments import SCALES, run_experiment
from repro.core.sweep import simulate_grid, sweep_parameter
from repro.store.codec import config_token, unit_key
from repro.store.json_dir import JsonDirStore
from repro.runner.executors import (
    SerialExecutor, ThreadExecutor, resolve_executor,
)
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, merge_cell, plan_units
from unit_reference import assert_grids_equal

P_VALUES = [0.0, 0.05, 0.3]
Q_VALUES = [0.2, 0.6, 1.0]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


class TestUnits:
    def test_plan_one_unit_per_cell_by_default(self, config):
        cells = [((i, j), config, 0.1 * i, 0.5) for i in range(2) for j in range(3)]
        units = plan_units(cells, runs=5, base_seed=7)
        assert len(units) == 6
        assert all(unit.run_start == 0 and unit.run_stop == 5 for unit in units)

    def test_plan_run_sharding(self, config):
        units = plan_units([((0, 0), config, 0.0, 1.0)], runs=5, base_seed=0, runs_per_unit=2)
        assert [(u.run_start, u.run_stop) for u in units] == [(0, 2), (2, 4), (4, 5)]

    def test_run_sharded_merge_matches_whole_cell(self, config):
        # Sharding invariance is a guarantee of the per-run seed scheme
        # (pinned here so the test keeps meaning the same thing under a
        # REPRO_SEED_SCHEME override); under "unit" the sharding is part
        # of the stream definition -- see tests/test_seeds.py.
        whole = plan_units(
            [((1, 2), config, 0.05, 0.5)], runs=4, base_seed=3,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        sharded = plan_units(
            [((1, 2), config, 0.05, 0.5)], runs=4, base_seed=3, runs_per_unit=1,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        merged_whole = merge_cell([execute_unit(whole[0])])
        merged_sharded = merge_cell([execute_unit(unit) for unit in sharded])
        assert merged_whole == merged_sharded

    def test_all_failed_cell_is_nan(self, config):
        # 100% loss: q = 0 keeps the Gilbert channel in the bad state.
        unit = plan_units([((0, 0), config, 1.0, 0.0)], runs=2, base_seed=0)[0]
        mean_inefficiency, _received, failures = merge_cell([execute_unit(unit)])
        assert failures == 2
        assert np.isnan(mean_inefficiency)


class TestExecutors:
    def test_resolve_auto_from_workers(self):
        assert isinstance(resolve_executor(None, 4), ThreadExecutor)
        assert isinstance(resolve_executor(None, None), SerialExecutor)
        assert isinstance(resolve_executor(None, 1), SerialExecutor)

    def test_resolve_passthrough_instance(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor
        assert resolve_executor(executor, 4) is executor

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)


class TestCodeCache:
    """A worker builds each code and compiles its prototype once, in
    :data:`repro.runner.units._CODE_CACHE`, and reuses both across sweeps."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.fastpath import prototypes
        from repro.runner import units

        monkeypatch.setattr(units, "_CODE_CACHE", {})
        counts = {"builds": 0, "compiles": 0}
        build_code = SimulationConfig.build_code

        def counting_build(config, *args, **kwargs):
            counts["builds"] += 1
            return build_code(config, *args, **kwargs)

        def counting(compiler):
            def compile_counted(code):
                counts["compiles"] += 1
                return compiler(code)
            return compile_counted

        monkeypatch.setattr(SimulationConfig, "build_code", counting_build)
        for name, compiler in list(prototypes._COMPILERS.items()):
            monkeypatch.setitem(prototypes._COMPILERS, name, counting(compiler))
        return counts

    def test_second_pass_builds_and_compiles_nothing(self, counts):
        from repro.runner import units

        first = run_experiment("fig09", "tiny")
        codes = len(units._CODE_CACHE)
        assert 0 < codes < units._CODE_CACHE_MAX  # nothing evicted
        assert counts == {"builds": codes, "compiles": codes}

        for options in (None, ExecutionOptions(workers=2)):
            again = run_experiment("fig09", "tiny", options=options)
            assert counts == {"builds": codes, "compiles": codes}
            for label in first:
                assert_grids_equal(first[label], again[label])


class TestParallelDeterminism:
    def test_fresh_code_per_run_identical_to_serial(self, config):
        serial = simulate_grid(
            config, [0.05], [0.5], runs=3, seed=3, fresh_code_per_run=True
        )
        parallel = simulate_grid(
            config, [0.05], [0.5], runs=3, seed=3, fresh_code_per_run=True,
            options=ExecutionOptions(workers=2),
        )
        assert_grids_equal(serial, parallel)

    def test_run_sharding_identical_results(self, config):
        from repro.runner.engine import run_grid

        # Per-run-scheme guarantee; pinned for the same reason as
        # test_run_sharded_merge_matches_whole_cell above.
        whole = run_grid(
            config, P_VALUES, Q_VALUES, runs=4, seed=11,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        sharded = run_grid(
            config, P_VALUES, Q_VALUES, runs=4, seed=11, runs_per_unit=1,
            options=ExecutionOptions(seed_scheme="per-run"),
        )
        assert_grids_equal(whole, sharded)

    def test_series_parallel_identical_to_serial(self):
        def make_config(num_source):
            return SimulationConfig(
                code="ldgm-staircase",
                tx_model="rx_model_1",
                k=200,
                expansion_ratio=2.5,
                tx_options={"num_source_packets": int(num_source)},
            )

        serial = sweep_parameter(make_config, [1, 5, 20], runs=3, seed=5)
        parallel = sweep_parameter(
            make_config, [1, 5, 20], runs=3, seed=5,
            options=ExecutionOptions(workers=3),
        )
        assert np.array_equal(
            serial.mean_inefficiency, parallel.mean_inefficiency, equal_nan=True
        )
        assert np.array_equal(serial.failure_counts, parallel.failure_counts)


class TestResultCache:
    def test_miss_then_hit(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        unit = plan_units([((0, 1), config, 0.05, 0.5)], runs=2, base_seed=9)[0]
        assert cache.get(unit) is None
        result = execute_unit(unit)
        cache.put(unit, result)
        assert cache.get(unit) == result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_key_depends_on_seed_and_cell(self, config):
        base = plan_units([((0, 1), config, 0.05, 0.5)], runs=2, base_seed=9)[0]
        other_seed = plan_units([((0, 1), config, 0.05, 0.5)], runs=2, base_seed=10)[0]
        other_cell = plan_units([((1, 0), config, 0.05, 0.5)], runs=2, base_seed=9)[0]
        keys = {unit_key(base), unit_key(other_seed), unit_key(other_cell)}
        assert len(keys) == 3

    def test_key_ignores_label(self, config):
        relabelled = config.with_updates(label="fancy name")
        assert config_token(config) == config_token(relabelled)

    def test_warm_cache_run_simulates_nothing(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        cold = simulate_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=1,
            options=ExecutionOptions(store=cache),
        )
        assert cache.stats.hits == 0
        assert cache.stats.writes == len(P_VALUES) * len(Q_VALUES)

        warm_cache = JsonDirStore(tmp_path / "cache")

        class Exploding:
            def run(self, units, on_result):
                raise AssertionError("warm cache should not execute any unit")

        warm = simulate_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=1,
            options=ExecutionOptions(store=warm_cache, executor=Exploding()),
        )
        assert warm_cache.stats.hits == len(P_VALUES) * len(Q_VALUES)
        assert warm_cache.stats.misses == 0
        assert_grids_equal(cold, warm)

    def test_resume_partial_cache(self, config, tmp_path):
        # Warm only one cell, then run the full grid: exactly that cell is
        # skipped and the merged grid matches an uncached run.
        cache = JsonDirStore(tmp_path / "cache")
        simulate_grid(
            config, [0.0], [0.2], runs=2, seed=1,
            options=ExecutionOptions(store=cache),
        )
        resumed_cache = JsonDirStore(tmp_path / "cache")
        resumed = simulate_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=1,
            options=ExecutionOptions(store=resumed_cache),
        )
        assert resumed_cache.stats.hits == 1
        assert resumed_cache.stats.writes == len(P_VALUES) * len(Q_VALUES) - 1
        assert_grids_equal(resumed, simulate_grid(config, P_VALUES, Q_VALUES, runs=2, seed=1))

    def test_cache_accepts_directory_path(self, config, tmp_path):
        simulate_grid(
            config, [0.0], [1.0], runs=1, seed=0,
            options=ExecutionOptions(store=str(tmp_path / "c")),
        )
        assert JsonDirStore(tmp_path / "c").__len__() == 1

    def test_corrupt_entry_is_a_miss(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        unit = plan_units([((0, 0), config, 0.0, 1.0)], runs=1, base_seed=0)[0]
        cache.put(unit, execute_unit(unit))
        path = cache._path(unit_key(unit))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(unit) is None

    def test_clear(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        simulate_grid(
            config, [0.0], [1.0], runs=1, seed=0,
            options=ExecutionOptions(store=cache),
        )
        assert cache.clear() == 1
        assert len(cache) == 0


class TestExperimentsThroughRunner:
    def test_tiny_fig08_warm_cache_no_resimulation(self, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        cold = run_experiment(
            "fig08", scale="tiny", seed=0, runs=2,
            options=ExecutionOptions(store=cache),
        )
        writes = cache.stats.writes
        assert writes > 0 and cache.stats.hits == 0

        warm_cache = JsonDirStore(tmp_path / "cache")
        warm = run_experiment(
            "fig08", scale="tiny", seed=0, runs=2,
            options=ExecutionOptions(store=warm_cache),
        )
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.writes == 0
        assert warm_cache.stats.hits == writes
        for label in cold:
            assert_grids_equal(cold[label], warm[label])

    def test_progress_counts_every_config_cell(self):
        # One engine pass: one callback counts the cells of all six
        # configs of fig09 together, each exactly once, in order.
        calls = []
        run_experiment(
            "fig09", scale="tiny", seed=0, runs=1,
            progress=lambda done, total: calls.append((done, total)),
        )
        cells = 6 * len(SCALES["tiny"].grid_percent) ** 2
        assert calls == [(done, cells) for done in range(1, cells + 1)]


class TestProgress:
    def test_serial_progress_order_preserved(self, config):
        calls = []
        simulate_grid(
            config,
            [0.0, 0.1],
            [0.5],
            runs=1,
            seed=0,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]

    def test_parallel_progress_counts_all_cells(self, config):
        calls = []
        simulate_grid(
            config, [0.0, 0.1], [0.2, 0.5], runs=1, seed=0, progress=lambda done,
            total: calls.append((done, total)),
            options=ExecutionOptions(workers=2),
        )
        assert sorted(calls) == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_cached_cells_count_as_progress(self, config, tmp_path):
        cache = JsonDirStore(tmp_path / "cache")
        simulate_grid(
            config, [0.0, 0.1], [0.5], runs=1, seed=0,
            options=ExecutionOptions(store=cache),
        )
        calls = []
        simulate_grid(
            config, [0.0, 0.1], [0.5], runs=1, seed=0, progress=lambda done,
            total: calls.append((done, total)),
            options=ExecutionOptions(store=cache),
        )
        assert calls == [(1, 2), (2, 2)]


class TestCLI:
    def _run(self, *argv, cwd=None):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_list_experiments_smoke(self):
        result = self._run("list-experiments")
        assert result.returncode == 0
        assert "fig09" in result.stdout
        assert "table5" in result.stdout
        assert "paper" in result.stdout

    def test_run_and_resume(self, tmp_path):
        argv = (
            "run",
            "fig07",
            "--scale",
            "tiny",
            "--runs",
            "1",
            "--store",
            str(tmp_path / "cache"),
            "--quiet",
        )
        cold = self._run(*argv, cwd=tmp_path)
        assert cold.returncode == 0, cold.stderr
        assert "0 hits" in cold.stdout
        warm = self._run(*argv, cwd=tmp_path)
        assert warm.returncode == 0, warm.stderr
        assert "0 misses" in warm.stdout

    def test_run_writes_csv(self, tmp_path):
        result = self._run(
            "run",
            "fig07",
            "--scale",
            "tiny",
            "--runs",
            "1",
            "--no-cache",
            "--csv-dir",
            str(tmp_path / "csv"),
            "--quiet",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        written = list((tmp_path / "csv").glob("*.csv"))
        assert len(written) == 1

    def test_unknown_experiment_fails_cleanly(self):
        result = self._run("run", "fig99", "--quiet")
        assert result.returncode == 2
        assert "unknown experiment" in result.stderr

    def test_cache_info_and_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._run(
            "run", "fig07", "--scale", "tiny", "--runs", "1",
            "--store", cache_dir, "--quiet", cwd=tmp_path,
        )
        info = self._run("cache", "info", "--store", cache_dir)
        assert info.returncode == 0
        assert "entries" in info.stdout
        cleared = self._run("cache", "clear", "--store", cache_dir)
        assert cleared.returncode == 0
        info_after = self._run("cache", "info", "--store", cache_dir)
        assert "0 entries" in info_after.stdout

    @pytest.mark.parametrize("action", ["info", "clear"])
    @pytest.mark.parametrize("backend", ["sqlite", "json-dir"])
    def test_cache_inspection_of_a_missing_store_creates_nothing(
        self, tmp_path, action, backend
    ):
        result = self._run(
            "cache", action, "--store", f"{backend}:{tmp_path}/no/such/dir/x.db",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "0 entries" in result.stdout
        assert not (tmp_path / "no").exists()
