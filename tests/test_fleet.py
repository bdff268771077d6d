"""Tests for cooperative fleet execution (``repro.runner.fleet``)."""

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.runner.engine import run_grid
from repro.runner.fleet import DEFAULT_LEASE_TTL, FleetRunner, default_worker_id
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, plan_units
from repro.store import (
    LeaseUnsupportedError,
    MemoryStore,
    SqliteStore,
    unit_key,
)

P_VALUES = [0.0, 0.05]
Q_VALUES = [0.5, 1.0]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


def _units(config, cells=4, runs=2):
    points = [((i,), config, 0.02 * i, 0.5) for i in range(cells)]
    return plan_units(points, runs=runs, base_seed=21)


def _grids_equal(first, second) -> bool:
    return (
        np.array_equal(first.mean_inefficiency, second.mean_inefficiency, equal_nan=True)
        and np.array_equal(
            first.mean_received_ratio, second.mean_received_ratio, equal_nan=True
        )
        and np.array_equal(first.failure_counts, second.failure_counts)
    )


class _NoLeaseStore(MemoryStore):
    supports_leases = False


class TestFleetRunner:
    def test_single_worker_executes_everything(self, config):
        store = MemoryStore()
        runner = FleetRunner(store, worker_id="solo")
        units = _units(config)
        collected = {}
        runner.run(units, lambda r: collected.__setitem__(r.seed_path, r))
        assert len(collected) == len(units)
        assert runner.stats.executed == len(units)
        assert runner.stats.absorbed == 0
        for unit in units:
            assert collected[unit.seed_path] == execute_unit(unit)
        # Everything was persisted and released.
        assert len(store) == len(units)
        assert store.leases() == []

    def test_absorbs_results_finished_elsewhere(self, config):
        store = MemoryStore()
        units = _units(config)
        for unit in units[:2]:
            store.put(unit, execute_unit(unit))
        runner = FleetRunner(store, worker_id="late")
        collected = []
        runner.run(units, collected.append)
        assert len(collected) == len(units)
        assert runner.stats.absorbed == 2
        assert runner.stats.executed == len(units) - 2

    def test_requires_a_lease_capable_store(self):
        with pytest.raises(LeaseUnsupportedError):
            FleetRunner(_NoLeaseStore())

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValueError):
            FleetRunner(MemoryStore(), lease_ttl=0.0)

    def test_default_worker_id_shape(self):
        assert re.fullmatch(r".+:\d+", default_worker_id())

    def test_two_workers_split_without_duplication(self, config):
        store = MemoryStore()
        units = _units(config, cells=6)
        all_keys = {unit_key(unit) for unit in units}
        runners = [
            FleetRunner(
                store, worker_id=f"w{i}", claim_batch=1, poll_interval=0.01
            )
            for i in range(2)
        ]
        results = [[], []]
        threads = [
            threading.Thread(target=runners[i].run, args=(units, results[i].append))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        # Every worker returns the complete sweep...
        assert len(results[0]) == len(units)
        assert len(results[1]) == len(units)
        # ...but each unit was *executed* exactly once, fleet-wide.
        executed = [set(runner.stats.executed_keys) for runner in runners]
        assert executed[0].isdisjoint(executed[1])
        assert executed[0] | executed[1] == all_keys
        assert store.stats.writes == len(units)

    def test_expired_leases_of_a_dead_worker_are_taken_over(self, config):
        store = MemoryStore()
        units = _units(config)
        # A zombie claimed two units and died without heartbeating.
        for unit in units[:2]:
            assert store.claim(unit_key(unit), "zombie", ttl=0.3)
        runner = FleetRunner(
            store, worker_id="survivor", lease_ttl=5.0, poll_interval=0.05
        )
        collected = []
        runner.run(units, collected.append)
        assert len(collected) == len(units)
        assert runner.stats.executed == len(units)
        # The zombie's leases were reclaimed, not waited out forever.
        assert all(lease.worker != "zombie" for lease in store.leases())

    def test_late_finish_by_a_zombie_converges(self, config):
        # A worker that lost its lease but finishes anyway performs an
        # idempotent upsert: the store ends with one identical entry.
        store = MemoryStore()
        unit = _units(config, cells=1)[0]
        result = execute_unit(unit)
        assert store.claim(unit_key(unit), "zombie", ttl=0.05)
        time.sleep(0.1)
        runner = FleetRunner(store, worker_id="survivor", poll_interval=0.01)
        runner.run([unit], lambda r: None)
        store.put(unit, result)  # the zombie's late write
        assert len(store) == 1
        assert store.get(unit) == result


class TestFleetEngine:
    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_fleet_grid_identical_to_serial(self, tmp_path, config, scheme):
        serial = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(seed_scheme=scheme),
        )
        store = SqliteStore(tmp_path / "fleet.db")
        fleet = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(
                seed_scheme=scheme, store=store, fleet=True, lease_ttl=10.0,
            ),
        )
        assert _grids_equal(serial, fleet)
        assert store.stats.writes == len(P_VALUES) * len(Q_VALUES)
        store.close()

    def test_fleet_requires_a_store(self, config):
        with pytest.raises(ValueError):
            run_grid(
                config, P_VALUES, Q_VALUES, runs=1,
                options=ExecutionOptions(fleet=True),
            )

    def test_two_engine_workers_share_one_grid(self, config):
        store = MemoryStore()
        serial = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=9)
        grids = {}

        def worker(name):
            grids[name] = run_grid(
                config, P_VALUES, Q_VALUES, runs=2, seed=9,
                options=ExecutionOptions(
                    store=store, fleet=True, lease_ttl=10.0, worker_id=name,
                ),
            )

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert _grids_equal(serial, grids["w0"])
        assert _grids_equal(serial, grids["w1"])
        # One execution per grid cell, fleet-wide.
        assert store.stats.writes == len(P_VALUES) * len(Q_VALUES)

    def test_resumed_fleet_run_absorbs_everything(self, tmp_path, config):
        store = SqliteStore(tmp_path / "fleet.db")
        first = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(store=store, fleet=True),
        )
        writes_before = store.stats.writes
        again = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(store=store, fleet=True),
        )
        assert _grids_equal(first, again)
        assert store.stats.writes == writes_before
        store.close()


_WRITES = re.compile(r"(\d+) writes")


class TestFleetCli:
    def _spawn(self, *argv, cwd=None):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=cwd,
        )

    def _run(self, *argv, cwd=None):
        process = self._spawn(*argv, cwd=cwd)
        stdout, stderr = process.communicate(timeout=600)
        return process.returncode, stdout, stderr

    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_two_process_fleet_matches_serial_bit_for_bit(self, tmp_path, scheme):
        base = (
            "run", "fig07", "--scale", "tiny", "--runs", "1",
            "--seed-scheme", scheme, "--quiet",
        )
        code, _, stderr = self._run(
            *base, "--cache-dir", str(tmp_path / "serial"),
            "--csv-dir", str(tmp_path / "csv_serial"), cwd=tmp_path,
        )
        assert code == 0, stderr

        store_uri = f"sqlite:{tmp_path}/fleet.db"
        workers = [
            self._spawn(
                *base, "--store", store_uri, "--fleet", "--lease-ttl", "10",
                "--worker-id", f"w{i}", "--csv-dir", str(tmp_path / f"csv_w{i}"),
                cwd=tmp_path,
            )
            for i in range(2)
        ]
        outputs = [worker.communicate(timeout=600) for worker in workers]
        assert all(worker.returncode == 0 for worker in workers), outputs

        (serial_csv,) = sorted((tmp_path / "csv_serial").glob("*.csv"))
        for i in range(2):
            (fleet_csv,) = sorted((tmp_path / f"csv_w{i}").glob("*.csv"))
            assert fleet_csv.read_bytes() == serial_csv.read_bytes()

        # Zero duplicated executions: the workers' writes partition the grid.
        writes = [int(_WRITES.search(stdout).group(1)) for stdout, _ in outputs]
        store = SqliteStore(tmp_path / "fleet.db")
        assert sum(writes) == len(store) == 16  # tiny scale: 4 x 4 grid
        store.close()

    def test_killed_worker_rerun_converges(self, tmp_path):
        argv = (
            "run", "fig07", "--scale", "tiny", "--runs", "2", "--quiet",
            "--store", f"sqlite:{tmp_path}/fleet.db", "--fleet",
            "--lease-ttl", "2",
        )
        victim = self._spawn(*argv, cwd=tmp_path)
        time.sleep(0.3)
        victim.kill()
        victim.communicate(timeout=600)

        # Stale leases from the killed worker may still be live; the rerun
        # waits them out (TTL 2s), takes them over, and completes.
        code, _, stderr = self._run(
            *argv, "--csv-dir", str(tmp_path / "csv_rerun"), cwd=tmp_path
        )
        assert code == 0, stderr

        code, _, stderr = self._run(
            "run", "fig07", "--scale", "tiny", "--runs", "2", "--quiet",
            "--cache-dir", str(tmp_path / "serial"),
            "--csv-dir", str(tmp_path / "csv_serial"), cwd=tmp_path,
        )
        assert code == 0, stderr
        (rerun_csv,) = sorted((tmp_path / "csv_rerun").glob("*.csv"))
        (serial_csv,) = sorted((tmp_path / "csv_serial").glob("*.csv"))
        assert rerun_csv.read_bytes() == serial_csv.read_bytes()
