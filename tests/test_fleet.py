"""Tests for cooperative fleet execution (``repro.runner.fleet``)."""

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.kernels import threads
from repro.kernels.threads import (
    THREADS_ENV_VAR,
    current_thread_count,
    host_peers,
    host_peers_context,
    thread_count_context,
)
from repro.resilience.errors import PoisonUnitError
from repro.resilience.policy import DEFAULT_POLICY
from repro.runner import fleet as fleet_module
from repro.runner.engine import run_grid
from repro.runner.executors import SerialExecutor
from repro.runner.fleet import (
    DEFAULT_LEASE_TTL,
    FleetRunner,
    count_host_peers,
    default_worker_id,
    presence_key,
)
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, plan_units
from repro.store import (
    LeaseUnsupportedError,
    MemoryStore,
    StoreServer,
    resolve_store,
    unit_key,
)
from fleet_equivalence import run_leg

P_VALUES = [0.0, 0.05]
Q_VALUES = [0.5, 1.0]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


def _units(config, cells=4, runs=2, options=None):
    points = [((i,), config, 0.02 * i, 0.5) for i in range(cells)]
    return plan_units(points, runs=runs, base_seed=21, options=options)


class _NoLeaseStore(MemoryStore):
    supports_leases = False


class TestFleetRunner:
    def test_single_worker_executes_everything(self, config):
        store = MemoryStore()
        runner = FleetRunner(store, worker_id="solo")
        units = _units(config)
        collected = {}
        runner.run(units, lambda unit, r: collected.__setitem__(r.seed_path, r))
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
        runner.run(units, lambda unit, r: collected.append(r))
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
            threading.Thread(
                target=runners[i].run,
                args=(units, lambda unit, r, sink=results[i]: sink.append(r)),
            )
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
        runner.run(units, lambda unit, r: collected.append(r))
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
        runner.run([unit], lambda unit, r: None)
        store.put(unit, result)  # the zombie's late write
        assert len(store) == 1
        assert store.get(unit) == result


class TestFleetEngine:
    def test_fleet_requires_a_store(self, config):
        with pytest.raises(ValueError):
            run_grid(
                config, P_VALUES, Q_VALUES, runs=1,
                options=ExecutionOptions(fleet=True),
            )


class _RecordingExecutor(SerialExecutor):
    """Serial executor noting the kernel-thread count each batch would use.

    With a barrier, two runners meet before their first batch (so both
    presence leases are registered) and again after looking in their
    second batch (so neither leaves the fleet before both have looked).
    """

    def __init__(self, barrier=None):
        self.barrier = barrier
        self.batches = 0
        self.seen = []

    def run(self, units, on_result, on_failure=None, policy=DEFAULT_POLICY):
        self.batches += 1
        if self.barrier is not None and self.batches == 1:
            self.barrier.wait(timeout=60)
        if self.barrier is None or self.batches == 2:
            with thread_count_context(units[0].kernel_threads):
                self.seen.append(current_thread_count())
        if self.barrier is not None and self.batches == 2:
            self.barrier.wait(timeout=60)
        super().run(units, on_result, on_failure, policy)


@pytest.fixture
def two_cores(monkeypatch):
    """``auto`` kernel threads resolve against a 2-core host."""
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    monkeypatch.setattr(threads, "_physical_cores", 2)


class TestHostPeers:
    """Same-host fleet peers divide the cores between them."""

    @pytest.mark.parametrize("kernel_threads, expected", [(None, 1), ("2", 2)])
    def test_two_runners_on_one_store_share_the_cores(
        self, config, two_cores, kernel_threads, expected
    ):
        store = MemoryStore()
        options = ExecutionOptions(kernel_threads=kernel_threads)
        units = _units(config, cells=8, options=options)
        barrier = threading.Barrier(2)
        executors = [_RecordingExecutor(barrier) for _ in range(2)]
        runners = [
            FleetRunner(
                store, executor=executors[i], worker_id=f"w{i}",
                claim_batch=1, poll_interval=0.01,
            )
            for i in range(2)
        ]
        threads_ = [
            threading.Thread(target=runner.run, args=(units, lambda unit, r: None))
            for runner in runners
        ]
        for thread in threads_:
            thread.start()
        for thread in threads_:
            thread.join(timeout=120)
        # Both peers registered: 2 cores // 2 peers.  An explicit count
        # is honoured as given.
        assert [executor.seen for executor in executors] == [[expected]] * 2
        assert store.leases() == []
        assert host_peers() == 1

    def test_a_lone_runner_keeps_every_core(self, config, two_cores):
        store = MemoryStore()
        executor = _RecordingExecutor()
        FleetRunner(store, executor=executor, worker_id="solo").run(
            _units(config), lambda unit, r: None
        )
        assert executor.seen and set(executor.seen) == {2}

    def test_stale_and_foreign_host_presence_leases_are_ignored(
        self, config, two_cores
    ):
        store = MemoryStore()
        foreign = f"peer-{'f' * 16}-{'0' * 16}"
        assert store.claim(foreign, "elsewhere", ttl=60.0)
        assert store.claim(presence_key("crashed"), "crashed", ttl=0.01)
        time.sleep(0.05)
        assert count_host_peers(store) == 1
        executor = _RecordingExecutor()
        FleetRunner(store, executor=executor, worker_id="solo").run(
            _units(config), lambda unit, r: None
        )
        assert set(executor.seen) == {2}
        # The run left only the leases it found.
        assert sorted(lease.worker for lease in store.leases()) == [
            "crashed", "elsewhere",
        ]
        # Live peers on this host do count.
        for worker in ("live-a", "live-b"):
            assert store.claim(presence_key(worker), worker, ttl=60.0)
        assert count_host_peers(store) == 2

    def test_run_releases_presence_and_restores_the_factor(self, config):
        store = MemoryStore()
        with host_peers_context(3):
            FleetRunner(store, worker_id="solo").run(_units(config), lambda unit, r: None)
            assert host_peers() == 3
        assert store.leases() == []
        assert host_peers() == 1

    def test_failed_run_releases_presence(self, config):
        class _Broken(SerialExecutor):
            def _execute_one(self, unit):
                raise RuntimeError("boom")

        store = MemoryStore()
        with pytest.raises(PoisonUnitError):
            FleetRunner(store, executor=_Broken(), worker_id="solo").run(
                _units(config), lambda unit, r: None
            )
        assert store.leases() == []
        assert host_peers() == 1

    def test_http_presence_expiry_uses_the_server_clock(self, config, two_cores):
        class _SkewedStore(MemoryStore):
            offset = 0.0

            def _now(self):
                return time.time() + self.offset

        inner = _SkewedStore()
        with StoreServer(inner, port=0) as server:
            store = resolve_store(f"http:127.0.0.1:{server.port}")
            # Server clock far ahead: a peer lease that expired on the
            # server still looks live to the client's clock.
            inner.offset = 1000.0
            assert store.claim(presence_key("crashed"), "crashed", ttl=0.01)
            time.sleep(0.05)
            assert count_host_peers(store) == 1
            executor = _RecordingExecutor()
            FleetRunner(store, executor=executor, worker_id="solo").run(
                _units(config, cells=2), lambda unit, r: None
            )
            assert set(executor.seen) == {2}
            # Server clock far behind: a live peer lease already looks
            # expired to the client's clock.
            store.release(presence_key("crashed"), "crashed")
            inner.offset = -1000.0
            for worker in ("live-a", "live-b"):
                assert store.claim(presence_key(worker), worker, ttl=60.0)
            assert count_host_peers(store) == 2
            store.close()


class TestIdleBackoff:
    def test_waiting_peer_absorbs_promptly_without_spinning(
        self, config, monkeypatch
    ):
        store = MemoryStore()
        (unit,) = _units(config, cells=1)
        result = execute_unit(unit)
        key = unit_key(unit)
        assert store.claim(key, "holder", ttl=60.0)

        waits = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            waits.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(fleet_module.time, "sleep", recording_sleep)
        landed = []

        def land():
            landed.append(time.monotonic())
            store.put(unit, result)
            store.release(key, "holder")

        timer = threading.Timer(0.15, land)
        absorbed = []
        runner = FleetRunner(store, worker_id="waiter", poll_interval=0.03)
        timer.start()
        runner.run([unit], lambda unit, r: absorbed.append(time.monotonic()))
        timer.join()

        assert runner.stats.absorbed == 1
        assert absorbed[0] - landed[0] < 0.05
        # The doubling schedule from 5 ms, capped at poll_interval: a
        # handful of waits over 150 ms, not a busy spin.
        assert waits[:4] == pytest.approx([0.005, 0.01, 0.02, 0.03])
        assert all(wait == pytest.approx(0.03) for wait in waits[3:])
        assert len(waits) == runner.stats.reclaim_waits <= 12


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

    @pytest.mark.parametrize(
        "store,scheme",
        [
            ("sqlite", "per-run"),
            ("sqlite", "unit"),
            ("http", "per-run"),
        ],
    )
    def test_two_process_fleet_matches_serial_bit_for_bit(self, tmp_path, store, scheme):
        # The CI fleet job runs every store x scheme at two runs a cell.
        run_leg(store, scheme, tmp_path, runs=1)

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
