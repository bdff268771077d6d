"""Tests for the resilience layer: failure policies, fault injection,
retrying stores, quarantine, and chaos convergence of the fleet."""

import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.resilience import (
    DEFAULT_POLICY,
    ON_ERROR_ACTIONS,
    FailurePolicy,
    PoisonUnitError,
    ResilienceError,
    RetryingStore,
    StoreUnavailableError,
    UnitExecutionError,
    UnitFailure,
    UnitTimeoutError,
    clear_quarantine,
    deterministic_jitter,
    failure_summary,
    format_quarantine_report,
    is_quarantined,
    quarantine_entries,
    quarantine_key,
    read_quarantine,
    resolve_policy,
    run_unit_with_policy,
    write_quarantine,
)
from repro.resilience import retry
from repro.resilience.faults import FaultInjectingExecutor, FaultPlan
from repro.runner import executors
from repro.runner.cli import main as cli_main
from repro.runner.engine import run_grid
from repro.runner.executors import SerialExecutor, ThreadExecutor
from repro.runner.fleet import HEARTBEAT_FAILURE_LIMIT, FleetRunner
from repro.runner.options import ExecutionOptions
from repro.runner.units import UnitResult, execute_unit, plan_units
from repro.store import (
    ChaosConfig,
    ChaosStore,
    LeaseUnsupportedError,
    MemoryStore,
    SqliteStore,
    available_backends,
    resolve_store,
    unit_key,
)
from repro.store.chaos import parse_chaos_location

P_VALUES = [0.0, 0.05]
Q_VALUES = [0.5, 1.0]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


def _units(config, cells=4, runs=2, seed_scheme=None):
    points = [((i,), config, 0.02 * i, 0.5) for i in range(cells)]
    options = ExecutionOptions(seed_scheme=seed_scheme)
    return plan_units(points, runs=runs, base_seed=21, options=options)


def _fast_policy(**overrides):
    """A policy whose backoffs are too small to slow the test suite."""
    defaults = dict(
        max_retries=2,
        backoff_base=0.001,
        backoff_max=0.002,
        store_backoff_base=0.001,
        store_backoff_max=0.002,
    )
    defaults.update(overrides)
    return FailurePolicy(**defaults)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(StoreUnavailableError, ResilienceError)
        assert issubclass(UnitExecutionError, ResilienceError)
        assert issubclass(UnitTimeoutError, UnitExecutionError)
        assert issubclass(PoisonUnitError, ResilienceError)
        assert issubclass(ResilienceError, RuntimeError)

    def test_poison_carries_the_structured_failure(self):
        failure = UnitFailure(
            unit_key="abc", seed_path=(0,), run_start=0, run_stop=2,
            error_type="ValueError", message="boom", attempts=3, unit_payload={},
        )
        error = PoisonUnitError(failure.describe(), failure)
        assert error.failure is failure
        assert "abc" in str(error)


class TestFailurePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(on_error="explode")
        with pytest.raises(ValueError):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FailurePolicy(unit_timeout=0.0)
        with pytest.raises(ValueError):
            FailurePolicy(store_retries=-1)
        nan = float("nan")
        for field in ("unit_timeout", "backoff_base", "backoff_max",
                      "store_backoff_base", "store_backoff_max"):
            with pytest.raises(ValueError, match=field):
                FailurePolicy(**{field: nan})

    def test_attempts(self):
        assert FailurePolicy().attempts == 1
        assert FailurePolicy(max_retries=3).attempts == 4

    def test_actions_cover_the_cli_choices(self):
        assert ON_ERROR_ACTIONS == ("raise", "skip", "quarantine")

    def test_resolve_policy(self):
        policy = FailurePolicy()
        assert resolve_policy(None) is DEFAULT_POLICY
        assert resolve_policy(policy) is policy
        with pytest.raises(TypeError):
            resolve_policy("retry-a-lot")

    def test_the_fail_fast_policy_is_the_only_default(self):
        assert ExecutionOptions().failure_policy == FailurePolicy()
        assert ExecutionOptions(failure_policy=None).failure_policy is DEFAULT_POLICY
        # The policy reaches executors through run(), never a constructor.
        for runner in (
            SerialExecutor, ThreadExecutor,
            FaultInjectingExecutor, FleetRunner,
        ):
            assert "policy" not in inspect.signature(runner).parameters
            assert "policy" in inspect.signature(runner.run).parameters

    def test_jitter_is_deterministic_and_bounded(self):
        values = [deterministic_jitter(f"unit-{i}") for i in range(64)]
        assert values == [deterministic_jitter(f"unit-{i}") for i in range(64)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert len(set(values)) > 32  # actually spreads

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FailurePolicy(backoff_base=0.1, backoff_max=10.0)
        first = [policy.backoff_delay("k1", attempt) for attempt in range(5)]
        assert first == [policy.backoff_delay("k1", attempt) for attempt in range(5)]
        assert first != [policy.backoff_delay("k2", attempt) for attempt in range(5)]
        for attempt, delay in enumerate(first):
            base = min(10.0, 0.1 * 2.0**attempt)
            assert 0.5 * base <= delay < 1.5 * base

    def test_backoff_is_capped(self):
        policy = FailurePolicy(backoff_base=1.0, backoff_max=2.0)
        assert policy.backoff_delay("k", 30) < 2.0 * 1.5


class TestRunUnitWithPolicy:
    def test_success_passes_through(self, config):
        unit = _units(config, cells=1, runs=1)[0]
        outcome = run_unit_with_policy(unit, FailurePolicy())
        assert outcome.failure is None
        assert outcome.result == execute_unit(unit)

    def test_success_path_computes_no_unit_key(self, config, monkeypatch):
        import repro.store.codec as codec

        def forbidden(unit):
            raise AssertionError("unit key hashed on the success path")

        unit = _units(config, cells=1, runs=1)[0]
        monkeypatch.setattr(codec, "unit_key", forbidden)
        outcome = run_unit_with_policy(unit, DEFAULT_POLICY)
        assert outcome.result == execute_unit(unit)

    def test_outcome_keeps_the_last_error(self, config):
        unit = _units(config, cells=1, runs=1)[0]
        error = UnitExecutionError("always broken")

        def poisoned(u):
            raise error

        outcome = run_unit_with_policy(unit, DEFAULT_POLICY, execute=poisoned)
        assert outcome.error is error
        assert outcome.failure.message == "always broken"

    def test_transient_failure_recovers(self, config):
        unit = _units(config, cells=1, runs=1)[0]
        calls = []

        def flaky(u):
            calls.append(u)
            if len(calls) < 3:
                raise UnitExecutionError("flake")
            return execute_unit(u)

        slept = []
        outcome = run_unit_with_policy(
            unit, _fast_policy(max_retries=2), execute=flaky, sleep=slept.append
        )
        assert outcome.result == execute_unit(unit)
        assert len(calls) == 3
        # The backoff schedule is the policy's deterministic one.
        key = unit_key(unit)
        policy = _fast_policy(max_retries=2)
        assert slept == [policy.backoff_delay(key, 0), policy.backoff_delay(key, 1)]

    def test_exhausted_attempts_return_a_structured_failure(self, config):
        unit = _units(config, cells=1, runs=1)[0]

        def poisoned(u):
            raise UnitExecutionError("always broken")

        outcome = run_unit_with_policy(
            unit, _fast_policy(max_retries=1), execute=poisoned, sleep=lambda s: None
        )
        failure = outcome.failure
        assert outcome.result is None
        assert failure.unit_key == unit_key(unit)
        assert failure.seed_path == unit.seed_path
        assert failure.error_type == "UnitExecutionError"
        assert failure.attempts == 2
        assert failure.unit_payload == unit.to_payload()
        assert pickle.loads(pickle.dumps(failure)) == failure
        summary = failure_summary(failure)
        assert summary["seed_path"] == list(unit.seed_path)
        assert "unit_payload" not in summary
        json.dumps(summary)  # JSON-compatible

    def test_unit_timeout_is_a_retryable_failure(self, config):
        unit = _units(config, cells=1, runs=1)[0]

        def hangs(u):
            time.sleep(5.0)

        outcome = run_unit_with_policy(
            unit,
            _fast_policy(max_retries=0, unit_timeout=0.05),
            execute=hangs,
            sleep=lambda s: None,
        )
        assert outcome.failure is not None
        assert outcome.failure.error_type == "UnitTimeoutError"


class _FlakyStore(MemoryStore):
    """Fails the first ``n`` calls of each wrapped operation."""

    def __init__(self, fail_first: int):
        super().__init__()
        self.fail_first = fail_first
        self.failures = 0

    def _maybe_fail(self):
        if self.failures < self.fail_first:
            self.failures += 1
            raise StoreUnavailableError("flaky store")

    def get_record(self, key):
        self._maybe_fail()
        return super().get_record(key)

    def put_record(self, key, payload, *, unit=None):
        self._maybe_fail()
        super().put_record(key, payload, unit=unit)

    def claim(self, key, worker, ttl):
        self._maybe_fail()
        return super().claim(key, worker, ttl)

    def heartbeat(self, keys, worker, ttl):
        self._maybe_fail()
        return super().heartbeat(keys, worker, ttl)


class TestRetryingStore:
    def test_wrap_passes_through_none_and_wrapped(self):
        assert RetryingStore.wrap(None) is None
        store = MemoryStore()
        wrapped = RetryingStore.wrap(store)
        assert RetryingStore.wrap(wrapped) is wrapped
        assert wrapped.inner is store
        assert wrapped.backend == store.backend
        assert wrapped.uri() == store.uri()
        assert wrapped.supports_leases

    def test_transient_failures_are_retried(self, config):
        store = RetryingStore(_FlakyStore(fail_first=2), _fast_policy())
        unit = _units(config, cells=1, runs=1)[0]
        store.put(unit, execute_unit(unit))
        assert store.retry_stats.retries == 2
        assert store.get(unit) == execute_unit(unit)

    def test_gives_up_after_the_retry_budget(self):
        store = RetryingStore(_FlakyStore(fail_first=99), _fast_policy())
        with pytest.raises(StoreUnavailableError):
            store.get_record("missing")
        assert store.retry_stats.gave_up == 1

    def test_non_transient_errors_are_not_retried(self):
        class Broken(MemoryStore):
            calls = 0

            def get_record(self, key):
                type(self).calls += 1
                raise RuntimeError("programming error")

        store = RetryingStore(Broken(), _fast_policy())
        with pytest.raises(RuntimeError):
            store.get_record("x")
        assert Broken.calls == 1

    def test_claim_backoff_respects_the_lease_budget(self):
        # With a tiny TTL the backoff budget (ttl/2) forbids any sleep at
        # all, so the claim gives up on the first transient failure
        # instead of outliving the lease it is trying to take.
        policy = FailurePolicy(store_backoff_base=1.0, store_backoff_max=1.0)
        store = RetryingStore(_FlakyStore(fail_first=99), policy)
        started = time.perf_counter()
        with pytest.raises(StoreUnavailableError):
            store.claim("key", "worker", ttl=0.2)
        assert time.perf_counter() - started < 0.2


class TestChaosStore:
    def test_parse_location(self):
        inner, cfg = parse_chaos_location("results.db")
        assert inner == "results.db"
        assert cfg == ChaosConfig()
        inner, cfg = parse_chaos_location(
            "fleet.db?rate=0.5&seed=7&burst=3&latency=0.01&ops=put,claim"
        )
        assert inner == "fleet.db"
        assert cfg.rate == 0.5 and cfg.seed == 7 and cfg.burst == 3
        assert cfg.latency == 0.01 and cfg.ops == ("put", "claim")
        with pytest.raises(ValueError):
            parse_chaos_location("fleet.db?rat=0.5")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(burst=0)
        with pytest.raises(ValueError):
            ChaosConfig(ops=("frobnicate",))

    def test_registered_backends(self):
        names = available_backends()
        for name in ("chaos+json-dir", "chaos+sqlite", "chaos+memory"):
            assert name in names

    def test_resolve_chaos_uri(self, tmp_path):
        store = resolve_store(f"chaos+sqlite:{tmp_path}/c.db?rate=0.5&seed=3")
        assert isinstance(store, ChaosStore)
        assert store.backend == "chaos+sqlite"
        assert store.config.rate == 0.5 and store.config.seed == 3
        assert store.uri().startswith("chaos+sqlite:")
        store.close()

    def test_schedule_is_deterministic(self):
        def pattern(store, n=40):
            outcomes = []
            for _ in range(n):
                try:
                    store.get_record("k")
                    outcomes.append(False)
                except StoreUnavailableError:
                    outcomes.append(True)
            return outcomes

        first = pattern(ChaosStore(MemoryStore(), ChaosConfig(seed=5, rate=0.5)))
        second = pattern(ChaosStore(MemoryStore(), ChaosConfig(seed=5, rate=0.5)))
        other = pattern(ChaosStore(MemoryStore(), ChaosConfig(seed=6, rate=0.5)))
        assert first == second
        assert first != other
        assert any(first) and not all(first)

    def test_burst_cap_bounds_consecutive_failures(self):
        store = ChaosStore(MemoryStore(), ChaosConfig(seed=0, rate=1.0, burst=2))
        consecutive = longest = 0
        for _ in range(50):
            try:
                store.get_record("k")
                consecutive = 0
            except StoreUnavailableError:
                consecutive += 1
                longest = max(longest, consecutive)
        assert longest == 2  # rate=1.0 would fail forever without the cap
        assert store.injected["get"] > 0

    def test_injection_happens_before_the_effect(self, config):
        store = ChaosStore(
            MemoryStore(), ChaosConfig(seed=0, rate=1.0, burst=1, ops=("put",))
        )
        unit = _units(config, cells=1, runs=1)[0]
        with pytest.raises(StoreUnavailableError):
            store.put(unit, execute_unit(unit))
        assert len(store.inner) == 0  # nothing landed
        store.put(unit, execute_unit(unit))  # burst spent: this one works
        assert store.inner.get(unit) == execute_unit(unit)

    def test_torn_put_many_converges_under_retry(self, config):
        inner = MemoryStore()
        chaos = ChaosStore(
            inner, ChaosConfig(seed=0, rate=1.0, burst=1, ops=("put_many",))
        )
        units = _units(config, cells=4, runs=1)
        batch = [(unit, execute_unit(unit)) for unit in units]
        with pytest.raises(StoreUnavailableError):
            chaos.put_many(batch)
        assert 0 < len(inner) < len(batch)  # the torn half landed
        retrying = RetryingStore(chaos, _fast_policy())
        retrying.put_many(batch)
        assert len(inner) == len(batch)
        for unit in units:
            assert inner.get(unit) == execute_unit(unit)


class TestFaultInjectingExecutor:
    def test_transient_faults_recover_under_retries(self, config):
        units = _units(config, cells=3, runs=1)
        plan = FaultPlan(transient={(0,): 2, (1,): 1})
        executor = FaultInjectingExecutor(plan)
        collected = []
        executor.run(
            units, lambda unit, r: collected.append(r), policy=_fast_policy(max_retries=2)
        )
        assert len(collected) == len(units)
        assert executor.injected["transient"] == 3
        for unit, result in zip(units, sorted(collected, key=lambda r: r.seed_path)):
            assert result == execute_unit(unit)

    def test_poison_raises_without_a_failure_sink(self, config):
        units = _units(config, cells=2, runs=1)
        plan = FaultPlan(poison=frozenset({(1,)}))
        executor = FaultInjectingExecutor(plan)
        with pytest.raises(PoisonUnitError) as excinfo:
            executor.run(units, lambda unit, r: None, policy=_fast_policy(max_retries=1))
        assert excinfo.value.failure.seed_path == (1,)
        assert excinfo.value.failure.attempts == 2

    def test_poison_is_skipped_with_a_failure_sink(self, config):
        units = _units(config, cells=3, runs=1)
        plan = FaultPlan(poison=frozenset({(1,)}))
        executor = FaultInjectingExecutor(plan)
        results, failures = [], []
        executor.run(
            units, lambda unit, r: results.append(r), lambda unit, f: failures.append(f),
            _fast_policy(max_retries=0, on_error="skip"),
        )
        assert {r.seed_path for r in results} == {(0,), (2,)}
        assert [f.seed_path for f in failures] == [(1,)]

    def test_hang_is_cut_by_the_unit_timeout(self, config):
        units = _units(config, cells=1, runs=1)
        plan = FaultPlan(hang={(0,): 1}, hang_seconds=5.0)
        executor = FaultInjectingExecutor(plan)
        collected = []
        started = time.perf_counter()
        executor.run(
            units, lambda unit, r: collected.append(r),
            policy=_fast_policy(max_retries=1, unit_timeout=0.1),
        )
        assert time.perf_counter() - started < 5.0
        assert executor.injected["hang"] == 1
        assert collected[0] == execute_unit(units[0])


class TestQuarantine:
    def test_write_read_clear_roundtrip(self, config):
        store = MemoryStore()
        unit = _units(config, cells=1, runs=1)[0]
        outcome = run_unit_with_policy(
            unit,
            _fast_policy(max_retries=0, on_error="quarantine"),
            execute=lambda u: (_ for _ in ()).throw(UnitExecutionError("bad")),
            sleep=lambda s: None,
        )
        key = write_quarantine(store, outcome.failure, worker="w0")
        assert key == quarantine_key(unit_key(unit))
        assert is_quarantined(store, unit_key(unit))
        entry = read_quarantine(store, unit_key(unit))
        assert entry.unit_key == unit_key(unit)
        assert entry.worker == "w0"
        assert entry.rerun.startswith("python -m repro rerun-unit ")
        assert entry.as_failure().unit_key == outcome.failure.unit_key
        report = format_quarantine_report(quarantine_entries(store))
        assert "1 unit(s)" in report and "rerun:" in report
        # Quarantine records never satisfy result lookups.
        assert store.get(unit) is None
        assert clear_quarantine(store, unit_key(unit))
        assert not is_quarantined(store, unit_key(unit))
        assert quarantine_entries(store) == []

    def test_rerun_command_heals_the_quarantined_unit(self, config):
        store = MemoryStore()
        unit = _units(config, cells=1, runs=1)[0]
        entry_rerun = None
        outcome = run_unit_with_policy(
            unit,
            _fast_policy(max_retries=0),
            execute=lambda u: (_ for _ in ()).throw(UnitExecutionError("bad")),
            sleep=lambda s: None,
        )
        write_quarantine(store, outcome.failure)
        entry = quarantine_entries(store)[0]
        # The recorded rerun command re-executes the exact unit payload.
        match = re.fullmatch(r"python -m repro rerun-unit '(.+)'", entry.rerun)
        assert match is not None
        from repro.runner.units import WorkUnit

        rerun_unit = WorkUnit.from_payload(json.loads(match.group(1)))
        assert execute_unit(rerun_unit) == execute_unit(unit)


class TestEngineResilience:
    def test_skip_keeps_the_sweep_alive_and_marks_the_cell(self, config):
        baseline = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=7)
        plan = FaultPlan(poison=frozenset({(0, 0)}))
        policy = _fast_policy(max_retries=1, on_error="skip")
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(
                executor=FaultInjectingExecutor(plan),
                failure_policy=policy,
            ),
        )
        # The poisoned cell is NaN; every surviving cell is bit-identical.
        assert np.isnan(grid.mean_inefficiency[0, 0])
        mask = ~(np.arange(4).reshape(2, 2) == 0)
        assert np.array_equal(
            grid.mean_inefficiency[mask], baseline.mean_inefficiency[mask]
        )
        failed = grid.metadata["failed_units"]
        assert [tuple(f["seed_path"]) for f in failed] == [(0, 0)]

    def test_raise_policy_escalates(self, config):
        plan = FaultPlan(poison=frozenset({(0, 0)}))
        policy = _fast_policy(max_retries=0, on_error="raise")
        with pytest.raises(PoisonUnitError):
            run_grid(
                config, P_VALUES, Q_VALUES, runs=1, seed=7,
                options=ExecutionOptions(
                    executor=FaultInjectingExecutor(plan),
                    failure_policy=policy,
                ),
            )

    def test_quarantine_records_land_in_the_store(self, config):
        store = MemoryStore()
        plan = FaultPlan(poison=frozenset({(0, 1)}))
        policy = _fast_policy(max_retries=0, on_error="quarantine")
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=1, seed=7,
            options=ExecutionOptions(
                store=store, executor=FaultInjectingExecutor(plan),
                failure_policy=policy,
            ),
        )
        entries = quarantine_entries(store)
        assert [tuple(e.seed_path) for e in entries] == [(0, 1)]
        assert np.isnan(grid.mean_inefficiency[0, 1])

    def test_transient_faults_are_invisible_in_the_result(self, config):
        baseline = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=7)
        plan = FaultPlan(transient={(0, 0): 1, (1, 1): 2})
        policy = _fast_policy(max_retries=2)
        executor = FaultInjectingExecutor(plan)
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(executor=executor, failure_policy=policy),
        )
        assert executor.injected["transient"] == 3
        assert np.array_equal(
            grid.mean_inefficiency, baseline.mean_inefficiency, equal_nan=True
        )
        assert "failed_units" not in grid.metadata


class TestDefaultFailFast:
    """Under default options a failing unit is a one-attempt poison unit."""

    @pytest.fixture
    def broken_execution(self, monkeypatch):
        def boom(unit, front_ends=None):
            raise RuntimeError("decoder exploded")

        monkeypatch.setattr(executors, "execute_unit", boom)

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "thread"])
    def test_poison_unit_names_and_chains_the_error(
        self, config, workers, broken_execution
    ):
        with pytest.raises(PoisonUnitError) as excinfo:
            run_grid(
                config, P_VALUES, Q_VALUES, runs=1, seed=7,
                options=ExecutionOptions(workers=workers),
            )
        error = excinfo.value
        assert error.failure.attempts == 1
        assert error.failure.error_type == "RuntimeError"
        assert "RuntimeError: decoder exploded" in str(error)
        assert isinstance(error.__cause__, RuntimeError)
        assert str(error.__cause__) == "decoder exploded"

    def test_cli_reports_the_poison_unit(self, tmp_path, capsys, broken_execution):
        code = cli_main([
            "run", "fig07", "--scale", "tiny", "--runs", "1", "--quiet",
            "--no-cache",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unit ")
        assert "failed 1 attempt(s): RuntimeError: decoder exploded" in err

    def test_options_policy_reaches_an_executor_instance(self, config):
        # The policy is set only on the options, next to an executor
        # instance: every attempt it allows must run, then the unit is
        # skipped rather than aborting the sweep.
        plan = FaultPlan(poison=frozenset({(0, 0)}))
        executor = FaultInjectingExecutor(plan)
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=1, seed=7,
            options=ExecutionOptions(
                executor=executor,
                failure_policy=_fast_policy(max_retries=2, on_error="skip"),
            ),
        )
        assert executor.injected["poison"] == 3
        failed = grid.metadata["failed_units"]
        assert [tuple(f["seed_path"]) for f in failed] == [(0, 0)]


class _DeadHeartbeatStore(MemoryStore):
    """Claims work normally but every heartbeat fails."""

    def heartbeat(self, keys, worker, ttl):
        raise StoreUnavailableError("heartbeat table is on fire")


class TestHeartbeatHardening:
    def test_transient_misses_recover(self, config):
        store = _FlakyStore(fail_first=2)
        runner = FleetRunner(
            store, worker_id="w0", lease_ttl=5.0, heartbeat_interval=0.01,
        )
        units = _units(config, cells=2, runs=1)
        collected = []
        runner.run(units, lambda unit, r: collected.append(r), policy=_fast_policy())
        assert len(collected) == len(units)

    def test_permanent_heartbeat_failure_stops_the_run(self, config):
        # Misses only count while a lease is held, so slow execution
        # itself (not on_result, which runs after release) to keep keys
        # held long enough for the heartbeat to exhaust its limit.
        class _SlowExecutor(SerialExecutor):
            def _execute_one(self, unit, front_ends):
                time.sleep(0.05)
                return execute_unit(unit, front_ends)

        runner = FleetRunner(
            _DeadHeartbeatStore(), worker_id="w0", lease_ttl=0.5,
            heartbeat_interval=0.01, poll_interval=0.01,
            claim_batch=1, executor=_SlowExecutor(),
        )
        units = _units(config, cells=12, runs=1)
        with pytest.raises(StoreUnavailableError, match="gave up after"):
            runner.run(units, lambda unit, r: None, policy=_fast_policy())


class _RecordingStore(MemoryStore):
    """Logs each write call that reaches the backend: ``(name, size)``."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def put(self, unit, result):
        self.calls.append(("put", 1))
        super().put(unit, result)

    def put_many(self, items):
        batch = list(items)
        self.calls.append(("put_many", len(batch)))
        for unit, result in batch:
            MemoryStore.put(self, unit, result)
        return len(batch)


class _InterruptAfter(SerialExecutor):
    """Delivers the first ``count`` units, then raises ``KeyboardInterrupt``."""

    def __init__(self, count):
        self.count = count

    def run(self, units, on_result, on_failure=None, policy=None):
        for unit in units[: self.count]:
            on_result(unit, execute_unit(unit))
        raise KeyboardInterrupt


class TestWriteBehind:
    """Solo sweeps buffer their puts and land them through ``put_many``."""

    @pytest.fixture
    def no_timer(self, monkeypatch):
        # Windows close on size alone unless a test sets FLUSH_SECONDS.
        monkeypatch.setattr(retry, "FLUSH_SECONDS", 1e9)

    def test_sweep_writes_in_put_many_batches(self, config, monkeypatch, no_timer):
        monkeypatch.setattr(retry, "FLUSH_RESULTS", 3)
        store = _RecordingStore()
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(store=store),
        )
        assert store.calls == [("put_many", 3), ("put_many", 1)]
        baseline = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=7)
        assert np.array_equal(
            grid.mean_inefficiency, baseline.mean_inefficiency, equal_nan=True
        )

    def test_window_closes_after_flush_seconds(self, config, monkeypatch):
        monkeypatch.setattr(retry, "FLUSH_SECONDS", 0.0)
        store = _RecordingStore()
        run_grid(
            config, P_VALUES, Q_VALUES, runs=1, seed=7,
            options=ExecutionOptions(store=store),
        )
        assert store.calls == [("put_many", 1)] * 4

    def test_a_raise_flushes_the_results_before_it(self, config, no_timer):
        store = MemoryStore()
        plan = FaultPlan(poison=frozenset({(1, 1)}))  # the last cell
        units = plan_units(
            [((i, j), config, p, q) for i, p in enumerate(P_VALUES)
             for j, q in enumerate(Q_VALUES)],
            runs=1, base_seed=7,
        )
        with pytest.raises(PoisonUnitError):
            run_grid(
                config, P_VALUES, Q_VALUES, runs=1, seed=7,
                options=ExecutionOptions(
                    store=store, executor=FaultInjectingExecutor(plan),
                ),
            )
        assert len(store) == 3
        for unit in units[:3]:
            assert store.get(unit) == execute_unit(unit)

    def test_keyboard_interrupt_flushes_the_results_before_it(self, config, no_timer):
        store = MemoryStore()
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                config, P_VALUES, Q_VALUES, runs=1, seed=7,
                options=ExecutionOptions(store=store, executor=_InterruptAfter(2)),
            )
        assert len(store) == 2

    def test_a_failed_exit_flush_keeps_the_block_error(self, config, caplog):
        class Unwritable(MemoryStore):
            def put_many(self, items):
                raise RuntimeError("disk full")

        wrapped = RetryingStore(Unwritable(), _fast_policy())
        unit = _units(config, cells=1, runs=1)[0]
        with caplog.at_level("WARNING", logger="repro.resilience.retry"):
            with pytest.raises(KeyError):
                with wrapped.write_behind():
                    wrapped.put(unit, execute_unit(unit))
                    raise KeyError("the sweep's own error")
        assert "could not flush buffered results: disk full" in caplog.text

    def test_torn_flush_on_chaos_sqlite_converges(self, tmp_path, config):
        inner = SqliteStore(tmp_path / "chaos.db")
        chaos = ChaosStore(
            inner, ChaosConfig(seed=0, rate=1.0, burst=1, ops=("put_many",))
        )
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(store=chaos, failure_policy=_fast_policy()),
        )
        assert chaos.injected["put_many"] >= 1  # a batch was torn
        assert len(inner) == 4
        assert chaos.stats.writes == 4  # the torn half is not counted twice
        baseline = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=7)
        assert np.array_equal(
            grid.mean_inefficiency, baseline.mean_inefficiency, equal_nan=True
        )
        reread = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(store=inner),
        )
        assert inner.stats.hits == 4
        inner.close()
        assert np.array_equal(
            reread.mean_inefficiency, baseline.mean_inefficiency, equal_nan=True
        )

    def test_fleet_puts_are_never_buffered(self, config):
        store = _RecordingStore()
        run_grid(
            config, P_VALUES, Q_VALUES, runs=1, seed=7,
            options=ExecutionOptions(store=store, fleet=True, worker_id="w0"),
        )
        assert store.calls == [("put", 1)] * 4

    def test_thread_executor_results_land_once(self, config, monkeypatch, no_timer):
        monkeypatch.setattr(retry, "FLUSH_RESULTS", 3)
        store = _RecordingStore()
        grid = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(store=store, workers=2),
        )
        assert [name for name, _ in store.calls] == ["put_many", "put_many"]
        assert sum(size for _, size in store.calls) == 4
        assert len(store) == 4
        baseline = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=7)
        assert np.array_equal(
            grid.mean_inefficiency, baseline.mean_inefficiency, equal_nan=True
        )

    def test_puts_from_many_threads_land_once(self, config, monkeypatch, no_timer):
        # More threads than cores and a short switch interval: a lost
        # append or a batch flushed twice breaks the exact counts below.
        monkeypatch.setattr(retry, "FLUSH_RESULTS", 3)
        store = _RecordingStore()
        wrapped = RetryingStore(store)
        units = _units(config, cells=200, runs=1)
        results = [
            UnitResult(unit.seed_path, 0, 1, (1.0 + index,), (0.5,), 0)
            for index, unit in enumerate(units)
        ]
        pairs = list(zip(units, results))

        def put_share(share):
            for unit, result in share:
                wrapped.put(unit, result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with wrapped.write_behind():
                threads = [
                    threading.Thread(target=put_share, args=(pairs[start::8],))
                    for start in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sum(size for _, size in store.calls) == 200
        assert len(store) == 200
        for unit, result in pairs:
            assert store.get(unit) == result

    def test_cli_counts_match_per_unit_writes(self, tmp_path, capsys):
        argv = [
            "run", "fig07", "--scale", "tiny", "--runs", "1", "--quiet",
            "--store", f"sqlite:{tmp_path}/r.db",
        ]
        assert cli_main(argv) == 0
        cold = re.search(
            r"\(cache: (\d+) hits, (\d+) misses, (\d+) writes\)", capsys.readouterr().out
        )
        hits, misses, writes = map(int, cold.groups())
        assert hits == 0 and misses == writes > 0
        assert cli_main(argv) == 0
        assert f"(cache: {misses} hits, 0 misses, 0 writes)" in capsys.readouterr().out

    def test_cli_interrupt_keeps_completed_cells_cached(
        self, tmp_path, capsys, monkeypatch, no_timer
    ):
        real = executors.execute_unit
        started = []

        def interrupt_third(unit, front_ends=None):
            started.append(unit)
            if len(started) == 3:
                raise KeyboardInterrupt
            return real(unit, front_ends)

        monkeypatch.setattr(executors, "execute_unit", interrupt_third)
        argv = [
            "run", "fig07", "--scale", "tiny", "--runs", "1", "--quiet",
            "--store", f"sqlite:{tmp_path}/r.db",
        ]
        assert cli_main(argv) == 130
        assert "completed cells are cached" in capsys.readouterr().err
        with SqliteStore(tmp_path / "r.db") as store:
            assert len(store) == 2
        monkeypatch.setattr(executors, "execute_unit", real)
        assert cli_main(argv) == 0
        assert "(cache: 2 hits," in capsys.readouterr().out


class TestFleetChaosConvergence:
    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_two_chaotic_workers_converge_bit_identically(self, config, scheme):
        units = _units(config, cells=4, runs=2, seed_scheme=scheme)
        baseline = {unit.seed_path: execute_unit(unit) for unit in units}
        poison_cell = (2,)
        all_keys = {unit_key(unit) for unit in units}
        poison_keys = {
            unit_key(unit) for unit in units if unit.seed_path == poison_cell
        }

        shared = MemoryStore()
        policy = _fast_policy(max_retries=2, on_error="quarantine")
        runners = []
        for i in range(2):
            chaos = ChaosStore(
                shared,
                # Faults on every protocol op, including heartbeats and
                # claims; burst 2 stays under the retry budget (3).
                ChaosConfig(seed=i + 1, rate=0.25, burst=2),
            )
            executor = FaultInjectingExecutor(
                FaultPlan(poison=frozenset({poison_cell}), transient={(0,): 1})
            )
            runners.append(
                FleetRunner(
                    chaos, executor=executor, worker_id=f"w{i}",
                    lease_ttl=10.0, heartbeat_interval=0.05,
                    poll_interval=0.01, claim_batch=1,
                )
            )

        results = [{}, {}]
        failures = [[], []]
        errors = []

        def drive(i):
            try:
                runners[i].run(
                    units,
                    lambda unit, r: results[i].__setitem__(r.seed_path, r),
                    lambda unit, f: failures[i].append(f),
                    policy,
                )
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []

        survivors = {path for path in baseline if path != poison_cell}
        for i in range(2):
            # Every worker returns the complete surviving sweep,
            # bit-identical to the fault-free serial execution.
            assert set(results[i]) == survivors
            for path in survivors:
                assert results[i][path] == baseline[path]
            # ...and saw the poisoned unit exactly once as a failure.
            assert {f.unit_key for f in failures[i]} == poison_keys

        # Zero duplicated executions fleet-wide.
        executed = [set(r.stats.executed_keys) for r in runners]
        assert executed[0].isdisjoint(executed[1])
        assert executed[0] | executed[1] == all_keys - poison_keys

        # The quarantine lists exactly the poisoned unit, and chaos
        # actually fired (the run wasn't accidentally fault-free).
        assert {e.unit_key for e in quarantine_entries(shared)} == poison_keys
        assert sum(r.store.injected.total() for r in runners) > 0

    def test_chaotic_sqlite_fleet_through_the_engine(self, tmp_path, config):
        serial = run_grid(config, P_VALUES, Q_VALUES, runs=2, seed=7)
        policy = _fast_policy(max_retries=1)
        uri = f"chaos+sqlite:{tmp_path}/fleet.db?rate=0.2&seed=4&burst=2"
        grids = {}
        errors = []

        def worker(name):
            try:
                grids[name] = run_grid(
                    config, P_VALUES, Q_VALUES, runs=2, seed=7,
                    options=ExecutionOptions(
                        store=uri, fleet=True, lease_ttl=10.0, worker_id=name,
                        failure_policy=policy,
                    ),
                )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        for name in ("w0", "w1"):
            assert np.array_equal(
                grids[name].mean_inefficiency,
                serial.mean_inefficiency,
                equal_nan=True,
            )

        store = SqliteStore(tmp_path / "fleet.db")
        assert len(store) == len(P_VALUES) * len(Q_VALUES)
        store.close()


_WRITES = re.compile(r"(\d+) writes")


class TestResilienceCli:
    def _run(self, *argv, cwd=None, stdin=None):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=cwd,
        )
        stdout, stderr = process.communicate(timeout=600, input=stdin)
        return process.returncode, stdout, stderr

    def test_run_accepts_the_failure_flags(self, tmp_path):
        code, stdout, stderr = self._run(
            "run", "fig07", "--scale", "tiny", "--runs", "1", "--quiet",
            "--store", f"sqlite:{tmp_path}/r.db",
            "--max-retries", "2", "--unit-timeout", "60",
            "--on-error", "quarantine",
            cwd=tmp_path,
        )
        assert code == 0, stderr
        assert "retries=2 on-error=quarantine" in stdout
        assert "quarantine" not in stdout.split("done in")[1]  # clean run

    def test_rerun_unit_store_heals_a_quarantined_cell(self, tmp_path, config):
        db = tmp_path / "heal.db"
        unit = _units(config, cells=1, runs=1)[0]
        outcome = run_unit_with_policy(
            unit,
            _fast_policy(max_retries=0),
            execute=lambda u: (_ for _ in ()).throw(UnitExecutionError("bad")),
            sleep=lambda s: None,
        )
        with SqliteStore(db) as store:
            write_quarantine(store, outcome.failure, worker="w0")

        code, stdout, stderr = self._run(
            "cache", "info", "--store", f"sqlite:{db}", cwd=tmp_path
        )
        assert code == 0, stderr
        assert "quarantine: 1 unit(s)" in stdout
        assert "rerun: python -m repro rerun-unit" in stdout

        code, stdout, stderr = self._run(
            "rerun-unit", json.dumps(unit.to_payload()),
            "--store", f"sqlite:{db}", cwd=tmp_path,
        )
        assert code == 0, stderr
        assert "quarantine record cleared" in stdout

        with SqliteStore(db) as store:
            assert quarantine_entries(store) == []
            assert store.get(unit) == execute_unit(unit)

    def test_on_error_quarantine_requires_a_store(self, tmp_path):
        code, _, stderr = self._run(
            "run", "fig07", "--scale", "tiny", "--runs", "1", "--quiet",
            "--no-cache", "--on-error", "quarantine", cwd=tmp_path,
        )
        assert code == 2
        assert "needs a result store" in stderr


class TestStoreHardening:
    def test_sqlite_busy_timeout_default(self, tmp_path):
        from repro.store import DEFAULT_BUSY_TIMEOUT

        assert DEFAULT_BUSY_TIMEOUT > 0
        with SqliteStore(tmp_path / "t.db") as store:
            (timeout_ms,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
            assert timeout_ms == int(DEFAULT_BUSY_TIMEOUT * 1000)

    def test_sqlite_lock_maps_to_transient_error(self, tmp_path, config):
        import sqlite3

        db = tmp_path / "locked.db"
        unit = _units(config, cells=1, runs=1)[0]
        with SqliteStore(db) as warmup:
            warmup.put(unit, execute_unit(unit))
        store = SqliteStore(db, timeout=0.1)
        blocker = sqlite3.connect(db)
        try:
            blocker.execute("BEGIN EXCLUSIVE")
            with pytest.raises(StoreUnavailableError, match="busy"):
                store.put(unit, execute_unit(unit))
        finally:
            blocker.rollback()
            blocker.close()
            store.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "json-dir"])
    def test_delete_record_and_idempotent_claim(self, tmp_path, backend, config):
        store = resolve_store(f"{backend}:{tmp_path}/{backend}-store")
        unit = _units(config, cells=1, runs=1)[0]
        key = unit_key(unit)
        store.put(unit, execute_unit(unit))
        assert store.delete_record(key)
        assert not store.delete_record(key)
        assert store.get(unit) is None
        if backend == "json-dir":  # results only: nothing to claim
            with pytest.raises(LeaseUnsupportedError):
                store.claim(key, "w0", ttl=30.0)
        else:
            # Claims are worker-idempotent: the holder may re-claim (and
            # thereby refresh) its own live lease; others may not.
            assert store.claim(key, "w0", ttl=30.0)
            assert store.claim(key, "w0", ttl=30.0)
            assert not store.claim(key, "w1", ttl=30.0)
        store.close()
