"""Tests for the pluggable result-store subsystem (``repro.store``)."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.runner.options import ExecutionOptions
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.store import (
    JsonDirStore,
    MemoryStore,
    SqliteStore,
    StoreMigrationError,
    available_backends,
    decode_payload,
    encode_result,
    migrate_store,
    register_backend,
    resolve_store,
    shared_memory_store,
    unit_key,
)
from repro.store.registry import _BACKENDS


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


def _units(config, cells=2, runs=2, seed_scheme="per-run"):
    points = [((i,), config, 0.05, 0.5 + 0.1 * i) for i in range(cells)]
    return plan_units(
        points, runs=runs, base_seed=13,
        options=ExecutionOptions(seed_scheme=seed_scheme),
    )


def _make_store(backend: str, tmp_path: Path):
    if backend == "json-dir":
        return JsonDirStore(tmp_path / "jd")
    if backend == "sqlite":
        return SqliteStore(tmp_path / "store.db")
    return MemoryStore()


BACKENDS = ("json-dir", "sqlite", "memory")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    """One open store per built-in backend.

    The contract classes below consume this fixture, so a new backend's
    test module (e.g. ``test_store_http.py``) reuses the whole contract
    suite by subclassing them with an overridden ``store`` fixture.
    """
    store = _make_store(request.param, tmp_path)
    yield store
    store.close()


class TestStoreContract:
    def test_put_get_roundtrip(self, store, config):
        unit = _units(config)[0]
        result = execute_unit(unit)
        assert store.get(unit) is None
        store.put(unit, result)
        assert store.get(unit) == result
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_put_is_idempotent_upsert(self, store, config):
        unit = _units(config)[0]
        result = execute_unit(unit)
        store.put(unit, result)
        store.put(unit, result)
        assert len(store) == 1
        assert store.get(unit) == result

    def test_put_many(self, store, config):
        units = _units(config, cells=3)
        items = [(unit, execute_unit(unit)) for unit in units]
        assert store.put_many(items) == 3
        assert len(store) == 3
        for unit, result in items:
            assert store.get(unit) == result

    def test_records_round_canonical_keys(self, store, config):
        units = _units(config, cells=3)
        for unit in units:
            store.put(unit, execute_unit(unit))
        records = list(store.records())
        assert sorted(r.key for r in records) == sorted(unit_key(u) for u in units)
        for record in records:
            assert decode_payload(record.payload) is not None

    def test_scheme_counts_and_scoped_clear(self, store, config):
        for unit in _units(config, cells=2, seed_scheme="per-run"):
            store.put(unit, execute_unit(unit))
        for unit in _units(config, cells=3, seed_scheme="unit"):
            store.put(unit, execute_unit(unit))
        assert store.scheme_counts() == {"per-run": 2, "unit": 3}
        assert store.clear(scheme="per-run") == 2
        assert store.scheme_counts() == {"unit": 3}
        assert store.clear() == 3
        assert len(store) == 0

    def test_info_counts_size(self, store, config):
        for unit in _units(config, cells=2):
            store.put(unit, execute_unit(unit))
        info = store.info()
        assert info.backend == store.backend
        assert info.entries == 2
        assert info.size_bytes > 0
        assert info.scheme_counts == {"per-run": 2}

    def test_malformed_entry_is_a_miss(self, store, config):
        unit = _units(config)[0]
        store.put_record(unit_key(unit), {"schema": 999, "seed_scheme": "per-run"})
        assert store.get(unit) is None


class TestLeaseContract:
    def test_claim_is_exclusive(self, store):
        assert store.claim("k1", "alice", ttl=60.0)
        assert not store.claim("k1", "bob", ttl=60.0)
        assert [lease.worker for lease in store.leases()] == ["alice"]

    def test_completed_unit_cannot_be_claimed(self, store, config):
        unit = _units(config)[0]
        store.put(unit, execute_unit(unit))
        assert not store.claim(unit_key(unit), "alice", ttl=60.0)

    def test_release_reopens_the_unit(self, store):
        assert store.claim("k1", "alice", ttl=60.0)
        store.release("k1", "alice")
        assert store.claim("k1", "bob", ttl=60.0)

    def test_release_checks_ownership(self, store):
        assert store.claim("k1", "alice", ttl=60.0)
        store.release("k1", "bob")  # not the holder: no-op
        assert not store.claim("k1", "bob", ttl=60.0)

    def test_expired_lease_is_taken_over(self, store):
        assert store.claim("k1", "alice", ttl=0.05)
        time.sleep(0.1)
        assert store.claim("k1", "bob", ttl=60.0)
        assert [lease.worker for lease in store.leases()] == ["bob"]

    def test_heartbeat_extends_live_leases(self, store):
        assert store.claim("k1", "alice", ttl=0.3)
        deadline = time.time() + 0.6
        while time.time() < deadline:
            assert store.heartbeat(["k1"], "alice", ttl=0.3) == 1
            time.sleep(0.05)
        # Still held well past the original TTL.
        assert not store.claim("k1", "bob", ttl=60.0)

    def test_heartbeat_reports_lost_leases(self, store):
        assert store.claim("k1", "alice", ttl=0.05)
        time.sleep(0.1)
        assert store.claim("k1", "bob", ttl=60.0)
        assert store.heartbeat(["k1"], "alice", ttl=60.0) == 0


class TestRegistry:
    def test_bare_path_is_json_dir(self, tmp_path):
        store = resolve_store(str(tmp_path / "cache"))
        assert isinstance(store, JsonDirStore)
        assert store.root == tmp_path / "cache"

    def test_uri_prefixes(self, tmp_path):
        assert isinstance(resolve_store(f"json-dir:{tmp_path}/jd"), JsonDirStore)
        assert isinstance(resolve_store(f"sqlite:{tmp_path}/r.db"), SqliteStore)
        assert isinstance(resolve_store("memory:"), MemoryStore)

    def test_named_memory_store_is_shared(self):
        first = resolve_store("memory:shared-test")
        second = resolve_store("memory:shared-test")
        assert first is second
        assert first is shared_memory_store("shared-test")
        first.clear()

    def test_sqlite_needs_a_path(self):
        with pytest.raises(ValueError):
            resolve_store("sqlite:")

    def test_none_and_instances_pass_through(self, tmp_path):
        assert resolve_store(None) is None
        store = MemoryStore()
        assert resolve_store(store) is store

    def test_uri_reopens_the_same_store(self, tmp_path, config):
        store = SqliteStore(tmp_path / "r.db")
        unit = _units(config)[0]
        store.put(unit, execute_unit(unit))
        store.close()
        reopened = resolve_store(f"sqlite:{tmp_path}/r.db")
        assert len(reopened) == 1
        reopened.close()

    def test_third_party_backend_registration(self):
        register_backend("test-null", lambda location: MemoryStore(name=location))
        try:
            assert "test-null" in available_backends()
            store = resolve_store("test-null:x")
            assert isinstance(store, MemoryStore)
            assert store.name == "x"
        finally:
            _BACKENDS.pop("test-null", None)


def _historical_entry(unit, result) -> str:
    """A ``.repro_cache`` entry exactly as the pre-store cache wrote it."""
    return json.dumps(
        {
            "schema": 2,
            "seed_scheme": unit.seed_scheme,
            "seed_path": list(result.seed_path),
            "run_start": result.run_start,
            "run_stop": result.run_stop,
            "inefficiency_ratios": list(result.inefficiency_ratios),
            "received_ratios": list(result.received_ratios),
            "failures": result.failures,
        }
    )


class TestJsonDirByteCompat:
    """The json-dir backend must write exactly the pre-store cache bytes."""

    def test_entry_bytes_match_the_historical_layout(self, tmp_path, config):
        store = JsonDirStore(tmp_path / "jd")
        unit = _units(config)[0]
        result = execute_unit(unit)
        store.put(unit, result)
        key = unit_key(unit)
        path = tmp_path / "jd" / key[:2] / f"{key}.json"
        assert path.read_text(encoding="utf-8") == _historical_entry(unit, result)

    def test_bare_path_is_the_json_dir_backend(self, tmp_path, config):
        # A bare directory (the CLI's --cache-dir default) opens the
        # json-dir backend and writes the same bytes.
        bare = resolve_store(str(tmp_path / "a"))
        store = JsonDirStore(tmp_path / "b")
        unit = _units(config)[0]
        result = execute_unit(unit)
        bare.put(unit, result)
        store.put(unit, result)
        key = unit_key(unit)
        bare_bytes = (tmp_path / "a" / key[:2] / f"{key}.json").read_bytes()
        store_bytes = (tmp_path / "b" / key[:2] / f"{key}.json").read_bytes()
        assert bare_bytes == store_bytes
        assert isinstance(bare, JsonDirStore)

    def test_pre_store_entries_satisfy_lookups(self, tmp_path, config):
        # An entry written by the old cache (same bytes, placed by hand)
        # must be a hit for the new store.
        unit = _units(config)[0]
        result = execute_unit(unit)
        key = unit_key(unit)
        path = tmp_path / "shared" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(_historical_entry(unit, result), encoding="utf-8")
        assert JsonDirStore(tmp_path / "shared").get(unit) == result


class TestSqliteProvenance:
    def test_put_records_provenance(self, tmp_path, config):
        store = SqliteStore(tmp_path / "r.db")
        unit = _units(config)[0]
        store.put(unit, execute_unit(unit))
        record = store.provenance(unit_key(unit))
        assert record is not None
        assert record["seed_scheme"].startswith(unit.seed_scheme)
        assert record["rerun_command"].startswith("python -m repro rerun-unit ")
        assert WorkUnit.from_payload(record["unit"]) == unit

    def test_provenance_unit_reexecutes_identically(self, tmp_path, config):
        store = SqliteStore(tmp_path / "r.db")
        unit = _units(config)[0]
        result = execute_unit(unit)
        store.put(unit, result)
        record = store.provenance(unit_key(unit))
        assert execute_unit(WorkUnit.from_payload(record["unit"])) == result

    def test_migrated_entries_carry_no_provenance(self, tmp_path, config):
        source = MemoryStore()
        unit = _units(config)[0]
        source.put(unit, execute_unit(unit))
        dest = SqliteStore(tmp_path / "r.db")
        migrate_store(source, dest)
        assert dest.provenance(unit_key(unit)) is None
        assert dest.get(unit) is not None


class TestMigration:
    def test_round_trip_is_byte_identical(self, tmp_path, config):
        source = JsonDirStore(tmp_path / "src")
        for unit in _units(config, cells=3):
            source.put(unit, execute_unit(unit))
        middle = SqliteStore(tmp_path / "mid.db")
        report = migrate_store(source, middle)
        assert report.copied == 3 and report.verified
        back = JsonDirStore(tmp_path / "back")
        migrate_store(middle, back)
        for path in sorted((tmp_path / "src").glob("??/*.json")):
            twin = tmp_path / "back" / path.parent.name / path.name
            assert twin.read_bytes() == path.read_bytes()

    def test_scheme_filter(self, tmp_path, config):
        source = MemoryStore()
        for unit in _units(config, cells=2, seed_scheme="per-run"):
            source.put(unit, execute_unit(unit))
        for unit in _units(config, cells=1, seed_scheme="unit"):
            source.put(unit, execute_unit(unit))
        dest = MemoryStore()
        report = migrate_store(source, dest, scheme="unit")
        assert report.copied == 1 and report.skipped == 2
        assert dest.scheme_counts() == {"unit": 1}

    def test_verification_catches_corruption(self, tmp_path, config):
        class LossyStore(MemoryStore):
            def put_record(self, key, payload, *, unit=None):
                corrupted = dict(payload)
                corrupted["failures"] = 999
                super().put_record(key, corrupted, unit=unit)

        source = MemoryStore()
        unit = _units(config)[0]
        source.put(unit, execute_unit(unit))
        with pytest.raises(StoreMigrationError):
            migrate_store(source, LossyStore())

    def test_migrated_store_resumes_a_sweep(self, tmp_path, config):
        from repro.core.sweep import simulate_grid

        cold = simulate_grid(
            config, [0.0, 0.05], [0.5, 1.0], runs=2, seed=4,
            options=ExecutionOptions(store=str(tmp_path / "jd")),
        )
        dest = SqliteStore(tmp_path / "r.db")
        migrate_store(JsonDirStore(tmp_path / "jd"), dest)
        warm = simulate_grid(
            config, [0.0, 0.05], [0.5, 1.0], runs=2, seed=4,
            options=ExecutionOptions(store=dest),
        )
        assert dest.stats.hits == 4 and dest.stats.misses == 0
        import numpy as np

        assert np.array_equal(
            cold.mean_inefficiency, warm.mean_inefficiency, equal_nan=True
        )


# -- multi-process concurrency helpers (top level: must pickle) -----------


def _mp_sqlite_upsert(db_path, payload_text, key, iterations, queue):
    try:
        store = SqliteStore(db_path)
        payload = json.loads(payload_text)
        for _ in range(iterations):
            store.put_record(key, payload)
        store.close()
        queue.put("ok")
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(f"error: {exc!r}")


def _mp_sqlite_claim(db_path, key, worker, queue):
    try:
        store = SqliteStore(db_path)
        queue.put((worker, store.claim(key, worker, ttl=60.0)))
        store.close()
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put((worker, f"error: {exc!r}"))


def _mp_sqlite_first_opens(paths, barrier, queue):
    errors = []
    for path in paths:
        barrier.wait(timeout=60)
        try:
            SqliteStore(path).close()
        except Exception as exc:  # the regression: "database is locked"
            errors.append(repr(exc))
    queue.put(errors)


def _mp_json_dir_put(root, payload_text, key, iterations, queue):
    try:
        store = JsonDirStore(root)
        payload = json.loads(payload_text)
        for _ in range(iterations):
            store.put_record(key, payload)
        queue.put("ok")
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(f"error: {exc!r}")


def _run_processes(target, args_per_process):
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    processes = [
        context.Process(target=target, args=(*args, queue))
        for args in args_per_process
    ]
    for process in processes:
        process.start()
    outcomes = [queue.get(timeout=60) for _ in processes]
    for process in processes:
        process.join(timeout=60)
    return outcomes


class TestMultiProcessConcurrency:
    def test_sqlite_concurrent_upserts_of_one_unit(self, tmp_path, config):
        unit = _units(config)[0]
        payload = json.dumps(encode_result(unit, execute_unit(unit)))
        key = unit_key(unit)
        db = str(tmp_path / "race.db")
        outcomes = _run_processes(
            _mp_sqlite_upsert, [(db, payload, key, 25) for _ in range(4)]
        )
        assert outcomes == ["ok"] * 4
        store = SqliteStore(db)
        assert len(store) == 1
        assert store.get_record(key) == json.loads(payload)
        store.close()

    def test_sqlite_claim_race_has_one_winner(self, tmp_path):
        db = str(tmp_path / "race.db")
        SqliteStore(db).close()  # pre-create so workers race on claims only
        outcomes = _run_processes(
            _mp_sqlite_claim, [(db, "unit-k", f"w{i}") for i in range(4)]
        )
        wins = [worker for worker, won in outcomes if won is True]
        assert len(wins) == 1
        store = SqliteStore(db)
        assert [lease.worker for lease in store.leases()] == wins
        store.close()

    def test_sqlite_concurrent_first_open_of_a_fresh_file(self, tmp_path):
        # Fleet peers often open a store file none of them has created yet.
        # Four processes open 50 fresh files in lockstep; before the set-up
        # retried, a few of those opens died with "database is locked".
        paths = [str(tmp_path / f"fresh{index}.db") for index in range(50)]
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        queue = context.Queue()
        processes = [
            context.Process(target=_mp_sqlite_first_opens, args=(paths, barrier, queue))
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        errors = [error for _ in processes for error in queue.get(timeout=120)]
        for process in processes:
            process.join(timeout=60)
        assert errors == []
        with SqliteStore(paths[-1]) as store:
            assert len(store) == 0

    def test_json_dir_parallel_puts_stay_atomic(self, tmp_path, config):
        # Four processes hammer the same key with distinct payloads; the
        # tempfile + os.replace protocol must leave a complete entry that
        # matches exactly one of the writers, never a torn mix.
        unit = _units(config)[0]
        result = execute_unit(unit)
        key = unit_key(unit)
        root = str(tmp_path / "jd")
        payloads = []
        for marker in range(4):
            payload = encode_result(unit, result)
            payload["failures"] = marker
            payloads.append(json.dumps(payload))
        outcomes = _run_processes(
            _mp_json_dir_put, [(root, text, key, 25) for text in payloads]
        )
        assert outcomes == ["ok"] * 4
        final = (Path(root) / key[:2] / f"{key}.json").read_text(encoding="utf-8")
        assert final in payloads
        leftovers = list((Path(root) / key[:2]).glob(".tmp-*"))
        assert leftovers == []


class TestCacheMigrateCli:
    def _run(self, *argv, cwd=None):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_migrate_command_round_trips(self, tmp_path, config):
        source = JsonDirStore(tmp_path / "src")
        for unit in _units(config, cells=2):
            source.put(unit, execute_unit(unit))
        migrated = self._run(
            "cache", "migrate", f"json-dir:{tmp_path}/src",
            f"sqlite:{tmp_path}/r.db",
        )
        assert migrated.returncode == 0, migrated.stderr
        assert "2 entries copied (verified)" in migrated.stdout
        info = self._run("cache", "info", "--store", f"sqlite:{tmp_path}/r.db")
        assert info.returncode == 0
        assert "2 entries" in info.stdout

    def test_migrate_requires_both_stores(self, tmp_path):
        result = self._run("cache", "migrate", f"json-dir:{tmp_path}/only")
        assert result.returncode == 2
        assert "SOURCE and DEST" in result.stderr

    def test_scheme_scoped_clear(self, tmp_path, config):
        store = JsonDirStore(tmp_path / "jd")
        for unit in _units(config, cells=2, seed_scheme="per-run"):
            store.put(unit, execute_unit(unit))
        for unit in _units(config, cells=1, seed_scheme="unit"):
            store.put(unit, execute_unit(unit))
        cleared = self._run(
            "cache", "clear", "--cache-dir", str(tmp_path / "jd"),
            "--scheme", "per-run",
        )
        assert cleared.returncode == 0
        assert "removed 2 entries" in cleared.stdout
        assert store.scheme_counts() == {"unit": 1}

    def test_rerun_unit_round_trip(self, tmp_path, config):
        store = SqliteStore(tmp_path / "r.db")
        unit = _units(config)[0]
        result = execute_unit(unit)
        store.put(unit, result)
        record = store.provenance(unit_key(unit))
        store.close()
        rerun = self._run("rerun-unit", json.dumps(record["unit"]))
        assert rerun.returncode == 0, rerun.stderr
        assert json.loads(rerun.stdout) == encode_result(unit, result)
