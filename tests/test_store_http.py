"""Tests for the remote result store (``repro.store.http`` + ``server``).

The backend contract classes are inherited from ``test_store`` with the
``store`` fixture overridden to an ``http:`` client fronting an
in-process :class:`StoreServer`, so the remote path satisfies exactly the
same contract as the local backends.  On top of that: server-clock lease
arbitration under skewed clocks, transient/permanent error mapping,
write-behind spool reconciliation, ``chaos+http:`` determinism, and
killed-server / killed-worker convergence mirroring ``test_fleet``.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import test_store as store_suite
from repro.core.config import SimulationConfig
from repro.resilience import (
    FailurePolicy,
    StoreUnavailableError,
    UnitFailure,
    quarantine_entries,
    write_quarantine,
)
from repro.runner.engine import run_grid
from repro.runner.fleet import FleetRunner
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, plan_units
from repro.store import (
    HttpStore,
    HttpStoreError,
    JsonDirStore,
    MemoryStore,
    SqliteStore,
    StoreServer,
    resolve_store,
    unit_key,
)
from unit_reference import assert_grids_equal

P_VALUES = [0.0, 0.05]
Q_VALUES = [0.5, 1.0]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


_units = store_suite._units


@pytest.fixture
def inner(tmp_path):
    store = SqliteStore(tmp_path / "served.db")
    yield store
    store.close()


@pytest.fixture
def server(inner):
    server = StoreServer(inner, port=0).start()
    yield server
    server.shutdown()


@pytest.fixture
def http_store(server):
    store = resolve_store(f"http:127.0.0.1:{server.port}")
    yield store
    store.close()


def _restart(server: StoreServer) -> StoreServer:
    """A new server on the same port and inner store (crash + recovery)."""
    return StoreServer(server.store, host=server.host, port=server.port).start()


class TestHttpStoreContract(store_suite.TestStoreContract):
    @pytest.fixture
    def store(self, http_store):
        return http_store


class TestHttpLeaseContract(store_suite.TestLeaseContract):
    @pytest.fixture
    def store(self, http_store):
        return http_store


class TestRegistryAndParsing:
    def test_resolve_http_uri(self, server):
        store = resolve_store(f"http:127.0.0.1:{server.port}")
        assert isinstance(store, HttpStore)
        assert store.uri() == f"http:127.0.0.1:{server.port}"
        assert store.supports_leases

    @pytest.mark.parametrize(
        "location", ["", "hostonly", "host:", ":8737", "host:notaport"]
    )
    def test_bad_locations_fail_fast(self, location):
        with pytest.raises(ValueError):
            resolve_store(f"http:{location}")

    def test_unknown_option_fails_fast(self):
        with pytest.raises(ValueError, match="unknown http store option"):
            resolve_store("http:127.0.0.1:8737?frobnicate=1")

    def test_health_reports_inner_backend(self, http_store):
        health = http_store.health()
        assert health["ok"] is True
        assert health["backend"] == "sqlite"
        assert health["leases"] is True
        assert abs(health["clock"] - time.time()) < 30.0


class TestErrorMapping:
    def test_connection_refused_is_transient_and_actionable(self):
        store = resolve_store("http:127.0.0.1:9")  # nothing listens there
        with pytest.raises(StoreUnavailableError) as excinfo:
            store.get_record("x")
        message = str(excinfo.value)
        assert "http://127.0.0.1:9" in message
        assert "cache serve" in message

    def test_server_5xx_is_transient(self, inner, server):
        # Close the inner store under the server: every op now explodes
        # server-side, which must surface as a *transient* 5xx -- exactly
        # what a worker sees while a crashed server restarts.
        store = resolve_store(f"http:127.0.0.1:{server.port}")
        inner.close()
        with pytest.raises(StoreUnavailableError, match="HTTP 5"):
            len(store)

    def test_unknown_endpoint_is_permanent(self, http_store):
        with pytest.raises(HttpStoreError, match="HTTP 404"):
            http_store._request("POST", "/no_such_endpoint", {})

    def test_token_mismatch_is_permanent(self, tmp_path):
        inner = MemoryStore()
        with StoreServer(inner, port=0, token="s3cret") as server:
            good = resolve_store(f"http:127.0.0.1:{server.port}?token=s3cret")
            assert len(good) == 0
            bad = resolve_store(f"http:127.0.0.1:{server.port}")
            with pytest.raises(HttpStoreError, match="HTTP 401"):
                len(bad)
            wrong = resolve_store(f"http:127.0.0.1:{server.port}?token=nope")
            with pytest.raises(HttpStoreError, match="HTTP 401"):
                len(wrong)

    def test_fleet_on_a_served_json_dir_fails_on_its_first_claim(
        self, tmp_path, config, monkeypatch
    ):
        # json-dir serves results only: the server answers a claim with a
        # permanent 400, so the fleet neither retries nor backs off.
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with StoreServer(JsonDirStore(tmp_path / "jd"), port=0) as server:
            options = ExecutionOptions(
                store=server.store_uri(), fleet=True,
                failure_policy=FailurePolicy(store_retries=5),
            )
            with pytest.raises(HttpStoreError, match="HTTP 400.*'sqlite:PATH'"):
                run_grid(config, P_VALUES, Q_VALUES, runs=1, seed=3, options=options)
        assert sleeps == []
        assert not (tmp_path / "jd").exists()


class TestServerSideArbitration:
    """The server's clock decides lease expiry, never the client's."""

    class _SkewableStore(MemoryStore):
        def __init__(self):
            super().__init__()
            self.offset = 0.0

        def _now(self):
            return time.time() + self.offset

    def test_claim_sends_durations_not_timestamps(self, http_store):
        sent = []
        original = http_store._request

        def recording(method, path, payload=None):
            sent.append((path, payload))
            return original(method, path, payload)

        http_store._request = recording
        http_store.claim("k1", "alice", ttl=60.0)
        http_store.heartbeat(["k1"], "alice", ttl=60.0)
        claim_body = dict(sent[0][1])
        beat_body = dict(sent[1][1])
        # The wire protocol has no field for an absolute expiry: however
        # skewed the client's wall clock, it can only ever ask for a TTL
        # duration, and the server computes `its own _now() + ttl`.
        assert claim_body == {"key": "k1", "worker": "alice", "ttl": 60.0}
        assert beat_body == {"keys": ["k1"], "worker": "alice", "ttl": 60.0}

    def test_skewed_clients_cannot_cause_premature_takeover(self):
        inner = self._SkewableStore()
        with StoreServer(inner, port=0) as server:
            alice = resolve_store(f"http:127.0.0.1:{server.port}")
            bob = resolve_store(f"http:127.0.0.1:{server.port}")
            assert alice.claim("k1", "alice", ttl=60.0)
            # However far ahead bob *believes* the time is, the server's
            # clock says the lease is live: no takeover.
            assert not bob.claim("k1", "bob", ttl=60.0)
            # Only the server's clock advancing past the TTL frees it.
            inner.offset = 61.0
            assert bob.claim("k1", "bob", ttl=60.0)
            # alice's heartbeat now reports the loss (server-side truth).
            assert alice.heartbeat(["k1"], "alice", ttl=60.0) == 0
            assert [lease.worker for lease in bob.leases()] == ["bob"]

    def test_lease_expiries_are_in_the_servers_clock_domain(self):
        inner = self._SkewableStore()
        inner.offset = 1000.0
        with StoreServer(inner, port=0) as server:
            store = resolve_store(f"http:127.0.0.1:{server.port}")
            assert store.claim("k1", "alice", ttl=60.0)
            (lease,) = store.leases()
            assert lease.expires == pytest.approx(
                time.time() + 1000.0 + 60.0, abs=30.0
            )


class TestProvenanceAndQuarantine:
    def test_put_preserves_sqlite_provenance(self, inner, http_store, config):
        unit = _units(config)[0]
        http_store.put(unit, execute_unit(unit))
        provenance = inner.provenance(unit_key(unit))
        assert provenance is not None
        assert provenance["unit"] == unit.to_payload()
        assert "rerun-unit" in provenance["rerun_command"]

    def test_put_many_preserves_sqlite_provenance(self, inner, http_store, config):
        units = _units(config, cells=3)
        http_store.put_many([(unit, execute_unit(unit)) for unit in units])
        for unit in units:
            assert inner.provenance(unit_key(unit)) is not None

    def test_quarantine_round_trips_over_http(self, http_store, config):
        unit = _units(config)[0]
        failure = UnitFailure(
            unit_key=unit_key(unit),
            seed_path=unit.seed_path,
            run_start=unit.run_start,
            run_stop=unit.run_stop,
            error_type="RuntimeError",
            message="boom",
            attempts=3,
            unit_payload=unit.to_payload(),
        )
        write_quarantine(http_store, failure, worker="w0")
        (entry,) = quarantine_entries(http_store)
        assert entry.unit_key == unit_key(unit)
        assert entry.message == "boom"
        assert entry.worker == "w0"
        assert "rerun-unit" in entry.rerun


class TestWriteBehindSpool:
    def _fixtures(self, tmp_path):
        inner = SqliteStore(tmp_path / "served.db")
        server = StoreServer(inner, port=0).start()
        store = resolve_store(
            f"http:127.0.0.1:{server.port}?spool={tmp_path}/journal.jsonl"
        )
        return inner, server, store

    def test_unreachable_puts_spool_and_reconcile_on_restart(
        self, tmp_path, config
    ):
        inner, server, store = self._fixtures(tmp_path)
        units = _units(config, cells=4)
        results = [execute_unit(unit) for unit in units]
        store.put(units[0], results[0])
        server.shutdown()

        # Degraded mode: writes land in the local journal, reads of the
        # spooled keys are served from it, reads of anything else stay
        # strict errors.
        store.put(units[1], results[1])
        assert store.put_many([(units[2], results[2])]) == 1
        assert store.spooled() == 2
        journal = tmp_path / "journal.jsonl"
        assert journal.exists()
        assert store.get(units[1]) == results[1]
        with pytest.raises(StoreUnavailableError):
            store.get(units[3])

        # Restart on the same port: the next write reconciles the journal
        # first (oldest first, plain upserts), then lands itself.
        server = _restart(server)
        try:
            store.put(units[3], results[3])
            assert store.spooled() == 0
            assert not journal.exists()
            assert len(store) == 4
            for unit, result in zip(units, results):
                assert store.get(unit) == result
        finally:
            store.close()
            server.shutdown()
            inner.close()

    def test_spool_survives_a_client_crash(self, tmp_path, config):
        inner, server, store = self._fixtures(tmp_path)
        unit = _units(config)[0]
        result = execute_unit(unit)
        server.shutdown()
        store.put(unit, result)
        assert store.spooled() == 1
        # A second client process opening the same spool (this store
        # object simulates it by re-resolving the URI) inherits the
        # journal and reconciles it.
        reopened = resolve_store(
            f"http:127.0.0.1:{server.port}?spool={tmp_path}/journal.jsonl"
        )
        assert reopened.spooled() == 1
        server = _restart(server)
        try:
            assert reopened.reconcile() == 1
            assert reopened.get(unit) == result
            assert reopened.spooled() == 0
        finally:
            reopened.close()
            server.shutdown()
            inner.close()

    def test_reconcile_never_duplicates(self, tmp_path, config):
        inner, server, store = self._fixtures(tmp_path)
        unit = _units(config)[0]
        result = execute_unit(unit)
        store.put(unit, result)  # already on the server
        server.shutdown()
        store.put(unit, result)  # spooled again while down
        server = _restart(server)
        try:
            assert store.reconcile() == 1
            assert len(store) == 1  # upsert: one entry, not two
            assert store.get(unit) == result
        finally:
            store.close()
            server.shutdown()
            inner.close()

    def test_reconcile_while_down_keeps_the_journal(self, tmp_path, config):
        inner, server, store = self._fixtures(tmp_path)
        unit = _units(config)[0]
        server.shutdown()
        store.put(unit, execute_unit(unit))
        with pytest.raises(StoreUnavailableError):
            store.reconcile()
        assert store.spooled() == 1
        inner.close()

    def test_close_reconciles_best_effort(self, tmp_path, config):
        inner, server, store = self._fixtures(tmp_path)
        unit = _units(config)[0]
        result = execute_unit(unit)
        server.shutdown()
        store.put(unit, result)
        server = _restart(server)
        try:
            store.close()
            assert inner.get(unit) == result
        finally:
            server.shutdown()
            inner.close()


class TestChaosHttp:
    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    def test_chaotic_http_fleet_is_bit_identical_to_serial(
        self, inner, server, config, scheme
    ):
        serial = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(seed_scheme=scheme),
        )
        chaotic = resolve_store(
            f"chaos+http:127.0.0.1:{server.port}?rate=0.2&seed=3&burst=2"
        )
        fleet = run_grid(
            config, P_VALUES, Q_VALUES, runs=2, seed=7,
            options=ExecutionOptions(
                seed_scheme=scheme, store=chaotic, fleet=True, lease_ttl=10.0,
                failure_policy=FailurePolicy(max_retries=2),
            ),
        )
        assert_grids_equal(fleet, serial)
        # Every unit's result landed exactly once in the served store.
        assert len(inner) == 4
        assert inner.leases() == []

    def test_chaos_http_schedule_is_deterministic(self, server, config):
        uri = f"chaos+http:127.0.0.1:{server.port}?rate=0.7&seed=11&ops=get"
        first = resolve_store(uri)
        second = resolve_store(uri)
        unit = _units(config)[0]

        def trace(store):
            outcomes = []
            for _ in range(12):
                try:
                    store.get(unit)
                    outcomes.append("ok")
                except StoreUnavailableError:
                    outcomes.append("fault")
            return outcomes

        assert trace(first) == trace(second)
        assert "fault" in trace(resolve_store(uri))


class TestServerCrashRecovery:
    def test_fleet_rides_out_a_server_restart(self, tmp_path, config):
        inner = SqliteStore(tmp_path / "served.db")
        server = StoreServer(inner, port=0).start()
        store = resolve_store(f"http:127.0.0.1:{server.port}")
        units = _units(config, cells=6, runs=2)
        # A generous transient-retry budget is exactly how a real worker
        # is configured to survive a result-store server restart.
        runner = FleetRunner(
            store,
            worker_id="w0",
            lease_ttl=20.0,
            claim_batch=1,
        )
        collected = {}
        failures = []

        def run():
            try:
                runner.run(
                    units,
                    lambda unit, r: collected.__setitem__(r.seed_path, r),
                    policy=FailurePolicy(max_retries=0, store_retries=10),
                )
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.3)  # mid-sweep...
        server.shutdown()  # ...the server dies (all sockets severed)...
        time.sleep(0.3)  # ...stays dead long enough to hurt...
        server = _restart(server)  # ...and comes back on the same port.
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert failures == []
        assert len(collected) == len(units)
        for unit in units:
            assert collected[unit.seed_path] == execute_unit(unit)
        assert len(inner) == len(units)
        assert inner.leases() == []
        store.close()
        server.shutdown()
        inner.close()


class TestServeCli:
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

    def _serve(self, tmp_path, *extra):
        """Start ``cache serve`` on an ephemeral port; returns (proc, port)."""
        process = self._spawn(
            "cache", "serve", f"sqlite:{tmp_path}/served.db",
            "--port", "0", *extra, cwd=tmp_path,
        )
        banner = process.stdout.readline()
        assert "serving" in banner, banner
        port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
        return process, port

    def test_serve_cli_requires_a_source(self, tmp_path):
        code, _, stderr = self._run("cache", "serve", cwd=tmp_path)
        assert code == 2
        assert "cache serve needs the store to front" in stderr

    def test_serve_cli_token_auth(self, tmp_path):
        server, port = self._serve(tmp_path, "--token", "s3cret")
        try:
            code, stdout, stderr = self._run(
                "cache", "info",
                "--store", f"http:127.0.0.1:{port}?token=s3cret", cwd=tmp_path,
            )
            assert code == 0, stderr
            assert "0 entries" in stdout
            code, _, stderr = self._run(
                "cache", "info", "--store", f"http:127.0.0.1:{port}",
                cwd=tmp_path,
            )
            assert code == 2
            assert "HTTP 401" in stderr
        finally:
            server.terminate()
            server.wait(timeout=30)

    def test_cache_info_prints_one_actionable_line_when_down(self, tmp_path):
        code, _, stderr = self._run(
            "cache", "info", "--store", "http:127.0.0.1:9", cwd=tmp_path
        )
        assert code == 2
        lines = [line for line in stderr.splitlines() if line.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "cache serve" in lines[0]
        assert "http://127.0.0.1:9" in lines[0]

    def test_rerun_unit_prints_one_actionable_line_when_down(
        self, tmp_path, config
    ):
        unit = _units(config)[0]
        code, _, stderr = self._run(
            "rerun-unit", json.dumps(unit.to_payload()),
            "--store", "http:127.0.0.1:9", cwd=tmp_path,
        )
        assert code == 2
        lines = [line for line in stderr.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "cache serve" in lines[0]
