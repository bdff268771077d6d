"""Tests for multi-threaded compiled kernels and the thread executor.

Covers the ``kernel_threads`` spec layer (:mod:`repro.kernels.threads`:
parsing, environment default, ``auto`` resolution against the core
share of the enclosing pools and fleet peers, the context-local scopes),
bit-identity of the OpenMP row-parallel cext kernels at every team size
(1 thread == N threads == the numpy reference, under both seed
schemes), the shared-memory :class:`~repro.runner.executors.ThreadExecutor`
(its grids are cells of
the ``tests/test_execution_options.py`` matrix), the ``kernel_threads``
plumbing through work units / cache keys / CLI, the Gilbert draws (masks
and every generator's post-call state equal to the serial chain for both
backends, at 1 and 2 kernel threads, with distinct and shared
generators), and the graceful
degradation paths when the OpenMP or ``libnpyrandom`` probe compile fails
(poisoned ``CFLAGS``): one warning, fallback kernels, identical results;
and the one :func:`~repro.kernels.kernel_scope` per work unit, which
routes every sojourn, gather and decode call of a sweep, a pool or a
fleet to one backend resolved once.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.core.sweep import simulate_grid
from repro.fastpath import simulate_batch_columnar
from repro.fec.registry import make_code
from repro.kernels import (
    THREADS_ENV_VAR,
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    cext_compiler_available,
    cext_openmp_enabled,
    current_backend,
    current_thread_count,
    default_backend_name,
    get_backend,
    kernel_scope,
    normalize_thread_spec,
    physical_cores,
    resolve_thread_count,
    share_cores,
)
from repro.kernels import threads
from repro.kernels.numpy_backend import NumpyBackend
from repro.pipeline import synthesize_runs
from repro.resilience.policy import FailurePolicy
from repro.store.codec import unit_key
from repro.runner.cli import main as cli_main
from repro.runner.executors import SerialExecutor, ThreadExecutor, resolve_executor
from repro.runner.options import ExecutionOptions
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.scheduling.registry import make_tx_model
from repro.seeds import get_scheme
from serial_reference import gilbert_loss_mask_serial
from unit_reference import assert_grids_equal

needs_cext = pytest.mark.skipif(
    not cext_compiler_available(), reason="no C compiler for the cext backend"
)

SCHEMES = ["per-run", "unit"]


# ---------------------------------------------------------------------------
# Spec parsing and resolution.
# ---------------------------------------------------------------------------


class TestThreadSpec:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (None, None),
            ("", None),
            ("  ", None),
            ("auto", "auto"),
            ("AUTO", "auto"),
            (1, "1"),
            (4, "4"),
            ("4", "4"),
            (" 2 ", "2"),
        ],
    )
    def test_normalize(self, spec, expected):
        assert normalize_thread_spec(spec) == expected

    @pytest.mark.parametrize("spec", [0, -1, "0", "-3", "bogus", 1.5, "1.5"])
    def test_normalize_rejects(self, spec):
        with pytest.raises(ValueError, match="kernel_threads"):
            normalize_thread_spec(spec)

    def test_explicit_spec_wins(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "7")
        assert resolve_thread_count(3) == 3
        assert resolve_thread_count("5") == 5

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "6")
        assert resolve_thread_count() == 6
        monkeypatch.setenv(THREADS_ENV_VAR, "")
        assert resolve_thread_count() == resolve_thread_count("auto")

    def test_auto_divides_cores_by_the_share(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        cores = physical_cores()
        assert resolve_thread_count("auto") == max(1, cores)
        with share_cores(2):
            assert resolve_thread_count("auto") == max(1, cores // 2)
        with share_cores(2 * cores):
            # Oversubscribed pool: kernels drop to one thread, never 0.
            assert resolve_thread_count("auto") == 1
        assert resolve_thread_count("auto") == max(1, cores)

    def test_nested_shares_multiply(self, monkeypatch):
        # Fleet peers (outer) running thread pools (inner).
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 8)
        with share_cores(2):
            assert resolve_thread_count("auto") == 4
            with share_cores(2):
                assert resolve_thread_count("auto") == 2
            assert resolve_thread_count("auto") == 4
            # Explicit counts are never divided.
            assert resolve_thread_count(3) == 3
        assert resolve_thread_count("auto") == 8

    def test_context_carries_spec_to_call_site(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        with kernel_scope(threads="3"):
            assert current_thread_count() == 3
            with kernel_scope(threads=5):
                assert current_thread_count() == 5
            assert current_thread_count() == 3
        # None is a no-op frame: ambient resolution shows through.
        with kernel_scope(threads=None):
            assert current_thread_count() == resolve_thread_count()

    def test_physical_cores_positive(self):
        assert physical_cores() >= 1

    @pytest.mark.parametrize("values", [(2, 2), (4, 2), (2, 1)])
    def test_overlapping_scopes_close_in_any_order(self, values, monkeypatch):
        # Two thread pools or fleet peers in one process, each in its own
        # thread: the first scope closes while the second is open, each
        # thread sees only its own share, and the caller's is untouched.
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 8)
        both_open, first_closed = threading.Barrier(2), threading.Event()
        seen = [None, None]

        def peer(index: int) -> None:
            with share_cores(values[index]):
                both_open.wait(timeout=60)
                if index == 1:
                    first_closed.wait(timeout=60)
                seen[index] = resolve_thread_count("auto")
            if index == 0:
                first_closed.set()

        peers = [threading.Thread(target=peer, args=(index,)) for index in (0, 1)]
        for thread in peers:
            thread.start()
        for thread in peers:
            thread.join(timeout=60)
        assert seen == [8 // values[0], 8 // values[1]]
        assert resolve_thread_count("auto") == 8

    def test_auto_is_capped_at_the_cpu_affinity(self, monkeypatch):
        # Pinned to one CPU (taskset -c 0), auto must not start a second
        # kernel thread on it, however many cores the host has.
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", None)
        monkeypatch.setattr(
            threads.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert physical_cores() == 1
        assert resolve_thread_count("auto") == 1


# ---------------------------------------------------------------------------
# Bit-identity of the threaded kernels.
# ---------------------------------------------------------------------------


def _batch_args(k: int = 120):
    code = make_code("ldgm-staircase", k=k, expansion_ratio=2.5, seed=3)
    return code, make_tx_model("tx_model_2"), GilbertChannel(0.08, 0.4)


def _streams(scheme: str, count: int, seed: int = 17):
    if scheme == "per-run":
        return [
            np.random.default_rng(np.random.SeedSequence([seed, run]))
            for run in range(count)
        ]
    return get_scheme(scheme).unit_streams(seed, (), 0, count)


@needs_cext
class TestThreadedKernelBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("threads", [2, 4])
    def test_cext_threads_match_numpy_reference(self, scheme, threads):
        code, tx_model, channel = _batch_args()
        with kernel_scope("numpy"):
            reference = simulate_batch_columnar(code, tx_model, channel, _streams(scheme, 40))
        with kernel_scope("cext", 1):
            one = simulate_batch_columnar(code, tx_model, channel, _streams(scheme, 40))
        with kernel_scope("cext", threads):
            many = simulate_batch_columnar(code, tx_model, channel, _streams(scheme, 40))
        for batch in (one, many):
            assert np.array_equal(batch.decoded, reference.decoded)
            assert np.array_equal(batch.n_necessary, reference.n_necessary)
            assert np.array_equal(batch.n_received, reference.n_received)
            assert np.array_equal(batch.n_sent, reference.n_sent)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_fill_sojourns_batch_thread_identity(self, threads):
        backend = get_backend("cext")
        numpy_backend = get_backend("numpy")
        rng = np.random.default_rng(5)
        num_runs, count, batch = 13, 64, 24
        states = rng.integers(0, 2, size=num_runs).astype(np.uint8)
        gap_runs = rng.integers(1, 9, size=(num_runs, batch)).astype(np.int64)
        burst_runs = rng.integers(1, 5, size=(num_runs, batch)).astype(np.int64)

        def run(kernel_backend, team):
            masks = np.zeros((num_runs, count), dtype=bool)
            with kernel_scope(kernel_backend, team):
                filled = kernel_backend.fill_sojourns_batch(
                    masks, states, gap_runs, burst_runs
                )
            return masks, filled

        ref_masks, ref_filled = run(numpy_backend, 1)
        for team in (1, threads):
            masks, filled = run(backend, team)
            assert np.array_equal(masks, ref_masks)
            assert np.array_equal(filled, ref_filled)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_many_kernel_threads(self, scheme):
        code, tx_model, channel = _batch_args(k=80)

        def build():
            return Simulator(code, tx_model, channel)

        reference = build().run_many(6, rng=9, seed_scheme=scheme, fastpath=False)
        for threads in (1, 3):
            with kernel_scope("cext", threads):
                assert build().run_many(6, rng=9, seed_scheme=scheme) == reference


# ---------------------------------------------------------------------------
# ThreadExecutor: shared-memory pool, grid bit-identity across executors.
# ---------------------------------------------------------------------------


def _small_units():
    config = SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=60, expansion_ratio=2.5
    )
    return plan_units(
        [((index,), config, 0.1, 0.5) for index in range(4)], runs=3, base_seed=11
    )


def _recording(base):
    """``base`` recording the kernel team each unit resolves into ``seen``."""

    class _Recording(base):
        seen: list

        def _execute_one(self, unit, front_ends):
            with kernel_scope(unit.kernel, unit.kernel_threads):
                self.seen.append(current_thread_count())
            return super()._execute_one(unit, front_ends)

    return _Recording


class TestThreadExecutor:
    def test_resolve_executor_thread(self):
        executor = resolve_executor(None, 3)
        assert isinstance(executor, ThreadExecutor)
        assert executor.workers == 3

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(ValueError):
            ThreadExecutor(-2)

    def test_run_preserves_unit_order_semantics(self):
        config = SimulationConfig(
            code="ldgm-staircase", tx_model="tx_model_2", k=60, expansion_ratio=2.5
        )
        units = plan_units(
            [((index,), config, 0.1, 0.5) for index in range(4)],
            runs=3,
            base_seed=11,
        )
        serial = {unit.seed_path: execute_unit(unit) for unit in units}
        collected = {}
        ThreadExecutor(2).run(
            units, lambda unit, result: collected.__setitem__(result.seed_path, result)
        )
        assert collected == serial

    def test_thread_pool_composes_with_host_peers(self, monkeypatch):
        # Two same-host fleet peers, each with 2 thread workers, on 4
        # cores: 2 workers x 1 kernel thread x 2 peers.
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 4)
        pool = _recording(ThreadExecutor)(2)
        pool.seen = []
        with share_cores(2):
            pool.run(_small_units(), lambda unit, result: None)
            assert resolve_thread_count("auto") == 2
        assert pool.seen and set(pool.seen) == {1}
        assert resolve_thread_count("auto") == 4

    def test_auto_divides_by_the_threads_the_pool_starts(self, monkeypatch):
        # One synthesis group starts one pool thread: it keeps every core.
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 4)
        pool = _recording(ThreadExecutor)(4)
        pool.seen = []
        pool.run(_small_units()[:1], lambda unit, result: None)
        assert pool.seen == [4]

    def test_a_serial_sweep_keeps_every_core_beside_an_open_pool(self, monkeypatch):
        # Another thread's 2-thread pool is mid-unit while this thread
        # runs serially: the pool's share is its own.
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 4)
        pool_open, serial_done = threading.Event(), threading.Event()

        class _Holding(_recording(ThreadExecutor)):
            def _execute_one(self, unit, front_ends):
                pool_open.set()
                serial_done.wait(timeout=60)
                return super()._execute_one(unit, front_ends)

        pool, serial = _Holding(2), _recording(SerialExecutor)()
        pool.seen, serial.seen = [], []
        background = threading.Thread(
            target=pool.run, args=(_small_units(), lambda unit, result: None)
        )
        background.start()
        try:
            assert pool_open.wait(timeout=60)
            serial.run(_small_units()[:1], lambda unit, result: None)
        finally:
            serial_done.set()
            background.join(timeout=60)
        assert serial.seen == [4]
        assert pool.seen and set(pool.seen) == {2}

    def test_a_unit_under_a_timeout_keeps_the_pool_share(self, monkeypatch):
        # unit_timeout runs each attempt on a watchdog thread, in a copy
        # of the pool thread's context.
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 4)
        pool = _recording(ThreadExecutor)(2)
        pool.seen = []
        pool.run(
            _small_units(), lambda unit, result: None,
            policy=FailurePolicy(unit_timeout=60.0),
        )
        assert pool.seen and set(pool.seen) == {2}

# ---------------------------------------------------------------------------
# Plumbing: work units, cache keys, CLI.
# ---------------------------------------------------------------------------


class TestKernelThreadsPlumbing:
    def _base(self):
        return dict(
            config=SimulationConfig(
                code="ldgm-staircase", tx_model="tx_model_2", k=60,
                expansion_ratio=2.5,
            ),
            p=0.1,
            q=0.5,
            seed_path=(0,),
            run_start=0,
            run_stop=4,
            base_seed=1,
        )

    def test_plan_units_threads_spec(self):
        config = SimulationConfig(
            code="rse", tx_model="tx_model_5", k=60, expansion_ratio=2.0
        )
        units = plan_units(
            [((0,), config, 0.1, 0.5)], runs=4, base_seed=3,
            options=ExecutionOptions(kernel_threads=4),
        )
        assert all(unit.kernel_threads == "4" for unit in units)

    def test_plan_units_rejects_bad_spec(self):
        config = SimulationConfig(
            code="rse", tx_model="tx_model_5", k=60, expansion_ratio=2.0
        )
        with pytest.raises(ValueError, match="kernel_threads"):
            plan_units(
                [((0,), config, 0.1, 0.5)], runs=4, base_seed=3,
                options=ExecutionOptions(kernel_threads="bogus"),
            )

    def test_payload_round_trip(self):
        unit = WorkUnit(**self._base(), kernel_threads="4")
        restored = WorkUnit.from_payload(unit.to_payload())
        assert restored.kernel_threads == "4"
        assert restored == unit

    def test_old_payload_defaults_to_none(self):
        payload = WorkUnit(**self._base()).to_payload()
        payload.pop("kernel_threads")
        assert WorkUnit.from_payload(payload).kernel_threads is None

    def test_kernel_threads_not_in_cache_key(self):
        base = self._base()
        assert unit_key(WorkUnit(**base)) == unit_key(
            WorkUnit(**base, kernel_threads="4")
        )
        assert unit_key(WorkUnit(**base, kernel_threads="auto")) == unit_key(
            WorkUnit(**base, kernel_threads="2")
        )

    def test_execute_unit_honours_spec(self):
        base = self._base()
        reference = execute_unit(WorkUnit(**base))
        threaded = execute_unit(WorkUnit(**base, kernel_threads="3"))
        assert threaded == reference

    def test_cli_kernel_threads_flag(self, capsys):
        exit_code = cli_main(
            [
                "run", "fig07", "--scale", "tiny", "--runs", "1",
                "--no-cache", "--quiet", "--workers", "2",
                "--kernel-threads", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "kernel-threads=2" in captured.out

    def test_cli_bad_kernel_threads_fails_fast(self, capsys):
        exit_code = cli_main(
            ["run", "fig07", "--scale", "tiny", "--no-cache",
             "--kernel-threads", "bogus"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "kernel_threads" in captured.err


# ---------------------------------------------------------------------------
# Gilbert draws: identical masks and generator states.
# ---------------------------------------------------------------------------

#: Includes the degenerate chains (0), IID losses (1.0) and the tiny
#: probabilities at which geometric draws saturate near 2**63 - 1.
DRAW_GRID = [0.0, 1e-300, 1e-12, 0.05, 0.3, 0.9, 1.0]
#: Empty, shorter than, equal to and well past one 256-sojourn batch.
DRAW_COUNTS = (0, 1, 255, 256, 3000, 5000)


def _draw_generators(shared: bool, runs: int = 4):
    if shared:
        return [np.random.default_rng(23)] * runs
    return [np.random.default_rng([23, run]) for run in range(runs)]


def assert_draws_match_serial(kernel, shared: bool) -> None:
    """``loss_mask_batch`` equals the serial chain, row by row, across the grid.

    Both the masks and every generator's ``bit_generator.state`` after the
    call must match; with a shared generator the serial chain runs its
    rows one after the other on the one stream.
    """
    for p in DRAW_GRID:
        for q in DRAW_GRID:
            channel = GilbertChannel(p, q)
            for count in DRAW_COUNTS:
                fast, slow = _draw_generators(shared), _draw_generators(shared)
                with kernel_scope(kernel):
                    masks = channel.loss_mask_batch(count, fast)
                for row, rng in zip(masks, slow):
                    expected = gilbert_loss_mask_serial(channel, count, rng)
                    assert np.array_equal(row, expected), (p, q, count)
                for after, reference in zip(fast, slow):
                    assert after.bit_generator.state == reference.bit_generator.state, (
                        p, q, count,
                    )


class TestGilbertDrawIdentity:
    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
    def test_masks_and_generator_state_match_serial(self, kernel, threads, shared):
        with kernel_scope(threads=threads):
            assert_draws_match_serial(kernel, shared)

    @needs_cext
    def test_concurrent_calls_on_one_generator_draw_whole_blocks(self):
        # The compiled draws run with the interpreter lock released; the
        # generator's own lock must keep each call's draws contiguous.
        backend = get_backend("cext")
        if not backend.npyrandom:
            pytest.skip("cext library built without libnpyrandom")
        # Short sojourns make many compiled rounds per call, so calls overlap.
        channel, count, runs, calls = GilbertChannel(0.5, 0.5), 20000, 8, 16
        shared = np.random.default_rng(5)
        results = [None] * calls

        def work(call):
            with kernel_scope(backend):
                results[call] = channel.loss_mask_batch(count, [shared] * runs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(call,)) for call in range(calls)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)

        reference = np.random.default_rng(5)
        chains = np.array(
            [gilbert_loss_mask_serial(channel, count, reference) for _ in range(calls * runs)]
        ).reshape(calls, runs, count)
        assert shared.bit_generator.state == reference.bit_generator.state
        blocks = [
            next((index for index in range(calls) if np.array_equal(result, chains[index])), -1)
            for result in results
        ]
        assert sorted(blocks) == list(range(calls))


# ---------------------------------------------------------------------------
# Graceful degradation: poisoned OpenMP and libnpyrandom probes.
# ---------------------------------------------------------------------------


@needs_cext
class TestOpenMPDegradation:
    def test_poisoned_probe_degrades_to_serial(self, tmp_path, monkeypatch, caplog):
        import repro.kernels.cext as cext

        monkeypatch.setenv("CFLAGS", "-DREPRO_POISON_OPENMP")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(cext, "_warned", set())

        with caplog.at_level("WARNING", logger="repro.kernels"):
            backend = cext.CExtBackend()
        assert backend.openmp is False
        warnings = [
            record for record in caplog.records
            if "OpenMP unavailable" in record.getMessage()
        ]
        assert len(warnings) == 1

        # Never crash, never change results: the serial fallback still
        # decodes bit-identically to the numpy reference, and an explicit
        # thread spec is forced down to one thread.
        code, tx_model, channel = _batch_args(k=60)
        with kernel_scope("numpy"):
            reference = simulate_batch_columnar(code, tx_model, channel, _streams("per-run", 12))
        with kernel_scope(backend, 4):
            assert backend._team_size(12) == 1
            degraded = simulate_batch_columnar(
                code, tx_model, channel, _streams("per-run", 12)
            )
        assert np.array_equal(degraded.decoded, reference.decoded)
        assert np.array_equal(degraded.n_necessary, reference.n_necessary)

        # A second backend in the same (poisoned) process stays quiet:
        # the warning fires once per process, not once per instance.
        with caplog.at_level("WARNING", logger="repro.kernels"):
            count_before = len(caplog.records)
            cext.CExtBackend()
        repeats = [
            record for record in caplog.records[count_before:]
            if "OpenMP unavailable" in record.getMessage()
        ]
        assert not repeats

    def test_openmp_provenance_reported(self):
        assert cext_openmp_enabled() in (True, False)


class TestLibraryCacheKey:
    def test_digest_covers_compiler_numpy_and_cflags(self, monkeypatch):
        import repro.kernels.cext as cext

        # A library built by another compiler, or linked against another
        # numpy's libnpyrandom, must never be picked up from the cache.
        monkeypatch.delenv("CFLAGS", raising=False)
        base = cext._library_digest("/usr/bin/cc")
        assert cext._library_digest("/usr/bin/cc") == base
        assert cext._library_digest("/opt/other/bin/cc") != base
        with monkeypatch.context() as patch:
            patch.setenv("CFLAGS", "-O3")
            assert cext._library_digest("/usr/bin/cc") != base
        with monkeypatch.context() as patch:
            patch.setattr(cext.np, "__version__", "0.0.0")
            assert cext._library_digest("/usr/bin/cc") != base
        with monkeypatch.context() as patch:
            patch.setattr(cext, "_npyrandom_dir", lambda: cext.Path("/elsewhere"))
            assert cext._library_digest("/usr/bin/cc") != base


@needs_cext
class TestNpyrandomDegradation:
    def test_poisoned_link_probe_serves_python_draws(self, tmp_path, monkeypatch, caplog):
        import repro.kernels.cext as cext

        monkeypatch.setenv("CFLAGS", "-DREPRO_POISON_NPYRANDOM")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(cext, "_warned", set())

        with caplog.at_level("WARNING", logger="repro.kernels"):
            backend = cext.CExtBackend()
            cext.CExtBackend()  # loads the cached fallback: no second warning
        assert backend.npyrandom is False
        warnings = [
            record for record in caplog.records
            if "libnpyrandom link unavailable" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert "poisoned" in warnings[0].getMessage()

        # Loud but never fatal, never result-changing: the Python draw
        # loop serves identical masks and generator states.
        for shared in (False, True):
            with kernel_scope(threads=2):
                assert_draws_match_serial(backend, shared)


@needs_cext
class TestKernelCallMarshalling:
    def test_converted_arguments_outlive_the_call(self):
        # Kernels take plain addresses, which do not keep an array alive:
        # the uint8 copy of bool states and the int64 copies of int32
        # sojourn columns must survive the call while two threads keep
        # allocating and freeing arrays of the same sizes.
        from concurrent.futures import ThreadPoolExecutor

        backend = get_backend("cext")
        rng = np.random.default_rng(5)
        runs, count, batch = 64, 300, 32
        states = rng.random(runs) < 0.5
        gap = rng.geometric(0.2, (runs, batch)).astype(np.int32)
        burst = rng.geometric(0.5, (runs, batch)).astype(np.int32)
        expected = np.empty((runs, count), dtype=bool)
        expected_filled = get_backend("numpy").fill_sojourns_batch(expected, states, gap, burst)

        def fill(_):
            masks = np.empty((runs, count), dtype=bool)
            with kernel_scope(backend, 2):
                filled = backend.fill_sojourns_batch(masks, states, gap, burst)
            return masks, filled

        with ThreadPoolExecutor(2) as pool:
            outcomes = list(pool.map(fill, range(200)))
        for masks, filled in outcomes:
            assert np.array_equal(filled, expected_filled)
            for row in range(runs):
                assert np.array_equal(masks[row, : filled[row]], expected[row, : filled[row]])

    @needs_cext
    def test_concurrent_first_ldgm_decodes_keep_their_adjacency(self):
        # The column adjacency is built on a prototype's first decode.  Two
        # threads decoding a fresh code at once may both build it; each
        # must pass C arrays that stay alive for its whole call.
        from concurrent.futures import ThreadPoolExecutor

        from repro.fastpath.prototypes import LDGMPrototype

        rng = np.random.default_rng(11)
        k, n, runs = 400, 1000, 16
        received = [rng.permutation(n)[: int(rng.integers(k, n))] for _ in range(runs)]
        for seed in range(20):
            code = make_code("ldgm-triangle", k=k, n=n, seed=seed)
            with kernel_scope("numpy"):
                expected = LDGMPrototype(code).decode_batch(received)
            with kernel_scope("cext"):
                prototype = LDGMPrototype(code)
            barrier = threading.Barrier(2)

            def decode(_):
                barrier.wait()
                with kernel_scope(threads=2):
                    return prototype.decode_batch(received)

            with ThreadPoolExecutor(2) as pool:
                for decoded, necessary in pool.map(decode, range(2)):
                    assert np.array_equal(decoded, expected[0])
                    assert np.array_equal(necessary, expected[1])

    @needs_cext
    def test_ldgm_decode_holds_the_adjacency_it_passes(self, monkeypatch):
        # A concurrent first decode may rebuild the matrix's adjacency cache
        # and so drop the arrays an earlier read returned.  Model that by
        # handing out fresh copies on every read: what the backend passes
        # to C must stay alive for the whole call.
        from repro.fastpath.prototypes import LDGMPrototype

        rng = np.random.default_rng(12)
        k, n, runs = 4000, 10000, 8
        received = [rng.permutation(n)[: int(rng.integers(k, n))] for _ in range(runs)]
        code = make_code("ldgm-triangle", k=k, n=n, seed=3)
        with kernel_scope("numpy"):
            expected = LDGMPrototype(code).decode_batch(received)
        build = type(code.matrix).column_adjacency
        monkeypatch.setattr(
            code.matrix,
            "column_adjacency",
            lambda: tuple(array.copy() for array in build(code.matrix)),
        )
        with kernel_scope("cext"):
            decoded, necessary = LDGMPrototype(code).decode_batch(received)
        assert np.array_equal(decoded, expected[0])
        assert np.array_equal(necessary, expected[1])


class TestPerUnitResolution:
    """The backend and the kernel team are resolved once per work unit."""

    @staticmethod
    def _team_seen(monkeypatch, unit) -> int:
        import repro.runner.units as units_module

        seen = []
        original = units_module._unit_batch_impl

        def recording(unit, front_ends):
            seen.append(current_thread_count())
            return original(unit, front_ends)

        monkeypatch.setattr(units_module, "_unit_batch_impl", recording)
        execute_unit(unit)
        monkeypatch.setattr(units_module, "_unit_batch_impl", original)
        return seen[0]

    def test_no_compiler_probe_per_unit(self, monkeypatch):
        import shutil

        units = _small_units()
        execute_unit(units[0])  # constructs the backend
        calls = []
        original = shutil.which
        monkeypatch.setattr(shutil, "which", lambda *args, **kw: calls.append(args) or original(*args, **kw))
        for unit in units[1:]:
            execute_unit(unit)
        assert calls == []

    def test_no_compiler_probed_once_per_process(self, monkeypatch):
        from repro.kernels import cext, registry

        monkeypatch.delenv(registry.ENV_VAR, raising=False)
        monkeypatch.setattr(registry, "_INSTANCES", {})
        monkeypatch.setattr(registry, "_AUTO_UNUSABLE", set())
        probes = []
        monkeypatch.setattr(cext, "compiler", lambda: probes.append(None))
        for unit in _small_units():
            execute_unit(unit)
        assert len(probes) == 1
        assert set(registry._INSTANCES) == {"numpy"}

    def test_environment_and_explicit_threads_are_honoured(self, monkeypatch):
        unit = _small_units()[0]
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert self._team_seen(monkeypatch, unit) == 3
        explicit = plan_units(
            [((0,), unit.config, 0.1, 0.5)], runs=3, base_seed=11,
            options=ExecutionOptions(kernel_threads=2),
        )[0]
        assert self._team_seen(monkeypatch, explicit) == 2

    def test_host_peer_change_between_units_takes_effect(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 4)
        unit = _small_units()[0]
        assert self._team_seen(monkeypatch, unit) == 4
        with share_cores(2):
            assert self._team_seen(monkeypatch, unit) == 2
        assert self._team_seen(monkeypatch, unit) == 4


# ---------------------------------------------------------------------------
# One kernel scope per unit: every routed call runs on the scope's backend.
# ---------------------------------------------------------------------------

#: The backend methods a scope routes: sojourn draws and fills, the
#: received-batch gather and the two batch decoders.
ROUTED = (
    "draw_sojourns_batch", "fill_sojourns", "fill_sojourns_batch",
    "gather_received", "ldgm_decode_batch", "block_count_decode_batch",
)


class ProbeBackend(NumpyBackend):
    """The numpy reference under another name, so its calls can be told apart."""

    name = "probe"


def _backend_classes():
    found, pending = [], [KernelBackend]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@pytest.fixture
def routed_calls(monkeypatch):
    """``(backend name, method)`` of every routed call, with ``probe`` registered."""
    from repro.kernels import registry

    monkeypatch.setitem(registry._FACTORIES, "probe", ProbeBackend)
    monkeypatch.delitem(registry._INSTANCES, "probe", raising=False)
    get_backend()  # load the default backend's class before patching
    calls = []
    for cls in _backend_classes():
        for name in ROUTED:
            if name not in vars(cls):
                continue

            def recording(self, *args, _method=vars(cls)[name], _name=name, **kwargs):
                calls.append((self.name, _name))
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, recording)
    yield calls
    registry._INSTANCES.pop("probe", None)


SCOPE_CONFIGS = [
    SimulationConfig(code="ldgm-staircase", tx_model="tx_model_2", k=60, expansion_ratio=2.5),
    SimulationConfig(code="rse", tx_model="tx_model_4", k=60, expansion_ratio=1.5),
]


def _scope_grids(**options):
    return [
        simulate_grid(
            config, [0.05, 0.3], [0.5], runs=4, seed=5, options=ExecutionOptions(**options)
        )
        for config in SCOPE_CONFIGS
    ]


class TestKernelScope:
    """One :func:`kernel_scope` per unit decides every kernel call under it."""

    def _assert_probe_saw_everything(self, calls):
        assert {backend for backend, _ in calls} == {"probe"}
        methods = {method for _, method in calls}
        assert {"gather_received", "ldgm_decode_batch", "block_count_decode_batch"} <= methods
        assert methods & {"fill_sojourns", "fill_sojourns_batch"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_probe_sees_every_call_of_a_sweep(self, routed_calls, workers):
        expected = _scope_grids(kernel="numpy")
        routed_calls.clear()
        grids = _scope_grids(kernel="probe", workers=workers)
        self._assert_probe_saw_everything(routed_calls)
        for grid, reference in zip(grids, expected):
            assert_grids_equal(grid, reference)

    def test_probe_sees_every_call_of_a_fleet(self, routed_calls, tmp_path):
        expected = _scope_grids(kernel="numpy")
        routed_calls.clear()
        peers = [None, None]

        def run(peer):
            peers[peer] = _scope_grids(
                kernel="probe", store=f"memory:{tmp_path}", fleet=True,
                worker_id=f"w{peer}",
            )

        workers = [threading.Thread(target=run, args=(peer,)) for peer in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        self._assert_probe_saw_everything(routed_calls)
        for grids in peers:
            assert grids is not None, "a peer raised"
            for grid, reference in zip(grids, expected):
                assert_grids_equal(grid, reference)

    def test_reference_simulator_stays_on_numpy(self, routed_calls):
        code, tx_model, channel = _batch_args(k=60)
        with kernel_scope("probe"):
            Simulator(code, tx_model, channel).run(np.random.default_rng(3))
            assert current_backend().name == "probe"
        assert routed_calls and all(backend == "numpy" for backend, _ in routed_calls)

    def test_auto_routes_every_call_to_the_default_backend(self, routed_calls, monkeypatch):
        # Without a C compiler the default is numpy: auto never reaches cext.
        from repro.kernels import registry

        monkeypatch.delenv(registry.ENV_VAR, raising=False)
        _scope_grids()
        assert {backend for backend, _ in routed_calls} == {default_backend_name()}

    def test_unit_resolves_its_backend_at_most_once(self, monkeypatch):
        from repro.kernels import registry

        resolved = []
        original = registry.get_backend

        def counting(*args, **kwargs):
            resolved.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and vars(module).get("get_backend") is original:
                monkeypatch.setattr(module, "get_backend", counting)
        cells = [((0,), config, 0.1, 0.5) for config in SCOPE_CONFIGS]
        units = [
            unit
            for scheme in ("per-run", "unit")
            for unit in plan_units(
                cells, runs=6, base_seed=3, runs_per_unit=3,
                options=ExecutionOptions(seed_scheme=scheme),
            )
        ]
        for unit in units:
            execute_unit(unit)
        assert 0 < len(resolved) <= len(units)

    def test_scopes_nest_and_unwind(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 8)
        with kernel_scope("numpy", 3) as outer:
            assert outer is get_backend("numpy") is current_backend()
            with kernel_scope(threads=2):
                assert (current_backend(), current_thread_count()) == (outer, 2)
            with kernel_scope() as inner, share_cores(2):
                assert inner is outer and current_thread_count() == 3
                with kernel_scope(outer):  # explicit counts are inherited whole
                    assert current_thread_count() == 3
        with kernel_scope("numpy"):
            assert current_thread_count() == 8
            with share_cores(4), kernel_scope("numpy"):
                # An inherited auto team divides the cores anew, as a
                # unit's scope inside a pool must.
                assert current_thread_count() == 2
        assert current_thread_count() == resolve_thread_count() == 8

    def test_no_kernel_parameter_below_the_scope(self):
        import inspect

        from repro.channel.bernoulli import BernoulliChannel, PerfectChannel
        from repro.channel.periodic import PeriodicBurstChannel
        from repro.channel.trace import TraceChannel
        from repro.fastpath import batch, prototypes
        from repro.pipeline import synthesis

        callables = [
            getattr(cls, name)
            for cls in (
                GilbertChannel, BernoulliChannel, PerfectChannel,
                PeriodicBurstChannel, TraceChannel, Simulator,
            )
            for name in ("loss_mask", "loss_mask_batch", "loss_mask_batch_unit",
                         "run", "run_many", "run_batch")
            if hasattr(cls, name)
        ]
        for module in (synthesis, batch, prototypes):
            callables += [
                value for value in vars(module).values()
                if inspect.isfunction(value) or inspect.isclass(value)
                if value.__module__ == module.__name__
            ]
        for function in callables:
            parameters = inspect.signature(function).parameters
            assert not {"kernel", "kernel_threads"} & set(parameters), function

    def test_channel_without_a_kernel_keyword(self):
        # A third-party channel implements the plain protocol and never
        # hears of kernels.
        class DuckChannel:
            uses_rng = True

            def loss_mask(self, count, rng=None):
                return rng.random(count) < 0.2

            def loss_mask_batch(self, count, rngs):
                return np.array([self.loss_mask(count, rng) for rng in rngs]).reshape(
                    len(rngs), count
                )

        code, tx_model, _ = _batch_args(k=60)
        rngs = [np.random.default_rng(seed) for seed in range(4)]
        synthesis = synthesize_runs(code.layout, tx_model, DuckChannel(), rngs)
        assert synthesis.num_runs == 4

    def test_explicit_unavailable_backend_is_rejected(self, monkeypatch, tmp_path):
        from repro.kernels import registry

        def broken():
            raise ImportError("no such toolchain")

        monkeypatch.setitem(registry._FACTORIES, "test-broken", broken)
        store = f"sqlite:{tmp_path / 'x.db'}"
        with pytest.raises(KernelUnavailableError, match="test-broken"):
            ExecutionOptions(kernel="test-broken", store=store)
        if not cext_compiler_available():
            with pytest.raises(KernelUnavailableError, match="cext"):
                ExecutionOptions(kernel="cext", store=store)
        assert list(tmp_path.iterdir()) == []
