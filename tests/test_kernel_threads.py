"""Tests for multi-threaded compiled kernels and the thread executor.

Covers the ``kernel_threads`` spec layer (:mod:`repro.kernels.threads`:
parsing, environment default, ``auto`` resolution against the executor's
worker divisor, the thread-local context), bit-identity of the OpenMP
row-parallel cext kernels at every team size (1 thread == N threads ==
the numpy reference, under both seed schemes), the shared-memory
:class:`~repro.runner.executors.ThreadExecutor` (its grids are cells of
the ``tests/test_execution_options.py`` matrix), the ``kernel_threads``
plumbing through work units / cache keys / CLI, the Gilbert draws (masks
and every generator's post-call state equal to the serial chain for both
backends, at 1 and 2 kernel threads, with distinct and shared
generators), and the graceful
degradation paths when the OpenMP or ``libnpyrandom`` probe compile fails
(poisoned ``CFLAGS``): one warning, fallback kernels, identical results.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.fastpath import simulate_batch_columnar
from repro.fec.registry import make_code
from repro.kernels import (
    THREADS_ENV_VAR,
    available_backends,
    cext_compiler_available,
    cext_openmp_enabled,
    current_thread_count,
    get_backend,
    normalize_thread_spec,
    physical_cores,
    resolve_thread_count,
    thread_count_context,
    worker_divisor_context,
)
from repro.kernels import threads
from repro.kernels.threads import host_peers, host_peers_context, worker_divisor
from repro.store.codec import unit_key
from repro.runner.cli import main as cli_main
from repro.runner.executors import ThreadExecutor, resolve_executor
from repro.runner.options import ExecutionOptions
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.scheduling.registry import make_tx_model
from repro.seeds import get_scheme
from serial_reference import gilbert_loss_mask_serial

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

    def test_auto_divides_cores_by_worker_divisor(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        cores = physical_cores()
        assert resolve_thread_count("auto") == max(1, cores)
        with worker_divisor_context(2):
            assert resolve_thread_count("auto") == max(1, cores // 2)
        with worker_divisor_context(2 * cores):
            # Oversubscribed executor: kernels drop to one thread, never 0.
            assert resolve_thread_count("auto") == 1
        assert resolve_thread_count("auto") == max(1, cores)

    def test_auto_divides_by_host_peers_too(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(threads, "_physical_cores", 8)
        with host_peers_context(2):
            assert resolve_thread_count("auto") == 4
            with worker_divisor_context(2):
                assert resolve_thread_count("auto") == 2
            # Explicit counts are never divided.
            assert resolve_thread_count(3) == 3
        assert host_peers() == 1
        assert resolve_thread_count("auto") == 8

    def test_context_carries_spec_to_call_site(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        with thread_count_context("3"):
            assert current_thread_count() == 3
            with thread_count_context(5):
                assert current_thread_count() == 5
            assert current_thread_count() == 3
        # None is a no-op frame: ambient resolution shows through.
        with thread_count_context(None):
            assert current_thread_count() == resolve_thread_count()

    def test_physical_cores_positive(self):
        assert physical_cores() >= 1

    @pytest.mark.parametrize("values", [(2, 2), (4, 2), (2, 1)])
    def test_overlapping_scopes_close_in_any_order(self, values):
        # Two thread pools or fleet peers in one process: whichever scope
        # closes first, the newest open one's value holds, and the factor
        # ends where it began.
        for context, current in (
            (worker_divisor_context, worker_divisor),
            (host_peers_context, host_peers),
        ):
            first, second = context(values[0]), context(values[1])
            first.__enter__()
            second.__enter__()
            first.__exit__(None, None, None)
            assert current() == values[1]
            second.__exit__(None, None, None)
            assert current() == 1

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
        reference = simulate_batch_columnar(
            code, tx_model, channel, _streams(scheme, 40), kernel="numpy"
        )
        one = simulate_batch_columnar(
            code, tx_model, channel, _streams(scheme, 40),
            kernel="cext", kernel_threads=1,
        )
        many = simulate_batch_columnar(
            code, tx_model, channel, _streams(scheme, 40),
            kernel="cext", kernel_threads=threads,
        )
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
            with thread_count_context(team):
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
            assert (
                build().run_many(
                    6, rng=9, seed_scheme=scheme,
                    kernel="cext", kernel_threads=threads,
                )
                == reference
            )


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


class TestThreadExecutor:
    def test_resolve_executor_thread(self):
        executor = resolve_executor("thread", 3)
        assert isinstance(executor, ThreadExecutor)
        assert executor.workers == 3

    def test_resolve_executor_unknown_lists_thread(self):
        with pytest.raises(ValueError, match="thread"):
            resolve_executor("bogus", 2)

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
        seen = []

        class _Recording(ThreadExecutor):
            def _execute_one(self, unit, front_ends):
                with thread_count_context(unit.kernel_threads):
                    seen.append(current_thread_count())
                return super()._execute_one(unit, front_ends)

        with host_peers_context(2):
            _Recording(2).run(_small_units(), lambda unit, result: None)
            assert host_peers() == 2
        assert seen and set(seen) == {1}
        assert worker_divisor() == 1

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
                "--no-cache", "--quiet",
                "--executor", "thread", "--workers", "2",
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
                masks = channel.loss_mask_batch(count, fast, kernel=kernel)
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
        with thread_count_context(threads):
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
            results[call] = channel.loss_mask_batch(count, [shared] * runs, kernel=backend)

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
        reference = simulate_batch_columnar(
            code, tx_model, channel, _streams("per-run", 12), kernel="numpy"
        )
        with thread_count_context(4):
            assert backend._team_size(12) == 1
        degraded = simulate_batch_columnar(
            code, tx_model, channel, _streams("per-run", 12),
            kernel=backend, kernel_threads=4,
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
            with thread_count_context(2):
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
            with thread_count_context(2):
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
            expected = LDGMPrototype(code, kernel="numpy").decode_batch(received)
            prototype = LDGMPrototype(code, kernel="cext")
            barrier = threading.Barrier(2)

            def decode(_):
                barrier.wait()
                with thread_count_context(2):
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
        expected = LDGMPrototype(code, kernel="numpy").decode_batch(received)
        build = type(code.matrix).column_adjacency
        monkeypatch.setattr(
            code.matrix,
            "column_adjacency",
            lambda: tuple(array.copy() for array in build(code.matrix)),
        )
        decoded, necessary = LDGMPrototype(code, kernel="cext").decode_batch(received)
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
        with host_peers_context(1):
            assert self._team_seen(monkeypatch, unit) == 4
            threads.set_host_peers(2)
            assert self._team_seen(monkeypatch, unit) == 2
        assert host_peers() == 1
