"""Tests for multi-threaded compiled kernels and the thread executor.

Covers the ``kernel_threads`` spec layer (:mod:`repro.kernels.threads`:
parsing, environment default, ``auto`` resolution against the executor's
worker divisor, the thread-local context), bit-identity of the OpenMP
row-parallel cext kernels at every team size (1 thread == N threads ==
the numpy reference, under both seed schemes), the shared-memory
:class:`~repro.runner.executors.ThreadExecutor` against the serial and
process executors, the ``kernel_threads`` plumbing through work units /
cache keys / CLI, and the graceful degradation path when the OpenMP
probe compile fails (poisoned ``CFLAGS``): one warning, serial kernels,
identical results.
"""

from __future__ import annotations

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
from repro.store.codec import unit_key
from repro.runner.cli import main as cli_main
from repro.runner.executors import ProcessExecutor, ThreadExecutor, resolve_executor
from repro.runner.options import ExecutionOptions
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.scheduling.registry import make_tx_model
from repro.seeds import get_scheme

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
            units, lambda result: collected.__setitem__(result.seed_path, result)
        )
        assert collected == serial

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_grid_bit_identity_thread_vs_serial(self, scheme):
        config = SimulationConfig(
            code="ldgm-staircase", tx_model="tx_model_2", k=80, expansion_ratio=2.5
        )
        p, q = [0.02, 0.08], [0.5]
        base = simulate_grid(
            config, p, q, runs=5, seed=4,
            options=ExecutionOptions(seed_scheme=scheme),
        )
        threaded = simulate_grid(
            config, p, q, runs=5, seed=4,
            options=ExecutionOptions(
                seed_scheme=scheme, executor="thread", workers=2, kernel_threads=2,
            ),
        )
        assert np.array_equal(base.mean_inefficiency, threaded.mean_inefficiency)
        assert np.array_equal(base.failure_counts, threaded.failure_counts)

    def test_grid_bit_identity_thread_vs_process(self):
        config = SimulationConfig(
            code="rse", tx_model="tx_model_2", k=40, expansion_ratio=2.0
        )
        p, q = [0.05], [0.5]
        threaded = simulate_grid(
            config, p, q, runs=4, seed=6,
            options=ExecutionOptions(executor="thread", workers=2),
        )
        pooled = simulate_grid(
            config, p, q, runs=4, seed=6,
            options=ExecutionOptions(executor="process", workers=2),
        )
        assert np.array_equal(threaded.mean_inefficiency, pooled.mean_inefficiency)


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
# Graceful degradation: poisoned OpenMP probe.
# ---------------------------------------------------------------------------


@needs_cext
class TestOpenMPDegradation:
    def test_poisoned_probe_degrades_to_serial(self, tmp_path, monkeypatch, caplog):
        import repro.kernels.cext as cext

        monkeypatch.setenv("CFLAGS", "-DREPRO_POISON_OPENMP")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(cext, "_openmp_warned", False)

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
