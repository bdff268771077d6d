"""Per-run stream blocks against numpy as the oracle.

Under the ``"per-run"`` seed scheme a unit's streams are one lazy
:class:`~repro.seeds.RunStreams` block.  On the ``cext`` kernel the block
is seeded in C (a port of numpy's ``SeedSequence`` and ``PCG64`` seeding)
and the tx-model shuffles and Gilbert draws run on its state rows; every
other consumer indexes it and gets each run's historical ``Generator``.
These tests pin the two forms to each other and to numpy: the seeded
states, the schedules and masks, the stream states left behind, the
thread-count invariance, the fallback when the C path is unavailable, the
rule that a unit whose stages draw nothing seeds nothing, and the eager
rejection of negative coordinates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.fec.packet import multi_block_layout, single_block_layout
from repro.kernels import available_backends, get_backend, kernel_scope
from repro.pipeline import synthesize_runs
from repro.runner.cli import main as cli_main
from repro.runner.engine import grid_cells
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, plan_units
from repro.scheduling.registry import make_tx_model
from repro.seeds import RunStreams, get_scheme
from repro.seeds import schemes as schemes_module
from repro.seeds.schemes import entropy_words, pcg64_state


def _cext():
    if "cext" not in available_backends():
        pytest.skip("no C compiler for the cext backend")
    return get_backend("cext")


def _block_backend():
    backend = _cext()
    if not backend.npyrandom:
        pytest.skip("cext built without libnpyrandom: no per-run stream kernels")
    # Where libnpyrandom links, the C port must pass its load-time self-check.
    assert backend.stream_blocks
    return backend


def _reference(base: int, path: tuple, run: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base, *path, run]))


# ---------------------------------------------------------------------------
# Seeding: C states equal PCG64(SeedSequence([base, *path, run])).state.
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_states_match_numpy_on_random_coordinates(self):
        backend = _block_backend()
        draw = np.random.default_rng(20050707)
        checked = 0
        # 2,500 random (base, path) prefixes x 40 runs = 10**5 coordinates,
        # with bases and path entries of 1 to 3 entropy words, paths of
        # length 0 to 3, and run ranges starting at 0 or past 2**32.
        for index in range(2500):
            base = int(draw.integers(0, 2**63)) >> int(draw.integers(0, 63))
            if index % 4 == 0:
                base = base * 2**32 + 7  # two or three entropy words
            path = tuple(
                int(x) >> int(draw.integers(0, 40))
                for x in draw.integers(0, 2**40, size=int(draw.integers(0, 4)))
            )
            start = [0, int(draw.integers(0, 2**20)), 2**32 - 20][index % 3]
            if index % 5 == 0:
                start = int(draw.integers(2**32, 2**40))
            states = backend.seed_streams(entropy_words((base, *path)), start, 40)
            for offset, row in enumerate(states):
                expected = np.random.PCG64(
                    np.random.SeedSequence([base, *path, start + offset])
                ).state
                assert pcg64_state(row) == expected, (base, path, start + offset)
                checked += 1
        assert checked >= 10**5

    @pytest.mark.parametrize(
        "base, path, run",
        [
            (0, (), 0),
            (2**32, (), 0),
            (2**64 + 3, (0, 0), 2**32),
            (5, (2**33, 1, 2), 2**40 + 1),
            (20050707, (3, 4), 299),
        ],
    )
    def test_edge_coordinates(self, base, path, run):
        backend = _block_backend()
        states = backend.seed_streams(entropy_words((base, *path)), run, 1)
        expected = np.random.PCG64(np.random.SeedSequence([base, *path, run])).state
        assert pcg64_state(states[0]) == expected

    def test_entropy_words_match_seed_sequence(self):
        # SeedSequence hashes the same pool from the ints and from their
        # 32-bit words (an array of uint32 words is taken as-is).
        for values in ([0], [2**32], [2**64 + 5, 0, 7], [1, 2**33]):
            pool = np.random.SeedSequence(entropy_words(values)).pool
            assert np.array_equal(pool, np.random.SeedSequence(values).pool), values


# ---------------------------------------------------------------------------
# Schedules and masks: block path == generator path.
# ---------------------------------------------------------------------------

#: Degenerate chains, IID losses, saturated geometrics (tiny p or q).
CHANNELS = [
    (0.0, 0.5),
    (0.3, 0.0),
    (1.0, 1.0),
    (1.0, 0.2),
    (0.05, 1.0),
    (1e-300, 0.5),
    (0.4, 1e-12),
    (0.05, 0.5),
    (0.6, 0.7),
]
TX_MODELS = ["tx_model_1", "tx_model_2", "tx_model_3", "tx_model_4", "tx_model_5"]
LAYOUTS = {
    "single": single_block_layout(60, 150),
    "blocks": multi_block_layout([20, 20, 20], [50, 50, 50]),
}


def _synthesize(layout, tx_model, channel, rngs, backend, nsent=None):
    with kernel_scope(backend):
        return synthesize_runs(layout, tx_model, channel, rngs, nsent=nsent)


def _same_synthesis(left, right) -> bool:
    return (
        np.array_equal(left.batch.flat, right.batch.flat)
        and np.array_equal(left.batch.offsets, right.batch.offsets)
        and np.array_equal(left.batch.lengths, right.batch.lengths)
        and np.array_equal(left.n_sent, right.n_sent)
    )


class TestBlockMatchesGenerators:
    @pytest.mark.parametrize("tx_name", TX_MODELS)
    @pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
    def test_schedules_masks_and_final_states(self, tx_name, layout_name):
        backend = _cext()
        layout = LAYOUTS[layout_name]
        tx_model = make_tx_model(tx_name)
        base, path, start, stop = 41, (2, 5), 3, 23
        for p, q in CHANNELS:
            channel = GilbertChannel(p, q)
            for nsent in (None, 17):
                streams = RunStreams(base, path, start, stop)
                block = _synthesize(layout, tx_model, channel, streams, backend, nsent)
                generators = [_reference(base, path, run) for run in range(start, stop)]
                expected = _synthesize(
                    layout, tx_model, channel, generators, get_backend("numpy"), nsent
                )
                assert _same_synthesis(block, expected), (tx_name, p, q, nsent)
                drawing = tx_model.uses_rng or channel.uses_rng
                if backend.stream_blocks and drawing:
                    # The compiled path really ran: no generator was built.
                    assert streams.kernel is backend
                # Every stream is left where the generator path leaves it.
                for rng, reference in zip(streams, generators):
                    assert rng.bit_generator.state == reference.bit_generator.state

    def test_materialised_generator_continues_the_stream(self):
        backend = _block_backend()
        layout = single_block_layout(40, 101)
        tx_model = make_tx_model("tx_model_2")
        streams = RunStreams(9, (1,), 0, 16)
        # An odd count of 32-bit interval draws leaves a buffered word in
        # some rows: has_uint32 must carry over into the generator.
        _synthesize(layout, tx_model, GilbertChannel(0.0, 0.5), streams, backend)
        buffered = 0
        for run, rng in enumerate(streams):
            reference = _reference(9, (1,), run)
            reference.shuffle(layout.parity_indices.copy())
            assert rng.bit_generator.state == reference.bit_generator.state
            buffered += rng.bit_generator.state["has_uint32"]
            assert np.array_equal(
                rng.integers(0, 2**40, size=5), reference.integers(0, 2**40, size=5)
            )
            assert rng.random() == reference.random()
            assert np.array_equal(rng.geometric(0.3, size=7), reference.geometric(0.3, size=7))
        assert buffered > 0
        # The generators own the streams now; the block is unbound.
        assert streams.kernel is None
        assert not streams.bind(backend)

    @pytest.mark.parametrize("tx_name", ["tx_model_2", "tx_model_4"])
    def test_one_and_two_kernel_threads_identical(self, tx_name):
        backend = _cext()
        layout = single_block_layout(200, 500)
        channel = GilbertChannel(0.05, 0.3)
        results = []
        for threads in (1, 2):
            streams = RunStreams(77, (4, 1), 0, 64)
            with kernel_scope(threads=threads):
                synthesis = _synthesize(layout, make_tx_model(tx_name), channel, streams, backend)
            results.append((synthesis, [rng.bit_generator.state for rng in streams]))
        assert _same_synthesis(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_models_without_block_draws_use_generators(self):
        # tx_model_6's subset choice has no compiled form: the block is
        # materialised and today's generator code runs unchanged.
        backend = _cext()
        layout = single_block_layout(60, 150)
        tx_model = make_tx_model("tx_model_6")
        channel = GilbertChannel(0.1, 0.5)
        streams = RunStreams(3, (0,), 0, 10)
        block = _synthesize(layout, tx_model, channel, streams, backend)
        generators = [_reference(3, (0,), run) for run in range(10)]
        expected = _synthesize(layout, tx_model, channel, generators, backend)
        assert _same_synthesis(block, expected)
        assert streams.kernel is None

    def test_failed_self_check_falls_back_with_one_warning(self, monkeypatch, caplog):
        import repro.kernels.cext as cext

        _block_backend()  # the self-check runs only where libnpyrandom links
        monkeypatch.setattr(cext, "_warned", set())
        monkeypatch.setattr(cext, "_streams_self_check", lambda lib: "seeded states differ")
        with caplog.at_level("WARNING", logger="repro.kernels"):
            degraded = cext.CExtBackend()
            cext.CExtBackend()
        warnings = [r for r in caplog.records if "stream self-check failed" in r.getMessage()]
        assert len(warnings) == 1
        assert degraded.stream_blocks is False
        layout = single_block_layout(60, 150)
        tx_model, channel = make_tx_model("tx_model_3"), GilbertChannel(0.2, 0.4)
        streams = RunStreams(5, (1, 1), 0, 12)
        fallback = _synthesize(layout, tx_model, channel, streams, degraded)
        generators = [_reference(5, (1, 1), run) for run in range(12)]
        assert streams.kernel is None
        expected = _synthesize(layout, tx_model, channel, generators, "numpy")
        assert _same_synthesis(fallback, expected)


# ---------------------------------------------------------------------------
# Degenerate cells seed nothing.
# ---------------------------------------------------------------------------


class _SeedSpy:
    """Counts every per-run stream seeding, in C and in Python."""

    def __init__(self, monkeypatch):
        self.c_runs = 0
        self.generators = 0
        original = schemes_module.per_run_generator

        def python_seed(*args):
            self.generators += 1
            return original(*args)

        monkeypatch.setattr(schemes_module, "per_run_generator", python_seed)
        if "cext" in available_backends():
            from repro.kernels.cext import CExtBackend

            seed_streams = CExtBackend.seed_streams

            def c_seed(backend, prefix, run_start, runs):
                self.c_runs += runs
                return seed_streams(backend, prefix, run_start, runs)

            monkeypatch.setattr(CExtBackend, "seed_streams", c_seed)

    @property
    def seeded(self) -> int:
        return self.c_runs + self.generators


def _units(tx_model: str, p_values, q_values, runs: int, kernel: str):
    config = SimulationConfig(code="rse", tx_model=tx_model, k=40, expansion_ratio=1.5)
    _p, _q, cells = grid_cells(config, p_values, q_values)
    return plan_units(
        cells, runs=runs, base_seed=11,
        options=ExecutionOptions(kernel=kernel, seed_scheme="per-run"),
    )


class TestDegenerateCellsSeedNothing:
    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("tx_name", ["tx_model_1", "tx_model_5"])
    def test_no_drawing_stage_no_seeding(self, monkeypatch, kernel, tx_name):
        spy = _SeedSpy(monkeypatch)
        units = _units(tx_name, [0.0, 0.3], [0.0, 0.5], runs=30, kernel=kernel)
        degenerate = [unit for unit in units if unit.p == 0.0 or unit.q == 0.0]
        assert len(degenerate) == 3
        for unit in degenerate:
            execute_unit(unit)
        assert spy.seeded == 0

    @pytest.mark.parametrize("kernel", available_backends())
    def test_drawing_cell_seeds_every_run_once(self, monkeypatch, kernel):
        spy = _SeedSpy(monkeypatch)
        (unit,) = _units("tx_model_5", [0.3], [0.5], runs=30, kernel=kernel)
        execute_unit(unit)
        assert spy.seeded == 30
        if get_backend(kernel).stream_blocks:
            assert spy.generators == 0  # all 30 seeded in C


# ---------------------------------------------------------------------------
# Coordinates are validated eagerly.
# ---------------------------------------------------------------------------


class TestCoordinateValidation:
    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    @pytest.mark.parametrize(
        "coordinates, named",
        [
            ((-5, (0,), 0, 4), "base_seed"),
            ((5, (0, -1), 0, 4), r"seed_path\[1\]"),
            ((5, (0,), -2, 4), "run_start"),
            ((5, (0,), 4, 2), "run_stop"),
        ],
    )
    def test_negative_coordinates_rejected_up_front(self, scheme, coordinates, named):
        with pytest.raises(ValueError, match=named):
            get_scheme(scheme).unit_streams(*coordinates)

    def test_run_streams_validate_coordinates(self):
        with pytest.raises(ValueError, match="base_seed"):
            RunStreams(-1, (), 0, 3)
        with pytest.raises(ValueError, match="non-negative"):
            entropy_words([3, -2])

    def test_cli_rejects_negative_seed_when_parsing(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "fig12", "--scale", "tiny", "--seed", "-5", "--dry-run"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "--seed" in error and "non-negative" in error
