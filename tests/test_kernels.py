"""Tests for the pluggable kernel-backend subsystem (:mod:`repro.kernels`).

Covers the registry and its resolution rules, the flattened
:class:`ReceivedBatch` container, cross-backend bit-identity of the decode
and Gilbert hot loops (numpy reference vs the compiled ``cext`` kernels vs
the serial incremental decoder), the chain-aware staircase cascade on
handcrafted bidiagonal matrices, and the ``kernel=`` threading through the
simulator, the runner work units and the CLI.  ``cext`` is exercised
whenever this machine can build it and skip-marked otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.bernoulli import BernoulliChannel, PerfectChannel
from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.fastpath import (
    BlockCountPrototype,
    IncrementalPrototype,
    LDGMPrototype,
    compile_prototype,
    simulate_batch,
)
from repro.fec.ldgm.matrix import LDGMVariant, ParityCheckMatrix
from repro.fec.ldgm.symbolic import LDGMSymbolicDecoder
from repro.fec.registry import make_code
from repro.kernels import (
    AUTO_ORDER,
    KernelBackend,
    KernelUnavailableError,
    ReceivedBatch,
    available_backends,
    cext_compiler_available,
    default_backend_name,
    get_backend,
    register_backend,
    thread_count_context,
)
from repro.kernels.numpy_backend import NumpyBackend, _dedup
from repro.store.codec import unit_key
from repro.runner.cli import main as cli_main
from repro.runner.options import ExecutionOptions
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.scheduling.registry import make_tx_model
from serial_reference import gilbert_loss_mask_serial
from unit_reference import reference_unit_result

#: Every backend this machine can run, in registry order.
KERNELS = list(available_backends())

CODES = [
    ("ldgm-staircase", 2.5),
    ("ldgm-triangle", 2.5),
    ("ldgm", 1.5),
    ("rse", 2.5),
    ("repetition", 2.0),
]

CHANNELS = [
    GilbertChannel(0.1, 0.4),
    GilbertChannel(0.9, 0.05),
    BernoulliChannel(0.2),
    PerfectChannel(),
]


def seeded_rngs(salt, runs):
    return [
        np.random.default_rng(np.random.SeedSequence([733, salt, run]))
        for run in range(runs)
    ]


def legacy_runs(code, tx_model, channel, rngs, nsent=None):
    return [
        Simulator(code, tx_model, channel).run(rng, nsent=nsent) for rng in rngs
    ]


# ---------------------------------------------------------------------------
# Registry and selection.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in KERNELS
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert get_backend("numpy") is backend  # cached per name

    def test_backend_instance_passthrough(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-backend")

    def test_auto_resolves_to_default(self):
        assert get_backend("auto").name == default_backend_name()
        assert default_backend_name() in AUTO_ORDER

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert get_backend(None).name == "numpy"
        monkeypatch.setenv("REPRO_KERNEL", "")
        assert get_backend(None).name == default_backend_name()

    def test_auto_order_is_cext_then_numpy(self):
        assert AUTO_ORDER == ("cext", "numpy")

    @pytest.mark.parametrize("name", ["numba", "python"])
    def test_removed_backends_are_unknown(self, name):
        assert name not in available_backends()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend(name)

    def test_unconstructible_backend_raises_actionable_error(self):
        def broken():
            raise ImportError("no such toolchain")

        try:
            register_backend("test-broken", broken)
            with pytest.raises(KernelUnavailableError, match="test-broken"):
                get_backend("test-broken")
        finally:
            from repro.kernels import registry

            registry._FACTORIES.pop("test-broken", None)

    @pytest.mark.skipif(
        cext_compiler_available(), reason="a C compiler is available here"
    )
    def test_cext_unavailable_is_not_listed(self):
        assert "cext" not in available_backends()

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_register_backend_replace_and_dispatch(self):
        class Probe(NumpyBackend):
            name = "test-probe"

        try:
            register_backend("test-probe", Probe)
            assert isinstance(get_backend("test-probe"), Probe)
        finally:
            from repro.kernels import registry

            registry._FACTORIES.pop("test-probe", None)
            registry._INSTANCES.pop("test-probe", None)


# ---------------------------------------------------------------------------
# ReceivedBatch.
# ---------------------------------------------------------------------------


class TestReceivedBatch:
    def test_round_trip_and_slice(self):
        sequences = [
            np.array([3, 1, 4], dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.array([5, 9], dtype=np.int64),
        ]
        batch = ReceivedBatch.from_sequences(sequences)
        assert batch.num_runs == 3
        for expected, actual in zip(sequences, batch.sequences()):
            assert np.array_equal(expected, actual)
        tail = batch.slice(1, 3)
        assert tail.num_runs == 2
        assert np.array_equal(tail.run(1), sequences[2])
        assert batch.slice(0, 3) is batch  # full slice: no copy
        assert ReceivedBatch.coerce(batch) is batch

    def test_empty_batch(self):
        batch = ReceivedBatch.from_sequences([])
        assert batch.num_runs == 0
        assert batch.flat.size == 0


# ---------------------------------------------------------------------------
# Cross-backend bit-identity.
# ---------------------------------------------------------------------------


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("code_name,ratio", CODES)
    def test_codes_by_backend(self, kernel, code_name, ratio):
        code = make_code(code_name, k=60, expansion_ratio=ratio, seed=5)
        tx_model = make_tx_model("tx_model_2")
        for salt, channel in enumerate(CHANNELS):
            expected = legacy_runs(code, tx_model, channel, seeded_rngs(salt, 4))
            actual = simulate_batch(
                code, tx_model, channel, seeded_rngs(salt, 4), kernel=kernel
            )
            assert actual == expected, f"{kernel} diverged on {code_name}"

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("tx_name", ["tx_model_1", "tx_model_4", "tx_model_6"])
    def test_tx_models_by_backend(self, kernel, tx_name):
        code = make_code("ldgm-staircase", k=80, expansion_ratio=2.5, seed=2)
        tx_model = make_tx_model(tx_name)
        channel = GilbertChannel(0.15, 0.35)
        expected = legacy_runs(code, tx_model, channel, seeded_rngs(11, 5))
        actual = simulate_batch(
            code, tx_model, channel, seeded_rngs(11, 5), kernel=kernel
        )
        assert actual == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_nsent_truncation_by_backend(self, kernel):
        code = make_code("ldgm-triangle", k=70, expansion_ratio=2.5, seed=9)
        tx_model = make_tx_model("tx_model_2")
        channel = GilbertChannel(0.1, 0.4)
        for nsent in (1, 60, 5_000):
            expected = legacy_runs(
                code, tx_model, channel, seeded_rngs(nsent, 3), nsent=nsent
            )
            actual = simulate_batch(
                code, tx_model, channel, seeded_rngs(nsent, 3), nsent=nsent,
                kernel=kernel,
            )
            assert actual == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicate_packets_by_backend(self, kernel):
        class DuplicatingModel:
            name = "dup"

            def schedule(self, layout, rng=None):
                base = np.arange(layout.n, dtype=np.int64)
                rng.shuffle(base)
                return np.concatenate([base[:7], base])

            def validate_schedule(self, layout, schedule):
                return np.asarray(schedule, dtype=np.int64)

        code = make_code("ldgm-staircase", k=40, expansion_ratio=2.5, seed=4)
        channel = GilbertChannel(0.2, 0.3)
        expected = legacy_runs(code, DuplicatingModel(), channel, seeded_rngs(2, 4))
        actual = simulate_batch(
            code, DuplicatingModel(), channel, seeded_rngs(2, 4), kernel=kernel
        )
        assert actual == expected

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        code_index=st.integers(min_value=0, max_value=len(CODES) - 1),
        k=st.integers(min_value=2, max_value=50),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_backends_agree(self, code_index, k, p, q, seed):
        code_name, ratio = CODES[code_index]
        try:
            code = make_code(code_name, k=k, expansion_ratio=ratio, seed=seed)
        except ValueError:
            return  # degenerate dimensions
        tx_model = make_tx_model("tx_model_2")
        channel = GilbertChannel(p, q)
        rngs = lambda: [
            np.random.default_rng(np.random.SeedSequence([seed, run]))
            for run in range(3)
        ]
        expected = legacy_runs(code, tx_model, channel, rngs())
        for kernel in KERNELS:
            actual = simulate_batch(code, tx_model, channel, rngs(), kernel=kernel)
            assert actual == expected, f"{kernel} diverged"


# ---------------------------------------------------------------------------
# Block-count decode (RSE blocks, repetition) on every backend.
# ---------------------------------------------------------------------------


def count_rule_reference(prototype, sequences):
    """The counting rule run by run in plain Python (the test oracle for
    prototypes no incremental decoder can express)."""
    decoded, n_necessary = [], []
    for sequence in sequences:
        missing = prototype.needed.copy()
        open_groups = int((missing > 0).sum())
        seen, position = set(), 0
        for count, index in enumerate(sequence, start=1):
            if open_groups == 0:
                break
            key = int(index) % prototype.key_modulus
            if key in seen:
                continue
            seen.add(key)
            group = prototype.group_of_key[key]
            if missing[group] > 0:
                missing[group] -= 1
                open_groups -= missing[group] == 0
                position = count
        decoded.append(open_groups == 0)
        n_necessary.append(position if open_groups == 0 else -1)
    return np.array(decoded, dtype=bool), np.array(n_necessary, dtype=np.int64)


def carousel_sequences(n, runs, seed):
    """Received sequences with repeats: partial carousel rounds, plain
    duplicates, truncated and zero-length runs."""
    rng = np.random.default_rng(seed)
    sequences = [np.zeros(0, dtype=np.int64)]
    for run in range(runs):
        rounds = [rng.permutation(n) for _ in range(1 + run % 3)]
        sequence = np.concatenate(rounds)
        keep = rng.random(sequence.size) >= 0.25 + 0.1 * (run % 4)
        sequence = sequence[keep]
        if run % 5 == 1:
            sequence = np.repeat(sequence, 2)
        if run % 5 == 3:
            sequence = sequence[: n // 3]
        sequences.append(sequence.astype(np.int64))
    sequences.append(np.zeros(0, dtype=np.int64))
    return sequences


class TestBlockCountKernel:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "code_name,k,n", [("rse", 60, 150), ("rse", 300, 700), ("repetition", 40, 80),
                          ("repetition", 30, 150)],
    )
    def test_matches_incremental_decoder(self, code_name, k, n, kernel, threads):
        code = make_code(code_name, k=k, n=n)
        sequences = carousel_sequences(code.n, 24, seed=k + n)
        expected = IncrementalPrototype(code).decode_batch(sequences)
        with thread_count_context(threads):
            actual = compile_prototype(code, kernel=kernel).decode_batch(sequences)
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])
        assert expected[0].any() and not expected[0].all()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_batch(self, kernel, threads):
        prototype = compile_prototype(make_code("rse", k=20, n=50), kernel=kernel)
        with thread_count_context(threads):
            decoded, n_necessary = prototype.decode_batch(ReceivedBatch.from_sequences([]))
        assert decoded.shape == n_necessary.shape == (0,)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "needed",
        [
            [3, 4, 2],  # ordinary groups
            [3, 0, 2],  # a group that is reached before any arrival
            [3, 6, 2],  # group 1 has five keys: never decodes
            [0, 0, 0],  # every run decodes at position 0
        ],
    )
    def test_handcrafted_groups(self, needed, kernel, threads):
        code = make_code("rse", k=6, n=15)
        group_of_key = np.array([0, 1, 2] * 5, dtype=np.int64)
        prototype = BlockCountPrototype(
            code, group_of_key, np.array(needed, dtype=np.int64), kernel=kernel
        )
        sequences = carousel_sequences(code.n, 30, seed=sum(needed))
        with thread_count_context(threads):
            actual = prototype.decode_batch(sequences)
        expected = count_rule_reference(prototype, sequences)
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])
        if needed[1] == 6:
            assert not actual[0].any()
            assert (actual[1] == -1).all()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_group_ids_out_of_range_rejected(self, kernel):
        code = make_code("rse", k=6, n=15)
        with pytest.raises(ValueError, match="group ids outside"):
            BlockCountPrototype(
                code, np.full(15, 3, dtype=np.int64), np.ones(3, dtype=np.int64),
                kernel=kernel,
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("code_name", ["rse", "repetition"])
    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_out_of_range_index_raises(self, code_name, bad, kernel):
        code = make_code(code_name, k=20, n=60)
        bad_index = code.n if bad == "n" else bad
        sequences = [np.arange(code.n, dtype=np.int64) for _ in range(3)]
        sequences[1] = sequences[1].copy()
        sequences[1][5] = bad_index
        prototype = compile_prototype(code, kernel=kernel)
        with pytest.raises(ValueError, match="outside"):
            prototype.decode_batch(sequences)
        with pytest.raises(ValueError, match="outside"):
            prototype.kernel.block_count_decode_batch(
                prototype, ReceivedBatch.from_sequences(sequences)
            )


# ---------------------------------------------------------------------------
# Chain-aware staircase cascade (handcrafted bidiagonal matrices).
# ---------------------------------------------------------------------------


class _MatrixCode:
    """Minimal code shim binding a handcrafted matrix to the prototype."""

    def __init__(self, matrix: ParityCheckMatrix):
        self.matrix = matrix
        self.k = matrix.k
        self.n = matrix.n

    def new_symbolic_decoder(self):
        return LDGMSymbolicDecoder(self.matrix)


def _staircase_matrix() -> ParityCheckMatrix:
    """k=3, 5 checks: row 0 anchors the chain, rows 1-3 are parity-only.

    Receiving sources 0 and 1 reveals parity 3 through row 0, whose
    downstream rows 1-3 are chain-eligible from the start -- a pure
    staircase reveal chain of length 3.
    """
    empty = np.array([], dtype=np.int64)
    return ParityCheckMatrix(
        k=3,
        n=8,
        variant=LDGMVariant.STAIRCASE,
        source_cols=[
            np.array([0, 1], dtype=np.int64),
            empty,
            empty,
            empty,
            np.array([2], dtype=np.int64),
        ],
        parity_cols=[
            np.array([3], dtype=np.int64),
            np.array([3, 4], dtype=np.int64),
            np.array([4, 5], dtype=np.int64),
            np.array([5, 6], dtype=np.int64),
            np.array([6, 7], dtype=np.int64),
        ],
    )


def _triangle_matrix() -> ParityCheckMatrix:
    """The staircase above plus one below-diagonal extra (parity 4 in row 4)."""
    matrix = _staircase_matrix()
    matrix.parity_cols[4] = np.array([4, 6, 7], dtype=np.int64)
    return ParityCheckMatrix(
        k=matrix.k,
        n=matrix.n,
        variant=LDGMVariant.TRIANGLE,
        source_cols=matrix.source_cols,
        parity_cols=matrix.parity_cols,
    )


class TestChainAwareCascade:
    def test_detection_on_handcrafted_staircase(self):
        prototype = LDGMPrototype(_MatrixCode(_staircase_matrix()), kernel="numpy")
        assert prototype.chain_aware
        # Row 2 holds parities {4, 5} = nodes {3+1, 3+2}: expected word is
        # count 2 with id sum 9; row 0 can never be chain-eligible.
        assert prototype.chain_expected[2] == (2 << 40) + 9
        assert prototype.chain_expected[0] == -1
        assert prototype.chain_expected[-1] == -1  # sentinel slot
        # Pure staircase: no extra below-diagonal parity edges.
        assert prototype.parity_extra_rows.size == 0

    def test_detection_on_handcrafted_triangle(self):
        prototype = LDGMPrototype(_MatrixCode(_triangle_matrix()), kernel="numpy")
        assert prototype.chain_aware
        # Parity index 1 (node 4) additionally sits in check row 4.
        start = prototype.parity_extra_indptr[1]
        stop = prototype.parity_extra_indptr[2]
        assert list(prototype.parity_extra_rows[start:stop]) == [4]

    def test_no_detection_on_plain_ldgm(self):
        code = make_code("ldgm", k=30, expansion_ratio=1.5, seed=0)
        prototype = compile_prototype(code, kernel="numpy")
        assert isinstance(prototype, LDGMPrototype)
        assert not prototype.chain_aware

    def test_no_detection_on_tiny_codes(self):
        code = make_code("ldgm-staircase", k=4, n=5, seed=0)
        prototype = compile_prototype(code, kernel="numpy")
        assert not prototype.chain_aware  # a single check row has no chain

    @pytest.mark.parametrize("build", [_staircase_matrix, _triangle_matrix])
    def test_chain_resolves_in_one_scan(self, build):
        code = _MatrixCode(build())
        prototype = LDGMPrototype(code, kernel="numpy")
        backend = NumpyBackend()
        # Sources 0 and 1 reveal parity 3; the whole downstream chain must
        # resolve in the same cascade round (one chain scan), then packet 7
        # releases source 2 and completes decoding at position 3.
        received = [np.array([0, 1, 7], dtype=np.int64)]
        decoded, n_necessary = backend.ldgm_decode_batch(
            prototype, ReceivedBatch.from_sequences(received)
        )
        assert decoded.tolist() == [True]
        assert n_necessary.tolist() == [3]
        assert backend.last_chain_scans == 1
        # The reference: one packet at a time through the symbolic decoder.
        decoder = code.new_symbolic_decoder()
        positions = [decoder.add_packet(i) for i in received[0]]
        assert positions == [False, False, True]

    def test_initial_unit_row_is_not_spontaneously_peeled(self):
        # A degenerate matrix may carry a check row whose INITIAL unknown
        # count is already 1 (a parity-only row with no sources, the
        # documented degenerate outcome of _fill_empty_rows).  The
        # incremental decoder only examines rows on decrement, so it never
        # peels from such a row -- and neither may the numpy cascade's
        # bulk-round full-state trigger scan.  Regression test: the scan
        # once revealed row 0's parity here, decoding a run the reference
        # leaves undecoded.
        matrix = ParityCheckMatrix(
            k=8,
            n=10,
            variant=LDGMVariant.STAIRCASE,
            source_cols=[
                np.array([], dtype=np.int64),
                np.arange(8, dtype=np.int64),
            ],
            parity_cols=[
                np.array([8], dtype=np.int64),
                np.array([8, 9], dtype=np.int64),
            ],
        )
        code = _MatrixCode(matrix)
        # Seven of the eight sources plus parity 9: source 0 is only
        # recoverable through row 1, which still holds {0, 8} -- and 8 is
        # only revealed if something wrongly peels the untouched row 0.
        received = [np.array([1, 2, 3, 4, 5, 6, 7, 9], dtype=np.int64)]
        for kernel in KERNELS:
            prototype = LDGMPrototype(code, kernel=kernel)
            decoded, n_necessary = prototype.decode_batch(received)
            assert decoded.tolist() == [False], kernel
            assert n_necessary.tolist() == [-1], kernel

    @pytest.mark.parametrize("build", [_staircase_matrix, _triangle_matrix])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_handcrafted_chain_all_backends(self, build, kernel):
        code = _MatrixCode(build())
        prototype = LDGMPrototype(code, kernel=kernel)
        rng = np.random.default_rng(17)
        sequences = [
            rng.permutation(np.arange(code.n, dtype=np.int64))[: 3 + rng.integers(6)]
            for _ in range(12)
        ]
        decoded, n_necessary = prototype.decode_batch(sequences)
        for run, sequence in enumerate(sequences):
            decoder = code.new_symbolic_decoder()
            expected = -1
            for count, index in enumerate(sequence, start=1):
                if decoder.add_packet(index):
                    expected = count
                    break
            assert decoded[run] == decoder.is_complete
            assert n_necessary[run] == expected


# ---------------------------------------------------------------------------
# Gilbert sojourn fill and the seen-mask dedup.
# ---------------------------------------------------------------------------


class TestGilbertFillBackends:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_masks_and_generator_state_match_serial(self, kernel):
        grid = [0.0, 0.01, 0.3, 0.9, 1.0]
        for p in grid:
            for q in grid:
                channel = GilbertChannel(p, q)
                for count in (0, 1, 255, 256, 513):
                    fast = np.random.default_rng(41)
                    slow = np.random.default_rng(41)
                    assert np.array_equal(
                        channel.loss_mask(count, fast, kernel=kernel),
                        gilbert_loss_mask_serial(channel, count, slow),
                    ), (kernel, p, q, count)
                    assert fast.integers(1 << 30) == slow.integers(1 << 30)


class TestSeenMaskDedup:
    def test_dedup_and_scratch_reset(self):
        scratch = np.full(16, -1, dtype=np.int64)
        nodes = np.array([5, 3, 5, 9, 3, 3], dtype=np.int64)
        out = _dedup(nodes, scratch)
        assert sorted(out.tolist()) == [3, 5, 9]
        assert (scratch == -1).all()  # touched entries reset for the next round

    def test_dedup_short_arrays_pass_through(self):
        scratch = np.full(4, -1, dtype=np.int64)
        single = np.array([2], dtype=np.int64)
        assert _dedup(single, scratch) is single


# ---------------------------------------------------------------------------
# kernel= threading: simulator, runner units, cache keys, CLI.
# ---------------------------------------------------------------------------


class TestKernelThreading:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_many_kernel(self, kernel):
        code = make_code("ldgm-staircase", k=80, expansion_ratio=2.5, seed=2)

        def build():
            return Simulator(
                code, make_tx_model("tx_model_2"), GilbertChannel(0.1, 0.4)
            )

        expected = build().run_many(5, rng=8, fastpath=False)
        assert build().run_many(5, rng=8, kernel=kernel) == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_work_unit_kernel(self, kernel):
        def unit(**overrides):
            parameters = dict(
                config=SimulationConfig(
                    code="ldgm-staircase",
                    tx_model="tx_model_2",
                    k=80,
                    expansion_ratio=2.5,
                ),
                p=0.1,
                q=0.5,
                seed_path=(1,),
                run_start=0,
                run_stop=4,
                base_seed=13,
            )
            parameters.update(overrides)
            return WorkUnit(**parameters)

        reference = reference_unit_result(unit())
        assert execute_unit(unit(kernel=kernel)) == reference

    def test_plan_units_threads_kernel(self):
        config = SimulationConfig(
            code="rse", tx_model="tx_model_5", k=60, expansion_ratio=2.0
        )
        units = plan_units(
            [((0,), config, 0.1, 0.5)], runs=4, base_seed=3,
            options=ExecutionOptions(kernel="numpy"),
        )
        assert all(unit.kernel == "numpy" for unit in units)

    def test_kernel_not_in_cache_key(self):
        config = SimulationConfig(
            code="ldgm-staircase", tx_model="tx_model_2", k=60, expansion_ratio=2.5
        )
        base = dict(
            config=config,
            p=0.1,
            q=0.5,
            seed_path=(0,),
            run_start=0,
            run_stop=4,
            base_seed=1,
        )
        assert unit_key(WorkUnit(**base, kernel=None)) == unit_key(
            WorkUnit(**base, kernel="numpy")
        )

    def test_cli_kernel_flag(self, tmp_path, capsys):
        exit_code = cli_main(
            [
                "run",
                "fig07",
                "--scale",
                "tiny",
                "--runs",
                "1",
                "--no-cache",
                "--quiet",
                "--kernel",
                "numpy",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "kernel=numpy" in captured.out

    def test_cli_unknown_kernel_fails_fast(self, capsys):
        exit_code = cli_main(
            ["run", "fig07", "--scale", "tiny", "--no-cache", "--kernel", "bogus"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown kernel backend" in captured.err


class TestPrototypeKernelCache:
    @pytest.mark.skipif(
        not cext_compiler_available(), reason="no C compiler for the cext backend"
    )
    def test_prototype_cached_per_backend(self):
        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=0)
        numpy_proto = compile_prototype(code, kernel="numpy")
        assert compile_prototype(code, kernel="numpy") is numpy_proto
        cext_proto = compile_prototype(code, kernel="cext")
        assert cext_proto is not numpy_proto
        assert compile_prototype(code, kernel="cext") is cext_proto
