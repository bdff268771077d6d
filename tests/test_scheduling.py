"""Unit tests for the transmission and reception models."""

import numpy as np
import pytest

from repro.fec import make_code
from repro.fec.packet import multi_block_layout, single_block_layout
from repro.scheduling import (
    RxModel1,
    TxModel1,
    TxModel2,
    TxModel3,
    TxModel4,
    TxModel5,
    TxModel6,
    available_tx_models,
    block_interleave,
    make_tx_model,
    proportional_interleave,
)
from repro.scheduling.registry import resolve_tx_model_name
from serial_reference import (
    block_interleave_reference,
    proportional_interleave_reference,
)


@pytest.fixture
def ldgm_layout():
    return single_block_layout(100, 250)


@pytest.fixture
def rse_layout():
    return multi_block_layout([40, 40, 20], [100, 100, 50])


class TestTxModel1:
    def test_source_then_parity_sequential(self, ldgm_layout, rng):
        schedule = TxModel1().schedule(ldgm_layout, rng)
        assert schedule.tolist() == list(range(250))

    def test_multi_block_order(self, rse_layout, rng):
        schedule = TxModel1().schedule(rse_layout, rng)
        assert schedule[:100].tolist() == list(range(100))  # all source first
        assert sorted(schedule[100:].tolist()) == list(range(100, 250))


class TestTxModel2:
    def test_source_sequential_parity_random(self, ldgm_layout, rng):
        schedule = TxModel2().schedule(ldgm_layout, rng)
        assert schedule[:100].tolist() == list(range(100))
        parity_part = schedule[100:].tolist()
        assert sorted(parity_part) == list(range(100, 250))
        assert parity_part != list(range(100, 250))  # actually shuffled


class TestTxModel3:
    def test_parity_sequential_source_random(self, ldgm_layout, rng):
        schedule = TxModel3().schedule(ldgm_layout, rng)
        assert schedule[:150].tolist() == list(range(100, 250))
        source_part = schedule[150:].tolist()
        assert sorted(source_part) == list(range(100))
        assert source_part != list(range(100))


class TestTxModel4:
    def test_full_permutation(self, ldgm_layout, rng):
        schedule = TxModel4().schedule(ldgm_layout, rng)
        assert sorted(schedule.tolist()) == list(range(250))
        assert schedule.tolist() != list(range(250))

    def test_different_rngs_give_different_orders(self, ldgm_layout):
        first = TxModel4().schedule(ldgm_layout, np.random.default_rng(1))
        second = TxModel4().schedule(ldgm_layout, np.random.default_rng(2))
        assert first.tolist() != second.tolist()


class TestTxModel5:
    def test_block_interleaving_for_rse(self, rse_layout, rng):
        schedule = TxModel5().schedule(rse_layout, rng)
        assert sorted(schedule.tolist()) == list(range(250))
        # The first packets must come from different blocks.
        blocks = [rse_layout.block_of(int(i)) for i in schedule[:3]]
        assert blocks == [0, 1, 2]

    def test_proportional_interleaving_for_ldgm(self, ldgm_layout, rng):
        schedule = TxModel5().schedule(ldgm_layout, rng)
        assert sorted(schedule.tolist()) == list(range(250))
        # In any prefix, the share of source packets stays close to k/n.
        prefix = schedule[:50]
        source_count = int(np.count_nonzero(prefix < 100))
        assert 15 <= source_count <= 25  # ideal is 20

    def test_deterministic(self, ldgm_layout):
        first = TxModel5().schedule(ldgm_layout, np.random.default_rng(1))
        second = TxModel5().schedule(ldgm_layout, np.random.default_rng(99))
        assert first.tolist() == second.tolist()


class TestTxModel6:
    def test_sends_fraction_of_source_plus_all_parity(self, ldgm_layout, rng):
        schedule = TxModel6(source_fraction=0.2).schedule(ldgm_layout, rng)
        source_sent = [i for i in schedule.tolist() if i < 100]
        parity_sent = [i for i in schedule.tolist() if i >= 100]
        assert len(source_sent) == 20
        assert len(set(source_sent)) == 20
        assert sorted(parity_sent) == list(range(100, 250))

    def test_zero_fraction(self, ldgm_layout, rng):
        schedule = TxModel6(source_fraction=0.0).schedule(ldgm_layout, rng)
        assert sorted(schedule.tolist()) == list(range(100, 250))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            TxModel6(source_fraction=1.5)


class TestRxModel1:
    def test_source_prefix_then_random_parity(self, ldgm_layout, rng):
        schedule = RxModel1(num_source_packets=10).schedule(ldgm_layout, rng)
        assert schedule.size == 10 + 150
        assert all(i < 100 for i in schedule[:10].tolist())
        assert sorted(schedule[10:].tolist()) == list(range(100, 250))

    def test_sequential_pick(self, ldgm_layout, rng):
        schedule = RxModel1(num_source_packets=5, pick_randomly=False).schedule(ldgm_layout, rng)
        assert schedule[:5].tolist() == [0, 1, 2, 3, 4]

    def test_count_capped_at_k(self, ldgm_layout, rng):
        schedule = RxModel1(num_source_packets=1000).schedule(ldgm_layout, rng)
        assert schedule.size == 250


class TestRegistryAndValidation:
    def test_all_models_registered(self):
        names = available_tx_models()
        for expected in [f"tx_model_{i}" for i in range(1, 7)] + ["rx_model_1"]:
            assert expected in names

    def test_aliases(self):
        assert resolve_tx_model_name("interleaving") == "tx_model_5"
        assert resolve_tx_model_name("TX4") == "tx_model_4"

    def test_make_with_options(self):
        model = make_tx_model("tx_model_6", source_fraction=0.3)
        assert isinstance(model, TxModel6)
        assert model.source_fraction == 0.3

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            make_tx_model("tx_model_99")

    def test_validate_schedule_catches_bad_indices(self, ldgm_layout):
        model = TxModel1()
        with pytest.raises(ValueError):
            model.validate_schedule(ldgm_layout, np.array([0, 1, 250]))

    def test_description(self):
        assert "random" in TxModel4().description().lower()

    def test_schedules_work_with_real_codes(self, rng):
        for code_name in ("rse", "ldgm-staircase", "ldgm-triangle"):
            code = make_code(code_name, k=120, expansion_ratio=2.5, seed=0)
            for tx_name in [f"tx_model_{i}" for i in range(1, 6)]:
                model = make_tx_model(tx_name)
                schedule = model.schedule(code.layout, rng)
                assert sorted(schedule.tolist()) == list(range(code.n)), (code_name, tx_name)


class TestInterleavers:
    def test_block_interleave_round_robin(self):
        layout = multi_block_layout([2, 2], [4, 4])
        schedule = block_interleave(layout)
        # block 0: [0,1,4,5]; block 1: [2,3,6,7] -> round robin.
        assert schedule.tolist() == [0, 2, 1, 3, 4, 6, 5, 7]

    def test_block_interleave_uneven_blocks(self):
        layout = multi_block_layout([3, 2], [5, 4])
        schedule = block_interleave(layout)
        assert sorted(schedule.tolist()) == list(range(9))

    def test_proportional_interleave_balance(self):
        first = np.arange(10)
        second = np.arange(10, 40)
        merged = proportional_interleave(first, second)
        assert sorted(merged.tolist()) == list(range(40))
        # The ratio in every prefix stays close to 1:3.
        for prefix_len in (4, 8, 20, 40):
            prefix = merged[:prefix_len]
            count_first = int(np.count_nonzero(prefix < 10))
            assert abs(count_first - prefix_len / 4) <= 1

    def test_proportional_interleave_empty_streams(self):
        assert proportional_interleave(np.array([]), np.array([])).size == 0
        only_second = proportional_interleave(np.array([]), np.array([5, 6]))
        assert only_second.tolist() == [5, 6]


class TestScheduleBatchContract:
    """The batched face of every model (exhaustive parity in test_pipeline)."""

    def _rngs(self, runs=4):
        return [
            np.random.default_rng(np.random.SeedSequence([55, run]))
            for run in range(runs)
        ]

    def test_every_builtin_model_batches_uniform_rows(self, ldgm_layout):
        models = [TxModel1(), TxModel2(), TxModel3(), TxModel4(), TxModel5(),
                  TxModel6(0.2), RxModel1(num_source_packets=13)]
        for model in models:
            batch = model.schedule_batch(ldgm_layout, self._rngs())
            assert isinstance(batch, np.ndarray) and batch.ndim == 2
            rows = [model.schedule(ldgm_layout, rng) for rng in self._rngs()]
            for index, row in enumerate(rows):
                assert np.array_equal(batch[index], row), type(model).__name__

    def test_uses_rng_flags(self):
        assert not TxModel1().uses_rng
        assert not TxModel5().uses_rng
        for model in (TxModel2(), TxModel3(), TxModel4(), TxModel6(), RxModel1(5)):
            assert model.uses_rng

    def test_interleavers_match_retained_references(self, rse_layout, ldgm_layout):
        assert np.array_equal(
            block_interleave(rse_layout), block_interleave_reference(rse_layout)
        )
        first = ldgm_layout.source_indices
        second = ldgm_layout.parity_indices
        assert np.array_equal(
            proportional_interleave(first, second),
            proportional_interleave_reference(first, second),
        )
