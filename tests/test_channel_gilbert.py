"""Unit tests for the Gilbert (two-state Markov) channel model."""

import numpy as np
import pytest

from repro.channel import GilbertChannel
from repro.channel.gilbert import PAPER_GRID_PERCENT, paper_grid


class TestParameters:
    def test_global_loss_probability_formula(self):
        channel = GilbertChannel(0.1, 0.3)
        assert channel.global_loss_probability == pytest.approx(0.1 / 0.4)

    def test_no_loss_channel(self):
        channel = GilbertChannel(0.0, 0.5)
        assert channel.global_loss_probability == 0.0

    def test_p_and_q_zero_treated_as_no_loss(self):
        channel = GilbertChannel(0.0, 0.0)
        assert channel.global_loss_probability == 0.0

    def test_all_loss_channel(self):
        channel = GilbertChannel(0.3, 0.0)
        assert channel.global_loss_probability == 1.0

    def test_mean_burst_and_gap_length(self):
        channel = GilbertChannel(0.1, 0.25)
        assert channel.mean_burst_length == pytest.approx(4.0)
        assert channel.mean_gap_length == pytest.approx(10.0)
        assert GilbertChannel(0.1, 0.0).mean_burst_length == float("inf")
        assert GilbertChannel(0.0, 0.1).mean_gap_length == float("inf")

    def test_memoryless_detection(self):
        assert GilbertChannel(0.3, 0.7).is_memoryless
        assert not GilbertChannel(0.3, 0.5).is_memoryless

    def test_stationary_distribution_sums_to_one(self):
        channel = GilbertChannel(0.2, 0.6)
        no_loss, loss = channel.stationary_distribution
        assert no_loss + loss == pytest.approx(1.0)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            GilbertChannel(-0.1, 0.5)
        with pytest.raises(ValueError):
            GilbertChannel(0.5, 1.5)

    def test_paper_grid(self):
        p_values, q_values = paper_grid()
        assert len(p_values) == len(PAPER_GRID_PERCENT) == 14
        assert p_values[0] == 0.0 and p_values[-1] == 1.0
        assert p_values == q_values


class TestLossMask:
    def test_length_and_dtype(self, rng):
        mask = GilbertChannel(0.1, 0.5).loss_mask(1000, rng)
        assert mask.shape == (1000,)
        assert mask.dtype == bool

    def test_zero_count(self, rng):
        assert GilbertChannel(0.1, 0.5).loss_mask(0, rng).size == 0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            GilbertChannel(0.1, 0.5).loss_mask(-1, rng)

    def test_perfect_channel_loses_nothing(self, rng):
        assert not GilbertChannel(0.0, 0.5).loss_mask(5000, rng).any()

    def test_absorbing_loss_state_loses_everything(self, rng):
        assert GilbertChannel(0.4, 0.0).loss_mask(5000, rng).all()

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (0.4, 0.0), (0.1, 0.5)])
    def test_mask_is_a_writable_array_of_its_own(self, rng, p, q):
        # Degenerate chains broadcast one row internally; callers still
        # get an array they may modify.
        mask = GilbertChannel(p, q).loss_mask(100, rng)
        assert mask.flags.writeable
        mask[:] = True

    def test_empirical_loss_rate_matches_stationary(self, rng):
        channel = GilbertChannel(0.05, 0.45)
        mask = channel.loss_mask(200_000, rng)
        empirical = mask.mean()
        assert empirical == pytest.approx(channel.global_loss_probability, abs=0.01)

    def test_empirical_burst_length(self, rng):
        channel = GilbertChannel(0.02, 0.2)
        mask = channel.loss_mask(300_000, rng)
        # Measure mean length of runs of losses.
        changes = np.diff(mask.astype(np.int8))
        starts = np.count_nonzero(changes == 1) + int(mask[0])
        bursts = mask.sum() / max(starts, 1)
        assert bursts == pytest.approx(channel.mean_burst_length, rel=0.15)

    def test_bernoulli_special_case_is_iid(self, rng):
        channel = GilbertChannel(0.3, 0.7)
        mask = channel.loss_mask(200_000, rng)
        # Lag-1 autocorrelation of an IID sequence is close to zero.
        x = mask.astype(float)
        x -= x.mean()
        autocorrelation = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(autocorrelation) < 0.02

    def test_bursty_channel_has_positive_autocorrelation(self, rng):
        channel = GilbertChannel(0.05, 0.2)
        mask = channel.loss_mask(200_000, rng)
        x = mask.astype(float)
        x -= x.mean()
        autocorrelation = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert autocorrelation > 0.4

    def test_deterministic_given_generator_seed(self):
        channel = GilbertChannel(0.1, 0.4)
        first = channel.loss_mask(1000, np.random.default_rng(7))
        second = channel.loss_mask(1000, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_alternating_channel(self, rng):
        # p = q = 1 alternates states deterministically after the start.
        mask = GilbertChannel(1.0, 1.0).loss_mask(1000, rng)
        transitions = np.count_nonzero(np.diff(mask.astype(np.int8)) != 0)
        assert transitions == 999

    def test_transmit_filters_schedule(self, rng):
        channel = GilbertChannel(0.5, 0.5)
        schedule = np.arange(2000)
        received = channel.transmit(schedule, rng)
        assert received.size < schedule.size
        assert np.all(np.diff(received) > 0)  # order preserved

    def test_reception_mask_is_complement(self):
        channel = GilbertChannel(0.2, 0.4)
        loss = channel.loss_mask(500, np.random.default_rng(3))
        received = channel.reception_mask(500, np.random.default_rng(3))
        assert np.array_equal(received, ~loss)

    def test_repr(self):
        assert "p=0.1" in repr(GilbertChannel(0.1, 0.2))
