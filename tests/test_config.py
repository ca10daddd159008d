"""Tests for CryptoNNConfig and its bound arithmetic."""

import pytest

from repro.core.config import CryptoNNConfig, pow2_round_up


class TestPow2RoundUp:
    @pytest.mark.parametrize("value,expected", [
        (0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (1000, 1024),
        (1024, 1024), (1025, 2048),
    ])
    def test_values(self, value, expected):
        assert pow2_round_up(value) == expected


class TestConfig:
    def test_dot_bound_covers_worst_case(self):
        config = CryptoNNConfig()
        n = 50
        worst = int(n * config.max_abs_feature * config.scale
                    * config.max_abs_weight * config.scale)
        assert config.dot_bound(n) >= worst

    def test_dot_bound_is_power_of_two(self):
        bound = CryptoNNConfig().dot_bound(17)
        assert bound & (bound - 1) == 0

    def test_label_sub_bound(self):
        config = CryptoNNConfig(scale=100)
        assert config.label_sub_bound() >= 201

    def test_loss_bound_scales_with_log_prob(self):
        config = CryptoNNConfig()
        assert config.loss_bound(10.0) < config.loss_bound(50.0)

    def test_bounds_scale_quadratically_with_scale(self):
        small = CryptoNNConfig(scale=10)
        large = CryptoNNConfig(scale=1000)
        assert large.dot_bound(10) > 100 * small.dot_bound(10)
