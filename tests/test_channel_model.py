"""Tests for the system configuration and its correlation settings."""

import math

import numpy as np
import pytest

from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel.errors import DomainError


class TestConfigValidation:
    def test_valid_config_accepted(self):
        cfg = SystemConfig(K=3, L=2, M_D=4, M_E=1, lambda_D=10.0, lambda_E=7.9)
        assert (cfg.K, cfg.L, cfg.M_D, cfg.M_E) == (3, 2, 4, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0, L=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=1.0),
            dict(K=1, L=0, M_D=1, M_E=1, lambda_D=1.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=0, M_E=1, lambda_D=1.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=0, lambda_D=1.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=0.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=-2.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=math.inf, lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=math.nan),
            # Counts must be integers (``operator.index``), not integral
            # floats, and every scale a real number.
            dict(K=2.0, L=2, M_D=2, M_E=2, lambda_D=10.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=2.0, M_E=1, lambda_D=1.0, lambda_E=1.0),
            dict(K=math.nan, L=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=1.0),
            dict(K=math.inf, L=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D="1", lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=1.0, lambda_E=1j),
            # A bool is neither a count nor a scale.
            dict(K=True, L=2, M_D=True, M_E=1, lambda_D=10.0, lambda_E=1.0),
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=True, lambda_E=1.0),
        ],
    )
    def test_bad_system_config_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SystemConfig(**kwargs)

    def test_integer_like_counts_accepted(self):
        cfg = SystemConfig(np.int64(2), 1, 2, np.uint8(3), np.float64(10.0), 1)
        assert (cfg.K, cfg.M_E) == (2, 3)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, "0.5", False, True])
    def test_correlation_exponent_bounds(self, bad):
        with pytest.raises(DomainError):
            CorrelationConfig(rho_S=bad)
        with pytest.raises(DomainError):
            CorrelationConfig(rho_D=bad)
        with pytest.raises(DomainError):
            CorrelationConfig(rho_E=bad)
