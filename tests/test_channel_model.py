"""Tests for the system configuration and per-link SNR distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from esrsel.channel_model import (
    CorrelationConfig,
    GammaSnrDist,
    SystemConfig,
    secrecy_rate,
    snr_cdf,
    snr_pdf,
)
from esrsel.errors import DomainError
from special_functions import upper_incomplete_gamma


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestSnrPdf:
    def test_exponential_density_at_origin(self):
        assert snr_pdf(GammaSnrDist(1, 1.0), 0.0) == 1.0

    def test_shape_two_at_one(self):
        assert rel_err(snr_pdf(GammaSnrDist(2, 1.0), 1.0), math.exp(-1.0)) < 1e-14

    def test_shape_three_scale_two(self):
        # 4^2 e^-2 / (2 · 2^3) = e^-2
        assert rel_err(snr_pdf(GammaSnrDist(3, 2.0), 4.0), math.exp(-2.0)) < 1e-14

    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (2, 3.0), (4, 0.5), (6, 2.0)])
    def test_integrates_to_one(self, shape, scale):
        total, err = quad(
            lambda x: snr_pdf(GammaSnrDist(shape, scale), x),
            0.0,
            100.0 * shape * scale,
            limit=200,
        )
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("shape,scale", [(1, 2.0), (3, 1.0), (5, 0.7)])
    def test_mean_matches_shape_times_scale(self, shape, scale):
        dist = GammaSnrDist(shape, scale)
        mean, _ = quad(lambda x: x * snr_pdf(dist, x), 0.0, 200.0 * shape * scale, limit=200)
        assert rel_err(mean, dist.mean) < 1e-9
        assert dist.mean == shape * scale


class TestSnrCdf:
    @pytest.mark.parametrize("shape", [1, 2, 5])
    def test_zero_at_origin(self, shape):
        assert snr_cdf(GammaSnrDist(shape, 1.5), 0.0) == 0.0

    def test_exponential_case(self):
        assert rel_err(snr_cdf(GammaSnrDist(1, 1.0), 1.0), 1.0 - math.exp(-1.0)) < 1e-14

    def test_shape_two_case(self):
        # Cross-checked by quadrature of the density on [0, 1].
        want = 1.0 - 2.0 * math.exp(-1.0)
        assert rel_err(snr_cdf(GammaSnrDist(2, 1.0), 1.0), want) < 1e-14
        by_quad, _ = quad(lambda x: snr_pdf(GammaSnrDist(2, 1.0), x), 0.0, 1.0)
        assert rel_err(snr_cdf(GammaSnrDist(2, 1.0), 1.0), by_quad) < 1e-10

    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (3, 2.0), (8, 0.4)])
    def test_nondecreasing_and_saturates(self, shape, scale):
        xs = [0.1 * i * shape * scale for i in range(1, 80)]
        vals = [snr_cdf(GammaSnrDist(shape, scale), x) for x in xs]
        assert all(v1 >= v0 for v0, v1 in zip(vals, vals[1:]))
        assert abs(snr_cdf(GammaSnrDist(shape, scale), 50.0 * shape * scale) - 1.0) < 1e-10

    @pytest.mark.parametrize("shape", range(1, 17))
    def test_matches_incomplete_gamma_form(self, shape):
        # 1 - Γ(M, x/λ)/(M-1)! — an independent special-function route.
        scale = 1.7
        for x in (0.3, 1.0, 2.5, 6.0, 20.0):
            want = 1.0 - upper_incomplete_gamma(shape, x / scale) / math.factorial(shape - 1)
            got = snr_cdf(GammaSnrDist(shape, scale), x)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (2, 3.0), (4, 0.8)])
    def test_derivative_recovers_density(self, shape, scale):
        dist = GammaSnrDist(shape, scale)
        for x in [10**e for e in (-2, -1, 0, 0.5, 1)]:
            h = 1e-4 * max(x, 1.0)
            num = (snr_cdf(dist, x + h) - snr_cdf(dist, x - h)) / (2.0 * h)
            assert abs(num - snr_pdf(dist, x)) < 1e-6


class TestSecrecyRate:
    def test_examples(self):
        assert secrecy_rate(3.0, 1.0) == 1.0
        assert secrecy_rate(1.0, 3.0) == 0.0
        for g in (0.0, 1.0, 17.5):
            assert secrecy_rate(g, g) == 0.0

    @given(
        a=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200, derandomize=True)
    def test_positive_iff_destination_stronger(self, a, b):
        rate = secrecy_rate(a, b)
        assert rate >= 0.0
        if a > b:
            assert rate > 0.0
        else:
            assert rate == 0.0

    def test_value_formula(self):
        assert rel_err(secrecy_rate(9.0, 4.0), math.log2(2.0)) < 1e-14
        assert rel_err(secrecy_rate(99.0, 0.0), math.log2(100.0)) < 1e-14


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
        ],
    )
    def test_bad_system_config_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SystemConfig(**kwargs)

    def test_bad_distribution_rejected(self):
        for shape, scale in [(0, 1.0), (2, 0.0), (2.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                             (2, "1"), (2, 1j)]:
            with pytest.raises(DomainError):
                GammaSnrDist(shape, scale)

    def test_integer_like_counts_accepted(self):
        cfg = SystemConfig(np.int64(2), 1, 2, np.uint8(3), np.float64(10.0), 1)
        assert (cfg.K, cfg.M_E) == (2, 3)
        assert GammaSnrDist(np.int32(2), 1).mean == 2

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, "0.5"])
    def test_correlation_exponent_bounds(self, bad):
        with pytest.raises(DomainError):
            CorrelationConfig(rho_S=bad)
        with pytest.raises(DomainError):
            CorrelationConfig(rho_D=bad)
        with pytest.raises(DomainError):
            CorrelationConfig(rho_E=bad)
