"""Tests for the system configuration and its correlation settings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel.errors import DomainError
from esrsel.esr_engine import (
    DEFAULT_BUDGET,
    _work,
    asymptote_line,
    esr_asymptotic,
    esr_os_exact,
    esr_os_highsnr,
    esr_ss_exact,
    esr_ss_highsnr,
)
from esrsel.simulation import estimate_esr, paired_esr_difference, quadrature_esr


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
            # Finite as an int, but not as a float.
            dict(K=1, L=1, M_D=1, M_E=1, lambda_D=10**400, lambda_E=1.0),
        ],
    )
    def test_bad_system_config_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SystemConfig(**kwargs)

    def test_integer_like_counts_accepted(self):
        cfg = SystemConfig(np.int64(2), 1, 2, np.uint8(3), np.float64(10.0), 1)
        assert (cfg.K, cfg.M_E) == (2, 3)

    # The last one lies below 1 but is 1.0 as the float that would be stored.
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, "0.5", False, True, Fraction(2**60 - 1, 2**60)])
    def test_correlation_exponent_bounds(self, bad):
        with pytest.raises(DomainError):
            CorrelationConfig(rho_S=bad)
        with pytest.raises(DomainError):
            CorrelationConfig(rho_D=bad)
        with pytest.raises(DomainError):
            CorrelationConfig(rho_E=bad)


# Every route the stored types reach: the six closed forms, the asymptote
# line (which reads λ_E), the quadrature oracle and Monte Carlo.
ROUTES = {
    "os_exact": esr_os_exact,
    "ss_exact": esr_ss_exact,
    "os_highsnr": esr_os_highsnr,
    "ss_highsnr": esr_ss_highsnr,
    "os_asymptotic": lambda cfg: esr_asymptotic(cfg, "OS"),
    "ss_asymptotic": lambda cfg: esr_asymptotic(cfg, "SS"),
    "os_line": lambda cfg: asymptote_line(cfg, "OS"),
    "ss_line": lambda cfg: asymptote_line(cfg, "SS"),
    "quadrature": lambda cfg: quadrature_esr(cfg, "OS"),
    "mc": lambda cfg: estimate_esr(cfg, CorrelationConfig(), "OS", 2000, 7),
}


class TestStoredTypes:
    """The fields hold Python types, whatever number types built them: an
    int per count and a float per λ or ρ."""

    @pytest.mark.parametrize("kind", [Fraction, np.float32, np.float16, np.int64], ids=lambda t: t.__name__)
    def test_lambdas_give_the_float_results_on_every_route(self, kind):
        # Each of these λ types used to raise a bare TypeError on the closed
        # forms, and a Fraction also in the oracle and in Monte Carlo.
        typed, plain = SystemConfig(2, 2, 2, 2, kind(10), kind(2)), SystemConfig(2, 2, 2, 2, 10.0, 2.0)
        assert type(typed.lambda_D) is float and type(typed.lambda_E) is float
        assert typed == plain
        for name, route in ROUTES.items():
            assert route(typed) == route(plain), name

    def test_counts_are_ints(self):
        cfg = SystemConfig(np.int64(2), np.uint8(3), np.int32(2), np.int64(4), 10.0, 1.0)
        assert [type(v) for v in (cfg.K, cfg.L, cfg.M_D, cfg.M_E)] == [int] * 4

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "ratio"])
    def test_numpy_counts_do_not_wrap_the_work_estimate(self, exact):
        # np.int64 counts used to wrap the estimate at (12,12,12,12) to about
        # -5.4e18, which the budget admits.  Only the estimate runs here.
        got = _work(SystemConfig(*[np.int64(12)] * 4, 1.0, 1.0), exact)
        want = _work(SystemConfig(12, 12, 12, 12, 1.0, 1.0), exact)
        assert type(got) is int
        assert got == want > DEFAULT_BUDGET

    @pytest.mark.parametrize("kind", [Fraction, np.float32, np.float16, int], ids=lambda t: t.__name__)
    def test_rhos_give_the_float_results_in_monte_carlo(self, kind):
        # A Fraction ρ used to pass the check and then fail inside numpy's
        # draws.  int covers the one integer ρ there is, 0.
        rhos = (0, 0, 0) if kind is int else (kind(1) / 2, kind(1) / 4, kind(3) / 4)
        typed, plain = CorrelationConfig(*rhos), CorrelationConfig(*map(float, rhos))
        assert [type(v) for v in (typed.rho_S, typed.rho_D, typed.rho_E)] == [float] * 3
        assert typed == plain
        cfg, iid = SystemConfig(2, 2, 2, 2, 10.0, 1.0), CorrelationConfig()
        for scheme in ("OS", "SS"):
            got, want = estimate_esr(cfg, typed, scheme, 2000, 3), estimate_esr(cfg, plain, scheme, 2000, 3)
            assert (got.mean.hex(), got.stderr.hex()) == (want.mean.hex(), want.stderr.hex()), scheme
            got = paired_esr_difference(cfg, typed, iid, scheme, 2000, 3)
            want = paired_esr_difference(cfg, plain, iid, scheme, 2000, 3)
            assert (got.mean.hex(), got.stderr.hex()) == (want.mean.hex(), want.stderr.hex()), scheme
