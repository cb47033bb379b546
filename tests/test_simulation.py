"""Tests for channel synthesis, pair selection, Monte Carlo estimation, and
the adaptive-quadrature reference integrator."""

import math

import numpy as np
import pytest

from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel.errors import DomainError
from esrsel.esr_engine import esr_os_exact
from esrsel.simulation import (
    ChannelRealization,
    ToeplitzCorrelation,
    _substream,
    draw_channels,
    estimate_esr,
    paired_esr_difference,
    quadrature_esr,
    select_os,
    select_ss,
)

X1 = 2.1004124800191777  # quadrature value at (1,1,1,1,10,1)
X2 = 3.7591737775057363  # quadrature value at (2,2,2,2,10,1), optimal selection
X3 = 3.6288199876344542  # same point, destination-only selection
LOW_SNR_ESR = 0.000140080053927299  # quadrature at (1,1,1,1,0.01,1)

IID = CorrelationConfig()


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestToeplitzCorrelation:
    def test_matrix_entries(self):
        t = ToeplitzCorrelation(3, 0.5, 2.0)
        m = t.matrix()
        want = 2.0 * np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.allclose(m, want, rtol=0, atol=1e-15)

    def test_sqrt_factor_squares_back(self):
        for rho, scale in [(0.0, 1.0), (0.5, 2.0), (0.9, 0.3)]:
            t = ToeplitzCorrelation(4, rho, scale)
            s = t.sqrt_factor()
            assert np.allclose(s @ s, t.matrix(), rtol=0, atol=1e-12)
            # principal square root of an SPD matrix is symmetric
            assert np.allclose(s, s.T, rtol=0, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ToeplitzCorrelation(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            ToeplitzCorrelation(2, -0.1, 1.0)
        with pytest.raises(DomainError):
            ToeplitzCorrelation(2, 0.5, 0.0)


class TestDrawChannels:
    def test_shapes_and_dtype(self):
        cfg = SystemConfig(3, 2, 4, 2, 1.0, 1.0)
        r = draw_channels(cfg, IID, np.random.default_rng(0))
        assert r.h_D.shape == (2, 3, 4)  # (L, K, M_D)
        assert r.h_E.shape == (3, 2)  # (K, M_E)
        assert r.h_D.dtype == np.complex128

    def test_iid_covariance_is_scaled_identity(self):
        cfg = SystemConfig(2, 1, 2, 1, 2.0, 1.0)
        rng = np.random.default_rng(20240901)
        n = 20000
        vecs = np.empty((n, 4), dtype=np.complex128)
        for i in range(n):
            vecs[i] = draw_channels(cfg, IID, rng).h_D.ravel()
        cov = (vecs.conj().T @ vecs) / n
        tol = 4.0 * cfg.lambda_D / math.sqrt(n)
        assert np.all(np.abs(np.diag(cov).real - cfg.lambda_D) < tol)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < tol

    def test_path_correlation_is_synthesized(self):
        cfg = SystemConfig(1, 1, 2, 1, 1.0, 1.0)
        corr = CorrelationConfig(rho_D=0.9)
        rng = np.random.default_rng(20240902)
        n = 40000
        h = np.empty((n, 2), dtype=np.complex128)
        for i in range(n):
            h[i] = draw_channels(cfg, corr, rng).h_D[0, 0]
        est = np.mean(h[:, 0] * np.conj(h[:, 1])).real / math.sqrt(
            np.mean(np.abs(h[:, 0]) ** 2) * np.mean(np.abs(h[:, 1]) ** 2)
        )
        assert abs(est - 0.9) < 0.01

    def test_transmitter_correlation_is_synthesized(self):
        cfg = SystemConfig(2, 1, 1, 1, 1.0, 1.0)
        corr = CorrelationConfig(rho_S=0.5)
        rng = np.random.default_rng(20240903)
        n = 40000
        h = np.empty((n, 2), dtype=np.complex128)
        for i in range(n):
            h[i] = draw_channels(cfg, corr, rng).h_D[0, :, 0]
        est = np.mean(h[:, 0] * np.conj(h[:, 1])).real / math.sqrt(
            np.mean(np.abs(h[:, 0]) ** 2) * np.mean(np.abs(h[:, 1]) ** 2)
        )
        assert abs(est - 0.5) < 0.01


def hand_realization():
    """Exact dyadic-square taps giving destination SNRs [[3,1],[0.5,9]]
    (indexed transmitter, destination) and eavesdropper SNRs [1,4]."""
    h_d = np.zeros((2, 2, 2), dtype=np.complex128)  # (L, K, M_D)
    h_d[0, 0] = (1.5 + 0.5j, 0.5 + 0.5j)  # (k=1,l=1): 2.5 + 0.5 = 3
    h_d[1, 0] = (1.0, 0.0)  # (k=1,l=2): 1
    h_d[0, 1] = (0.5 + 0.5j, 0.0)  # (k=2,l=1): 0.5
    h_d[1, 1] = (3.0, 0.0)  # (k=2,l=2): 9
    h_e = np.array([[1.0], [2.0]], dtype=np.complex128)  # (K, M_E)
    return ChannelRealization(h_D=h_d, h_E=h_e)


class TestSelection:
    def test_hand_example_with_tie(self):
        cfg = SystemConfig(2, 2, 2, 1, 1.0, 1.0)
        r = hand_realization()
        # Ratio metric ties at 2.0 for (1,1) and (2,2); lexicographic
        # tie-break must pick (1,1).
        assert select_os(r, cfg) == (1, 1, 2.0)
        # Destination-only metric picks the SNR-9 pair.
        assert select_ss(r, cfg) == (2, 2, 2.0)

    def test_single_pair_trivial(self):
        cfg = SystemConfig(1, 1, 2, 2, 4.0, 1.0)
        r = draw_channels(cfg, IID, np.random.default_rng(5))
        assert select_os(r, cfg) == select_ss(r, cfg)
        k, l, ratio = select_os(r, cfg)
        assert (k, l) == (1, 1)
        gamma_d = float(np.sum(np.abs(r.h_D) ** 2))
        gamma_e = float(np.sum(np.abs(r.h_E) ** 2))
        assert ratio == pytest.approx((1 + gamma_d) / (1 + gamma_e), rel=1e-12)

    def test_optimal_ratio_dominates_every_draw(self):
        cfg = SystemConfig(3, 2, 2, 2, 8.0, 2.0)
        rng = np.random.default_rng(42)
        for _ in range(300):
            r = draw_channels(cfg, IID, rng)
            assert select_os(r, cfg)[2] >= select_ss(r, cfg)[2]


class TestEstimateEsr:
    def test_reproducible_bit_for_bit(self):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        a = estimate_esr(cfg, IID, "OS", 5000, 123)
        b = estimate_esr(cfg, IID, "OS", 5000, 123)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert (a.trials, a.seed) == (5000, 123)

    def test_substreams_of_neighbouring_seeds_differ(self):
        # A key of seed XOR chunk would give seed s at chunk 1 the stream of
        # seed s^1 at chunk 0.
        seed = 20240815
        a = _substream(seed, 1).standard_normal(8)
        b = _substream(seed ^ 1, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_minimum_trials_enforced(self):
        with pytest.raises(DomainError):
            estimate_esr(SystemConfig(1, 1, 1, 1, 1.0, 1.0), IID, "OS", 999, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="seed"):
            estimate_esr(SystemConfig(1, 1, 1, 1, 1.0, 1.0), IID, "OS", 1000, seed)

    def test_non_integer_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="seed=1.5"):
            estimate_esr(SystemConfig(1, 1, 1, 1, 1.0, 1.0), IID, "OS", 1000, 1.5)

    def test_non_integer_trials_is_a_domain_error(self):
        cfg = SystemConfig(2, 1, 1, 1, 1.0, 1.0)
        with pytest.raises(DomainError, match="trials=1000.5"):
            estimate_esr(cfg, IID, "OS", 1000.5, 1)
        with pytest.raises(DomainError, match="trials=1000.5"):
            paired_esr_difference(cfg, IID, CorrelationConfig(rho_S=0.5), "OS", 1000.5, 1)

    def test_numpy_integer_seed_is_reported_as_int(self):
        cfg = SystemConfig(1, 1, 1, 1, 1.0, 1.0)
        est = estimate_esr(cfg, IID, "OS", 1000, np.uint64(2**64 - 1))
        assert est.seed == 2**64 - 1 and type(est.seed) is int

    def test_matches_closed_form_baseline(self):
        est = estimate_esr(SystemConfig(1, 1, 1, 1, 10.0, 1.0), IID, "OS", 200000, 20240601)
        assert abs(est.mean - X1) <= 4.0 * est.stderr
        assert est.stderr > 0.0

    def test_matches_closed_form_with_selection(self):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        est_os = estimate_esr(cfg, IID, "OS", 200000, 20240601)
        est_ss = estimate_esr(cfg, IID, "SS", 200000, 20240601)
        assert abs(est_os.mean - X2) <= 4.0 * est_os.stderr
        assert abs(est_ss.mean - X3) <= 4.0 * est_ss.stderr

    def test_correlated_run_executes(self):
        cfg = SystemConfig(2, 1, 2, 2, 10.0, 1.0)
        est = estimate_esr(cfg, CorrelationConfig(rho_S=0.5, rho_D=0.5), "SS", 2000, 9)
        assert est.mean >= 0.0
        assert est.stderr > 0.0


def _sampled_snrs(cfg, corr, trials, seed, monkeypatch):
    """The link SNRs ``estimate_esr`` draws, one row per draw: γ_D[k, l]
    at column k·L + l, then γ_E[k]."""
    rows = []

    def keep(gd, ge, scheme):
        rows.append(np.concatenate([gd.reshape(len(gd), -1), ge], axis=1))
        return np.zeros(len(gd))

    monkeypatch.setattr("esrsel.simulation._chunk_rates", keep)
    estimate_esr(cfg, corr, "OS", trials, seed)
    return np.concatenate(rows)


def _toeplitz_power_sum(m, rho):
    """Σ_{i,j} ρ^{2|i−j|} over an m×m Toeplitz correlation."""
    return sum(rho ** (2 * abs(i - j)) for i in range(m) for j in range(m))


class TestLinkSnrMoments:
    """The sampled link SNRs against moments derived from the channel model:
    a path-correlated link SNR is a quadratic form of circular complex
    normal taps, so E[γ] = λ·M and Cov(γ_{k,l}, γ_{k',l'}) =
    [l = l']·λ²·Σ_{i,j} ρ^{2|i−j|}·ρ_S^{2|k−k'|}, and D and E links are
    independent."""

    CFG = SystemConfig(3, 2, 3, 2, 2.0, 0.5)

    @pytest.mark.parametrize(
        "corr",
        [
            CorrelationConfig(),
            CorrelationConfig(rho_D=0.8, rho_E=0.6),
            CorrelationConfig(rho_S=0.7),
            CorrelationConfig(rho_S=0.5, rho_D=0.6, rho_E=0.4),
        ],
        ids=["iid", "path", "tx", "tx_path"],
    )
    def test_moments_within_five_sigma(self, corr, monkeypatch):
        cfg, n = self.CFG, 200_000
        x = _sampled_snrs(cfg, corr, n, 20240920, monkeypatch)
        links = [("D", k, l) for k in range(cfg.K) for l in range(cfg.L)]
        links += [("E", k, 0) for k in range(cfg.K)]
        assert x.shape == (n, len(links))
        lam = {"D": cfg.lambda_D, "E": cfg.lambda_E}
        m = {"D": cfg.M_D, "E": cfg.M_E}
        power = {"D": _toeplitz_power_sum(cfg.M_D, corr.rho_D),
                 "E": _toeplitz_power_sum(cfg.M_E, corr.rho_E)}
        mean = x.mean(axis=0)
        dev = x - mean
        failures = []
        for a, (la, ka, da) in enumerate(links):
            want = lam[la] * m[la]
            se = dev[:, a].std() / math.sqrt(n)
            if abs(mean[a] - want) > 5.0 * se:
                failures.append(("mean", links[a], mean[a], want, se))
            for b in range(a, len(links)):
                lb, kb, db = links[b]
                want = 0.0
                if la == lb and da == db:
                    want = lam[la] ** 2 * power[la] * corr.rho_S ** (2 * abs(ka - kb))
                prod = dev[:, a] * dev[:, b]
                got, se = prod.mean(), prod.std() / math.sqrt(n)
                if abs(got - want) > 5.0 * se:
                    failures.append(("cov", links[a], links[b], got, want, se))
        assert not failures, failures


class TestPairedDifference:
    def test_identical_configs_difference_is_exactly_zero(self):
        cfg = SystemConfig(2, 2, 1, 1, 10.0, 1.0)
        d = paired_esr_difference(cfg, IID, CorrelationConfig(), "OS", 2000, 3)
        assert d.mean == 0.0
        assert d.stderr == 0.0

    @pytest.mark.parametrize(
        "corr",
        [CorrelationConfig(rho_D=0.9, rho_E=0.5), CorrelationConfig(rho_S=0.9)],
        ids=["path", "tx"],
    )
    def test_identical_correlated_configs_difference_is_exactly_zero(self, corr):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        d = paired_esr_difference(cfg, corr, corr, "SS", 2000, 3)
        assert d.mean == 0.0
        assert d.stderr == 0.0

    def test_antisymmetric_under_swap(self):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        corr = CorrelationConfig(rho_D=0.9)
        d_ab = paired_esr_difference(cfg, IID, corr, "OS", 20000, 7)
        d_ba = paired_esr_difference(cfg, corr, IID, "OS", 20000, 7)
        assert d_ab.mean == -d_ba.mean
        assert d_ab.stderr == d_ba.stderr

    def test_transmitter_correlation_effect_resolves_sharply(self):
        # Either side's transmitter correlation makes both sides read
        # complex-normal draws; the effect then resolves in both orders.
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        corr = CorrelationConfig(rho_S=0.9)
        d_ab = paired_esr_difference(cfg, IID, corr, "OS", 20000, 7)
        d_ba = paired_esr_difference(cfg, corr, IID, "OS", 20000, 7)
        assert d_ab.mean > 5.0 * d_ab.stderr  # transmitter correlation costs OS
        assert d_ab.mean == -d_ba.mean

    def test_path_correlation_effect_resolves_sharply(self):
        # Common random numbers lift a ~0.07 bpcu effect far above noise at
        # trial counts where independent runs would drown it.
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        d = paired_esr_difference(cfg, IID, CorrelationConfig(rho_D=0.9), "OS", 50000, 7)
        assert d.mean < 0.0  # path correlation raises the ESR here
        assert abs(d.mean) > 5.0 * d.stderr


class TestQuadratureEsr:
    def test_schemes_coincide_for_single_pair(self):
        cfg = SystemConfig(1, 1, 2, 2, 5.0, 5.0)
        a = quadrature_esr(cfg, "OS").value
        b = quadrature_esr(cfg, "SS").value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_committed_oracle_point(self):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        r = quadrature_esr(cfg, "OS")
        assert rel_err(r.value, X2) < 1e-9
        assert rel_err(quadrature_esr(cfg, "SS").value, X3) < 1e-9
        assert r.method == "quadrature"
        assert r.stderr is None

    def test_tightening_error_budget_moves_nothing(self):
        cfg = SystemConfig(2, 1, 2, 2, 10.0, 2.0)
        base = quadrature_esr(cfg, "OS").value
        tight = quadrature_esr(cfg, "OS", epsabs=5e-13, epsrel=5e-10).value
        assert abs(base - tight) < 1e-8

    def test_vanishing_destination_snr(self):
        cfg = SystemConfig(1, 1, 1, 1, 0.01, 1.0)
        val = quadrature_esr(cfg, "OS").value
        assert 0.0 <= val <= 0.02
        assert abs(val - LOW_SNR_ESR) < 1e-12

    def test_agrees_with_closed_form_off_grid(self):
        cfg = SystemConfig(3, 2, 1, 2, 17.0, 3.3)
        closed = esr_os_exact(cfg).value
        oracle = quadrature_esr(cfg, "OS").value
        assert abs(closed - oracle) <= max(1e-6 * abs(oracle), 1e-8)
