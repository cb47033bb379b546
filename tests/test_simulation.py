"""Tests for the Monte Carlo estimators and the adaptive-quadrature oracle.

The tap-level channel model in ``tap_reference`` checks the link-SNR
sampler: its draws recover the tap covariances, its selection rules agree
with hand examples, and its ESR agrees with ``estimate_esr``.  Explicit
complex taps check the transmitter recursion's power steps."""

import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel import simulation
from esrsel.errors import DomainError, OracleFailureError
from esrsel.esr_engine import esr_os_exact
from esrsel.simulation import (
    CHUNK_SIZE,
    _ERLANG_T_MAX,
    _G21,
    _W21,
    _X21,
    _chunk_rates,
    _draw_groups,
    _erlang_sf,
    _gk21,
    _link_snrs,
    _mc_mean,
    _quadrature,
    _substream,
    _survival,
    estimate_esr,
    paired_esr_difference,
    quadrature_esr,
)
from quadpack_reference import _quadrature as quadpack_quadrature
from tap_reference import (
    ChannelRealization,
    ToeplitzCorrelation,
    draw_channels,
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


def correlation(a, b):
    """The normalized correlation Re E[a·b*] / √(E|a|²·E|b|²) of two tap samples."""
    power = np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2)
    return np.mean(a * np.conj(b)).real / math.sqrt(power)


class TestDrawChannels:
    def test_shapes_and_dtype(self):
        cfg = SystemConfig(3, 2, 4, 2, 1.0, 1.0)
        r = draw_channels(cfg, IID, 5, np.random.default_rng(0))
        assert r.h_D.shape == (5, 2, 3, 4)  # (n, L, K, M_D)
        assert r.h_E.shape == (5, 3, 2)  # (n, K, M_E)
        assert r.h_D.dtype == np.complex128

    def test_iid_covariance_is_scaled_identity(self):
        cfg = SystemConfig(2, 1, 2, 1, 2.0, 1.0)
        n = 20000
        vecs = draw_channels(cfg, IID, n, np.random.default_rng(20240901)).h_D.reshape(n, -1)
        cov = (vecs.conj().T @ vecs) / n
        tol = 4.0 * cfg.lambda_D / math.sqrt(n)
        assert np.all(np.abs(np.diag(cov).real - cfg.lambda_D) < tol)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < tol

    def test_path_correlation_is_synthesized(self):
        cfg = SystemConfig(1, 1, 2, 1, 1.0, 1.0)
        corr = CorrelationConfig(rho_D=0.9)
        h = draw_channels(cfg, corr, 40000, np.random.default_rng(20240902)).h_D[:, 0, 0]
        assert abs(correlation(h[:, 0], h[:, 1]) - 0.9) < 0.01

    def test_transmitter_correlation_is_synthesized(self):
        cfg = SystemConfig(2, 1, 1, 1, 1.0, 1.0)
        corr = CorrelationConfig(rho_S=0.5)
        h = draw_channels(cfg, corr, 40000, np.random.default_rng(20240903)).h_D[:, 0, :, 0]
        assert abs(correlation(h[:, 0], h[:, 1]) - 0.5) < 0.01


def hand_realization():
    """One draw of exact dyadic-square taps giving destination SNRs
    [[3,1],[0.5,9]] (indexed transmitter, destination) and eavesdropper
    SNRs [1,4]."""
    h_d = np.zeros((1, 2, 2, 2), dtype=np.complex128)  # (n, L, K, M_D)
    h_d[0, 0, 0] = (1.5 + 0.5j, 0.5 + 0.5j)  # (k=1,l=1): 2.5 + 0.5 = 3
    h_d[0, 1, 0] = (1.0, 0.0)  # (k=1,l=2): 1
    h_d[0, 0, 1] = (0.5 + 0.5j, 0.0)  # (k=2,l=1): 0.5
    h_d[0, 1, 1] = (3.0, 0.0)  # (k=2,l=2): 9
    h_e = np.array([[[1.0], [2.0]]], dtype=np.complex128)  # (n, K, M_E)
    return ChannelRealization(h_D=h_d, h_E=h_e)


def tap_esr_both(cfg, corr, n, seed, chunk=10_000):
    """{scheme: (mean, standard error)} of [log2 Γ]^+ over ``n`` tap-level
    draws, both schemes reading the same draws, drawn ``chunk`` at a time."""
    gen = np.random.default_rng(seed)
    rates = {"OS": [], "SS": []}
    for start in range(0, n, chunk):
        r = draw_channels(cfg, corr, min(chunk, n - start), gen)
        for scheme, select in (("OS", select_os), ("SS", select_ss)):
            rates[scheme].append(np.maximum(np.log2(select(r)[2]), 0.0))
    out = {}
    for scheme, parts in rates.items():
        x = np.concatenate(parts)
        out[scheme] = (x.mean(), x.std(ddof=1) / math.sqrt(n))
    return out


def tap_esr(cfg, corr, scheme, n, seed):
    """Mean and standard error of [log2 Γ]^+ over ``n`` tap-level draws."""
    return tap_esr_both(cfg, corr, n, seed, chunk=n)[scheme]


class TestSelection:
    def test_hand_example_with_tie(self):
        r = hand_realization()
        # Ratio metric ties at 2.0 for (1,1) and (2,2); lexicographic
        # tie-break must pick (1,1).
        assert [x[0] for x in select_os(r)] == [1, 1, 2.0]
        # Destination-only metric picks the SNR-9 pair.
        assert [x[0] for x in select_ss(r)] == [2, 2, 2.0]

    def test_single_pair_trivial(self):
        cfg = SystemConfig(1, 1, 2, 2, 4.0, 1.0)
        r = draw_channels(cfg, IID, 50, np.random.default_rng(5))
        k, l, ratio = select_os(r)
        for got, want in zip(select_ss(r), (k, l, ratio)):
            assert np.array_equal(got, want)
        assert np.all(k == 1) and np.all(l == 1)
        gamma_d = np.sum(np.abs(r.h_D) ** 2, axis=(1, 2, 3))
        gamma_e = np.sum(np.abs(r.h_E) ** 2, axis=(1, 2))
        assert ratio == pytest.approx((1 + gamma_d) / (1 + gamma_e), rel=1e-12)

    def test_optimal_ratio_dominates_every_draw(self):
        cfg = SystemConfig(3, 2, 2, 2, 8.0, 2.0)
        r = draw_channels(cfg, IID, 300, np.random.default_rng(42))
        assert np.all(select_os(r)[2] >= select_ss(r)[2])

    @pytest.mark.parametrize("scheme", ["OS", "SS"])
    def test_tap_level_esr_matches_the_law_sampler(self, scheme):
        # Taps through the Kronecker factor and the reference selection
        # rules against eigenvalue-weighted path powers through
        # ``_chunk_rates``: the two share no code past the configuration.
        cfg, n = SystemConfig(3, 2, 2, 2, 10.0, 2.0), 100_000
        failures = []
        for corr in (IID, CorrelationConfig(rho_D=0.9), CorrelationConfig(rho_S=0.9),
                     CorrelationConfig(0.5, 0.5, 0.5)):
            taps, taps_se = tap_esr(cfg, corr, scheme, n, 20241101)
            law = estimate_esr(cfg, corr, scheme, n, 20241101)
            z = (taps - law.mean) / math.hypot(taps_se, law.stderr)
            if abs(z) > 5.0:
                failures.append((corr, taps, law.mean, z))
        assert not failures, failures


FIG5_CFG = SystemConfig(4, 4, 4, 4, 100.0, 10.0 ** 0.9)  # fig5's shape at 20/9 dB
# fig5's transmitter-correlated (ρ_S, ρ_D, ρ_E) sets
FIG5_TX_SETS = [CorrelationConfig(0.9, 0.0, 0.0), CorrelationConfig(0.9, 0.9, 0.0),
                CorrelationConfig(0.9, 0.0, 0.9)]


class TestFig5TransmitterRows:
    def test_tap_level_esr_matches_the_recursion(self):
        # The benchmark's own sampler does not cover ρ_S > 0, so the
        # tap-level reference judges the law of fig5's transmitter rows.
        n, seed = 50_000, 20241102
        failures = []
        for corr in FIG5_TX_SETS:
            taps = tap_esr_both(FIG5_CFG, corr, n, seed)
            for scheme in ("OS", "SS"):
                law = estimate_esr(FIG5_CFG, corr, scheme, n, seed)
                z = (taps[scheme][0] - law.mean) / math.hypot(taps[scheme][1], law.stderr)
                if abs(z) > 5.0:
                    failures.append((corr, scheme, taps[scheme][0], law.mean, z))
        assert not failures, failures

    @pytest.mark.parametrize("corr", FIG5_TX_SETS, ids=["tx", "tx_path", "tx_eave"])
    def test_both_schemes_read_the_same_link_snrs(self, corr, monkeypatch):
        # fig5's zero-slack OS >= SS check relies on both rows of a point
        # reading identical draws, so the grouping never depends on the scheme.
        seen = {s: _sampled_snrs(FIG5_CFG, corr, 2000, 11, monkeypatch, s) for s in ("OS", "SS")}
        assert np.array_equal(seen["OS"], seen["SS"])


def rotation_to_axis(h):
    """A unitary U with U·h = ‖h‖·e₁: the rows are h/‖h‖ and an
    orthonormal basis of its orthogonal complement."""
    m = len(h)
    basis = np.column_stack([h, np.eye(m, dtype=complex)[:, :m - 1]])
    q = np.linalg.qr(basis)[0]
    q[:, 0] = h / np.linalg.norm(h)
    return q.conj().T


def tap_chain(rho, w):
    """Taps h_k = ρ·h_{k−1} + s·w_k over transmitters k, h_1 = w_1, for
    innovations ``w`` shaped (K, M), and the unit draws ``_link_snrs`` reads
    for them: |h_1|², the rotated innovations' (Re, Im) of the first
    coordinate, and the power of the others (None when M = 1)."""
    s = math.sqrt(1.0 - rho * rho)
    h = [w[0]]
    parts, rest = [], []
    for k in range(1, len(w)):
        u = rotation_to_axis(h[-1])
        assert np.allclose(u @ u.conj().T, np.eye(len(u)), rtol=0, atol=1e-13)
        v = u @ w[k]
        parts.append([v[0].real, v[0].imag])
        rest.append(np.sum(np.abs(v[1:]) ** 2))
        h.append(rho * h[-1] + s * w[k])
    units = (
        np.array([np.sum(np.abs(h[0]) ** 2)]),
        np.array(parts).reshape(len(w) - 1, 2, 1),
        np.array(rest)[:, None] if w.shape[1] > 1 else None,
    )
    return np.array([[np.sum(np.abs(x) ** 2)] for x in h]), units


def _recording_substream(monkeypatch):
    """Record (method, args) of every draw the Monte Carlo generators make,
    in chunk order: the chunks run on one thread."""
    calls = []
    original = simulation._substream

    class Recorder:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            fn = getattr(self._gen, name)

            def recorded(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)

            return recorded

    monkeypatch.setattr(simulation, "_substream", lambda seed, i: Recorder(original(seed, i)))
    monkeypatch.setattr(simulation, "_usable_cores", lambda: 1)
    return calls


class ScriptedDraws:
    """A generator stand-in that hands out prescribed unit draws, in order
    per method, and checks the shape each call asks for."""

    def __init__(self, **queues):
        self.queues = {name: list(arrays) for name, arrays in queues.items()}

    def _next(self, name, shape):
        value = self.queues[name].pop(0)
        assert value.shape == tuple(shape), (name, value.shape, shape)
        return value.copy()

    def standard_gamma(self, _g, shape):
        return self._next("standard_gamma", shape)

    def normal(self, _loc, _scale, shape):
        return self._next("normal", shape)


def stepped_powers(units, rho):
    """The powers S[k, ...] that ``_link_snrs`` steps from the unit draws
    (first, parts, rest), read as its SNRs with μ = (1,); groups of two
    paths when ``rest`` is given, of one otherwise.  Every draw is used."""
    first, parts, rest = units
    k_count, shape = len(parts) + 1, first.shape + (1,)
    if rest is None:
        draws = ScriptedDraws(standard_gamma=[first[..., None]],
                              normal=[p[..., None] for p in parts])
    else:
        draws = ScriptedDraws(standard_gamma=[first[..., None], rest[..., None]],
                              normal=[parts[..., None]] if k_count > 1 else [])
    got = _link_snrs(draws, k_count, shape, 1 if rest is None else 2, [(rho, np.ones(1))])[0]
    assert not any(draws.queues.values()), draws.queues
    return np.moveaxis(got, 1, 0)


def recursion_esr_at_rho_s_zero(cfg, corr, scheme, trials, seed):
    """The ESR of ``corr`` (ρ_S = 0) read through the transmitter
    recursion's draws, grouped as for ``corr`` with ρ_S = 0.9 beside it."""
    twin = CorrelationConfig(0.9, corr.rho_D, corr.rho_E)
    return _mc_mean(cfg, trials, seed, [corr, twin], lambda snrs: _chunk_rates(*snrs[0], scheme))


def z_score(a, b):
    return (a.mean - b.mean) / math.hypot(a.stderr, b.stderr)


class TestPowerRecursion:
    """``_link_snrs``' power steps against explicit complex taps, and its
    edge cases."""

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.999])
    def test_path_steps_equal_the_tap_powers(self, rho):
        for trial in range(20):
            w = np.random.default_rng(trial).standard_normal((5, 1, 2)) @ [1.0, 1j]
            want, units = tap_chain(rho, w * math.sqrt(0.5))
            got = stepped_powers(units, rho)
            assert got.shape == (5, 1)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), (got, want)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_collapsed_steps_equal_the_summed_tap_powers(self, rho, m):
        for trial in range(20):
            w = np.random.default_rng(100 * m + trial).standard_normal((4, m, 2)) @ [1.0, 1j]
            want, units = tap_chain(rho, w * math.sqrt(0.5))
            got = stepped_powers(units, rho)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), (got, want)

    def test_steps_run_elementwise_over_draws(self):
        gen = np.random.default_rng(3)
        units = (gen.exponential(size=(5, 2)), gen.normal(size=(3, 2, 5, 2)),
                 gen.gamma(2.0, size=(3, 5, 2)))
        whole = stepped_powers(units, 0.7)
        for i in range(5):
            alone = stepped_powers(tuple(u[..., i, :] for u in units), 0.7)
            assert np.array_equal(whole[:, i], alone)

    def test_single_transmitter_takes_no_step(self, monkeypatch):
        cfg = SystemConfig(1, 3, 2, 2, 10.0, 2.0)
        calls = _recording_substream(monkeypatch)
        tx = estimate_esr(cfg, CorrelationConfig(rho_S=0.9), "OS", 20_000, 31)
        assert calls and not any(name == "normal" for name, _ in calls)
        monkeypatch.undo()
        iid = estimate_esr(cfg, IID, "OS", 20_000, 32)
        assert abs(z_score(tx, iid)) <= 5.0
        first = np.array([[1.5, 0.25]])
        assert np.array_equal(stepped_powers((first, np.empty((0, 2, 1, 2)), None), 0.9), first[None])

    @pytest.mark.parametrize(
        "shape,corr",
        [((3, 2, 1, 2), CorrelationConfig(rho_S=0.9)),
         ((3, 2, 2, 1), CorrelationConfig(rho_S=0.9)),
         ((3, 2, 1, 1), CorrelationConfig(rho_S=0.9)),
         ((3, 2, 1, 2), CorrelationConfig(0.9, 0.0, 0.5))],
        ids=["md1", "me1", "both1", "me2_path"],
    )
    def test_single_path_links_draw_no_gamma_remainder(self, shape, corr, monkeypatch):
        cfg = SystemConfig(*shape, 10.0, 2.0)
        calls = _recording_substream(monkeypatch)
        estimate_esr(cfg, corr, "OS", 2000, 5)
        # Per link type, the first transmitter's Gamma(g) and, only for
        # g > 1, the innovations' Gamma(g − 1): never a Gamma(0).
        shapes = [args[0] for name, args in calls if name == "standard_gamma"]
        expected = []
        for g in _draw_groups(cfg, corr):
            expected += [g, g - 1] if g > 1 else [g]
        assert shapes == expected
        monkeypatch.undo()
        # At ρ_S = 0 the recursion's draws give the i.i.d. law.
        iid = CorrelationConfig(0.0, corr.rho_D, corr.rho_E)
        for scheme in ("OS", "SS"):
            through = recursion_esr_at_rho_s_zero(cfg, iid, scheme, 20_000, 41)
            direct = estimate_esr(cfg, iid, scheme, 20_000, 42)
            assert abs(z_score(through, direct)) <= 5.0, (scheme, through, direct)

    @pytest.mark.parametrize("corr", [IID, CorrelationConfig(rho_D=0.9, rho_E=0.5)],
                             ids=["iid", "path"])
    def test_recursion_at_rho_s_zero_matches_the_exponential_path(self, corr):
        cfg = SystemConfig(3, 2, 3, 2, 10.0, 2.0)
        for scheme in ("OS", "SS"):
            through = recursion_esr_at_rho_s_zero(cfg, corr, scheme, 50_000, 43)
            direct = estimate_esr(cfg, corr, scheme, 50_000, 44)
            assert abs(z_score(through, direct)) <= 5.0, (scheme, through, direct)


class TestChunkRates:
    def test_hand_example_reads_the_selected_transmitters_eavesdropper(self):
        # K = 3 ≠ L = 2 and 1 + γ_E = 1, 2, 4 per transmitter, so reading
        # γ_E at flat // K, flat % K or flat % L instead of flat // L would
        # change the SS rate of draw 0.
        gd = np.array([
            [[1.0, 3.0], [0.0, 5.0], [7.0, 3.0]],  # OS: 4 at (1, 2); SS: 7 at (3, 1)
            [[0.5, 0.0], [1.0, 0.0], [0.0, 0.0]],  # every ratio below 1
        ])
        ge = np.array([[0.0, 1.0, 3.0], [3.0, 7.0, 1.0]])
        assert _chunk_rates(gd, ge, "OS").tolist() == [2.0, 0.0]  # log2(4/1)
        assert _chunk_rates(gd, ge, "SS").tolist() == [1.0, 0.0]  # log2(8/4)


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
        with pytest.raises(DomainError, match="seed='x'"):
            estimate_esr(SystemConfig(1, 1, 1, 1, 1.0, 1.0), IID, "OS", 1000, "x")
        with pytest.raises(DomainError, match="seed=True"):
            estimate_esr(SystemConfig(1, 1, 1, 1, 1.0, 1.0), IID, "OS", 1000, True)

    def test_non_integer_trials_is_a_domain_error(self):
        cfg = SystemConfig(2, 1, 1, 1, 1.0, 1.0)
        with pytest.raises(DomainError, match="trials=1000.5"):
            estimate_esr(cfg, IID, "OS", 1000.5, 1)
        with pytest.raises(DomainError, match="trials=1000.5"):
            paired_esr_difference(cfg, IID, CorrelationConfig(rho_S=0.5), "OS", 1000.5, 1)
        with pytest.raises(DomainError, match="trials=True"):
            estimate_esr(cfg, IID, "OS", True, 1)

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


def _sampled_snrs(cfg, corr, trials, seed, monkeypatch, scheme="OS"):
    """The link SNRs ``estimate_esr`` draws, one row per draw: γ_D[k, l]
    at column k·L + l, then γ_E[k], in chunk order: the chunks run on one
    thread."""
    rows = []

    def keep(gd, ge, scheme):
        rows.append(np.concatenate([gd.reshape(len(gd), -1), ge], axis=1))
        return np.zeros(len(gd))

    with monkeypatch.context() as patch:
        patch.setattr("esrsel.simulation._chunk_rates", keep)
        patch.setattr("esrsel.simulation._usable_cores", lambda: 1)
        estimate_esr(cfg, corr, scheme, trials, seed)
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
        [CorrelationConfig(rho_D=0.9, rho_E=0.5), CorrelationConfig(rho_S=0.9),
         CorrelationConfig(rho_E=0.9), CorrelationConfig(0.9, 0.0, 0.9)],
        ids=["path", "tx", "eave", "tx_eave"],
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
        # Either side's transmitter correlation makes both sides read the
        # transmitter recursion's draws; the effect then resolves in both
        # orders.
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        corr = CorrelationConfig(rho_S=0.9)
        d_ab = paired_esr_difference(cfg, IID, corr, "OS", 20000, 7)
        d_ba = paired_esr_difference(cfg, corr, IID, "OS", 20000, 7)
        assert d_ab.mean > 5.0 * d_ab.stderr  # transmitter correlation costs OS
        assert d_ab.mean == -d_ba.mean

    # Alone, TX would collapse both link types and TX_PATH only the
    # eavesdropper's; paired, only the eavesdropper's paths collapse.
    TX, TX_PATH = CorrelationConfig(rho_S=0.9), CorrelationConfig(0.5, 0.9, 0.0)

    def test_mixed_collapse_groups_only_what_both_sides_share(self):
        cfg = SystemConfig(3, 2, 3, 2, 10.0, 2.0)
        assert _draw_groups(cfg, self.TX) == (3, 2)
        assert _draw_groups(cfg, self.TX_PATH) == (1, 2)
        assert _draw_groups(cfg, self.TX, self.TX_PATH) == (1, 2)
        assert _draw_groups(cfg, IID, CorrelationConfig(rho_D=0.9)) is None

    def test_mixed_collapse_is_antisymmetric_under_swap(self):
        cfg = SystemConfig(3, 2, 3, 2, 10.0, 2.0)
        for scheme in ("OS", "SS"):
            d_ab = paired_esr_difference(cfg, self.TX, self.TX_PATH, scheme, 20000, 13)
            d_ba = paired_esr_difference(cfg, self.TX_PATH, self.TX, scheme, 20000, 13)
            assert d_ab.mean == -d_ba.mean
            assert d_ab.stderr == d_ba.stderr
            assert d_ab.stderr > 0.0

    @pytest.mark.parametrize("side", ["TX", "TX_PATH"])
    def test_mixed_collapse_identical_sides_give_exactly_zero(self, side):
        cfg = SystemConfig(3, 2, 3, 2, 10.0, 2.0)
        corr = getattr(self, side)
        d = paired_esr_difference(cfg, corr, corr, "OS", 2000, 13)
        assert d.mean == 0.0
        assert d.stderr == 0.0

    def test_mixed_collapse_matches_independent_estimates(self):
        # TX read through per-path groups keeps its law: the paired gap
        # agrees with the gap of two independent (collapsed) estimates.
        cfg = SystemConfig(3, 2, 3, 2, 10.0, 2.0)
        for scheme in ("OS", "SS"):
            d = paired_esr_difference(cfg, self.TX, self.TX_PATH, scheme, 50000, 17)
            a = estimate_esr(cfg, self.TX, scheme, 50000, 18)
            b = estimate_esr(cfg, self.TX_PATH, scheme, 50000, 19)
            se = math.sqrt(d.stderr**2 + a.stderr**2 + b.stderr**2)
            assert abs(d.mean - (a.mean - b.mean)) <= 5.0 * se, (scheme, d, a, b)

    def test_path_correlation_effect_resolves_sharply(self):
        # Common random numbers lift a ~0.07 bpcu effect far above noise at
        # trial counts where independent runs would drown it.
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        d = paired_esr_difference(cfg, IID, CorrelationConfig(rho_D=0.9), "OS", 50000, 7)
        assert d.mean < 0.0  # path correlation raises the ESR here
        assert abs(d.mean) > 5.0 * d.stderr


class TestDrawPlan:
    """``_mc_mean`` makes one draw plan for all the configs it is given: a
    config's per-draw values follow from the seed, the trials, its own law
    and the grouping, never from the configs beside it."""

    CFG = SystemConfig(3, 2, 3, 2, 10.0, 2.0)

    @pytest.fixture(autouse=True)
    def one_thread(self, monkeypatch):
        monkeypatch.setattr(simulation, "_usable_cores", lambda: 1)

    def first_values(self, corrs):
        """The per-draw OS rates of ``corrs[0]`` over two chunks, in order."""
        kept = []

        def keep(snrs):
            kept.append(_chunk_rates(*snrs[0], "OS"))
            return kept[-1]

        _mc_mean(self.CFG, 3 * CHUNK_SIZE // 2, 23, corrs, keep)
        return np.concatenate(kept)

    @pytest.mark.parametrize(
        "first,second,swap",
        [(IID, CorrelationConfig(rho_D=0.9), CorrelationConfig(rho_E=0.5)),
         (CorrelationConfig(rho_S=0.9), IID, CorrelationConfig(rho_S=0.5)),
         (CorrelationConfig(0.5, 0.9, 0.0), CorrelationConfig(rho_S=0.9),
          CorrelationConfig(0.9, 0.5, 0.0))],
        ids=["exponential", "collapsed", "mixed"],
    )
    def test_swapping_the_second_config_keeps_the_first_bit_identical(self, first, second, swap):
        groups = _draw_groups(self.CFG, first)
        assert _draw_groups(self.CFG, first, second) == _draw_groups(self.CFG, first, swap) == groups
        alone = self.first_values([first])
        assert np.array_equal(self.first_values([first, second]), alone)
        assert np.array_equal(self.first_values([first, swap]), alone)

    def test_a_second_config_that_regroups_the_draws_changes_the_first(self):
        tx, tx_path = CorrelationConfig(rho_S=0.9), CorrelationConfig(0.9, 0.9, 0.0)
        assert _draw_groups(self.CFG, tx) != _draw_groups(self.CFG, tx, tx_path)
        assert not np.array_equal(self.first_values([tx]), self.first_values([tx, tx_path]))


# fig5's six (ρ_S, ρ_D, ρ_E) sets: i.i.d., path-only, transmitter-correlated
FIG5_SETS = [IID, CorrelationConfig(rho_D=0.9), CorrelationConfig(rho_E=0.9)] + FIG5_TX_SETS


def with_cores(monkeypatch, cores, fn, *args):
    """``fn(*args)`` with ``cores`` usable cores, so up to that many chunk threads."""
    monkeypatch.setattr(simulation, "_usable_cores", lambda: cores)
    return fn(*args)


class TestChunkThreads:
    """Chunks run on a thread pool and each is drawn one transmitter at a
    time; neither may change an estimate."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        pool = simulation.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", recording)
        return sizes

    @pytest.mark.parametrize(
        "cfg",
        [FIG5_CFG, SystemConfig(1, 4, 4, 4, 100.0, FIG5_CFG.lambda_E),
         SystemConfig(4, 4, 1, 1, 100.0, FIG5_CFG.lambda_E)],
        ids=["fig5", "k1", "m1"],
    )
    def test_estimates_do_not_depend_on_the_thread_count(self, cfg, pool_sizes, monkeypatch):
        # 40 000 trials are three chunks, the last one short.
        calls = 0
        for corr, scheme in itertools.product(FIG5_SETS, ("OS", "SS")):
            runs = [(estimate_esr, cfg, corr, scheme, 40_000, 23)]
            if corr != IID:
                runs.append((paired_esr_difference, cfg, IID, corr, scheme, 40_000, 29))
            for fn, *args in runs:
                one = with_cores(monkeypatch, 1, fn, *args)
                three = with_cores(monkeypatch, 3, fn, *args)
                assert one == three, (fn.__name__, corr, scheme, one, three)
                calls += 1
        assert pool_sizes == [3] * calls

    # estimate_esr(FIG5_CFG, corr, scheme, 40_000, 23).mean per FIG5_SETS
    # entry, (OS, SS), as drawing every transmitter of a chunk at once gave
    # it.  Reading a chunk's stream in any other order moves these by about
    # a standard error (~3·10⁻³); 10⁻¹² leaves room for the last bits of
    # the platform's log2 only.
    STREAM_PINS = [
        (5.238556440698719, 4.791978123603217),
        (5.651984962053804, 5.330159705691165),
        (6.0122299604013545, 5.099379628023355),
        (4.847613624161086, 4.6185424675175435),
        (5.182770739860822, 5.016124411515622),
        (5.443922248416214, 4.930592847848517),
    ]

    def test_per_transmitter_draws_give_the_whole_chunk_values(self, monkeypatch):
        for corr, pins in zip(FIG5_SETS, self.STREAM_PINS):
            for scheme, want in zip(("OS", "SS"), pins):
                got = with_cores(monkeypatch, 2, estimate_esr, FIG5_CFG, corr, scheme, 40_000, 23)
                assert abs(got.mean - want) <= 1e-12 * want, (corr, scheme, got, want)

    @pytest.mark.parametrize("cores,sharers,want", [(4, 2, [2]), (5, 2, [2]), (3, 2, []), (1, 2, [])])
    def test_a_pool_worker_takes_its_share_of_the_cores(self, pool_sizes, monkeypatch, cores, sharers, want):
        # A worker of a pool of ``sharers`` processes starts at most
        # cores // sharers chunk threads, and no pool for fewer than two.
        alone = with_cores(monkeypatch, cores, estimate_esr, FIG5_CFG, FIG5_TX_SETS[1], "OS", 40_000, 5)
        monkeypatch.setattr(simulation, "_core_sharers", 1)
        simulation._share_cores(sharers)
        del pool_sizes[:]
        shared = with_cores(monkeypatch, cores, estimate_esr, FIG5_CFG, FIG5_TX_SETS[1], "OS", 40_000, 5)
        assert pool_sizes == want
        assert shared == alone

    def test_single_chunk_runs_inline(self, pool_sizes, monkeypatch):
        with_cores(monkeypatch, 3, estimate_esr, FIG5_CFG, FIG5_TX_SETS[1], "OS", CHUNK_SIZE, 5)
        assert pool_sizes == []

    def test_slab_draws_continue_the_whole_array_stream(self):
        # The per-transmitter draws rest on this: a C-order fill from one
        # Philox key is its leading-axis slabs filled one after another.
        k, n, l, m = 4, 1000, 3, 2
        whole, slabs = _substream(7, 3), _substream(7, 3)
        assert np.array_equal(whole.standard_exponential((k, n, l, m)),
                              [slabs.standard_exponential((n, l, m)) for _ in range(k)])
        assert np.array_equal(whole.standard_gamma(3, (n, l, 1)), slabs.standard_gamma(3, (n, l, 1)))
        sd = math.sqrt(0.5)
        assert np.array_equal(whole.normal(0.0, sd, (k - 1, 2, n, l, m)),
                              [slabs.normal(0.0, sd, (2, n, l, m)) for _ in range(k - 1)])
        # An empty draw takes nothing from the stream, so K = 1 may skip it.
        whole.normal(0.0, sd, (0, 2, n, l, m))
        whole.standard_gamma(2, (0, n, l, 1))
        assert np.array_equal(whole.standard_exponential(64), slabs.standard_exponential(64))

    # tracemalloc peak of this chunk when every unit draw of the chunk was
    # held at once, with a (K, n, L, M) power array: 39.25 MiB with numpy
    # 2.4.6.  Transmitter by transmitter it is 10.0 MiB.  Drawing the K − 1
    # innovation slabs whole again would add about 8 MiB and still pass half
    # of the whole-chunk peak, so the bound is 30% of it.
    WHOLE_CHUNK_PEAK_MIB = 39.25

    def test_one_chunk_holds_one_transmitter_of_draws(self, monkeypatch):
        monkeypatch.setattr(simulation, "_usable_cores", lambda: 1)
        tracemalloc.start()
        try:
            estimate_esr(FIG5_CFG, FIG5_TX_SETS[1], "OS", CHUNK_SIZE, 20241201)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * self.WHOLE_CHUNK_PEAK_MIB, peak


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
        assert not hasattr(r, "stderr")

    def test_tightening_error_budget_moves_nothing(self):
        cfg = SystemConfig(2, 1, 2, 2, 10.0, 2.0)
        base = quadrature_esr(cfg, "OS").value
        tight = quadrature_esr(cfg, "OS", epsabs=5e-13, epsrel=5e-10).value
        assert abs(base - tight) < 1e-8

    BAD_TOLERANCES = (math.nan, math.inf, -math.inf, -1.0, "1e-9", True, False)

    @pytest.mark.parametrize(
        "epsabs,epsrel",
        [(t, 1e-9) for t in BAD_TOLERANCES] + [(1e-12, t) for t in BAD_TOLERANCES] + [(0.0, 0.0)],
    )
    def test_unmeetable_tolerances_rejected(self, epsabs, epsrel):
        # QUADPACK's qagse refuses the same inputs (ier = 6).
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        with pytest.raises(DomainError, match="tolerances"):
            quadrature_esr(cfg, "OS", epsabs=epsabs, epsrel=epsrel)

    def test_one_zero_tolerance_accepted(self):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        assert rel_err(quadrature_esr(cfg, "OS", epsabs=0.0).value, X2) < 1e-9

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

    @pytest.mark.parametrize(
        "shape,scheme,lam_e",
        [((1, 1, 1, 1), "OS", 1e-30), ((2, 2, 2, 2), "SS", 1e-30), ((2, 2, 2, 2), "SS", 10.0 ** -17.3)],
        ids=["os-300dB", "ss-300dB", "ss-173dB"],
    )
    def test_unresolvable_eavesdropper_range_raises(self, shape, scheme, lam_e):
        # At -300 dB, x(1 + y_max) - 1 rounds to x - 1 and the oracle used to
        # return 0 with 0 evaluations (the closed forms give 2.9065 and
        # 5.0715); at -173 dB the range spans a few float steps and it
        # returned about 10^-27.
        with pytest.raises(OracleFailureError, match="too narrow"):
            quadrature_esr(SystemConfig(*shape, 10.0, lam_e), scheme)

    def test_small_eavesdropper_snr_still_resolves(self):
        # -90 dB is inside the range the exact form resolves.
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1e-9)
        assert rel_err(quadrature_esr(cfg, "OS").value, esr_os_exact(cfg).value) < 1e-8

    @pytest.mark.parametrize("lam_d_db", [-40, -60])
    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 2, 2)], ids=["1111", "2222"])
    @pytest.mark.parametrize("scheme", ["OS", "SS"])
    def test_value_within_epsabs_raises(self, scheme, shape, lam_d_db):
        # The closed forms give 1.4e-8 to 1.7e-17 here.  The outer value
        # came back at or below epsabs = 1e-12 (2e-16 at (1,1,1,1) and -40 dB,
        # 0 at -60 dB), which the tolerance cannot resolve: a wrong value
        # the oracle used to return.
        with pytest.raises(OracleFailureError, match="epsabs"):
            quadrature_esr(SystemConfig(*shape, 10.0 ** (lam_d_db / 10), 1.0), scheme)


def _k21_once(f, a, b):
    """The single-panel K21 value: a panel limit of one stops all bisection."""
    value, _err, _ok, evals = _gk21(f, np.array([a]), np.array([b]), 0.0, 0.0, 1)
    assert evals == 21
    return value[0]


class TestGaussKronrod:
    def test_k21_is_exact_on_degree_31(self):
        coef = np.random.default_rng(31).standard_normal(32)
        poly = np.polynomial.Polynomial(coef)
        want = poly.integ()(2.0) - poly.integ()(-1.0)
        got = _k21_once(lambda _o, u: poly(u), -1.0, 2.0)
        scale = np.polynomial.Polynomial(np.abs(coef)).integ()(2.0) * 3.0
        assert abs(got - want) <= 1e-15 * scale
        assert abs(_k21_once(lambda _o, u: u**31, 0.0, 1.0) - 1.0 / 32.0) <= 1e-16

    def test_g10_is_exact_on_degree_19_only(self):
        # The embedded Gauss weights: exact through x^19, not at x^20.
        for p, exact in ((19, True), (18, True), (20, False)):
            got = float((_X21**p * _G21).sum())
            want = 0.0 if p % 2 else 2.0 / (p + 1)
            assert (abs(got - want) <= 1e-15) == exact, p
        assert abs(float(_W21.sum()) - 2.0) <= 4e-16

    def test_batch_matches_each_integral_alone_bit_for_bit(self):
        # Integrands of different difficulty need different numbers of
        # rounds; batching them must not change any value, error or count.
        rate = np.array([0.5, 40.0, 3.0, 400.0, 7.0])
        a = np.array([0.0, 0.0, -1.0, 0.0, 1e-3])
        b = np.array([1.0, 3.0, 2.0, 1.0, 50.0])

        def f(owner, u):
            r = rate[owner][:, None]
            return np.exp(-r * u) * np.cos(3.0 * u) + 1.0 / (1.0 + r * u * u)

        together = _gk21(f, a, b, 1e-14, 1e-12, 300)
        evals = 0
        for i in range(len(a)):
            alone = _gk21(lambda o, u: f(o + i, u), a[i:i + 1], b[i:i + 1], 1e-14, 1e-12, 300)
            for got, want in zip(together[:3], alone[:3]):
                assert got[i] == want[0]
            evals += alone[3]
        assert together[3] == evals
        assert together[2].all()
        # Owner 0 in closed form: ∫_0^1 e^{-u/2} cos 3u du + ∫_0^1 du/(1 + u²/2).
        e = math.exp(-0.5)
        exact = (0.5 + e * (3.0 * math.sin(3.0) - 0.5 * math.cos(3.0))) / 9.25
        exact += math.atan(math.sqrt(0.5)) / math.sqrt(0.5)
        assert abs(together[0][0] - exact) <= 1e-13

    def test_divergent_integrand_hits_the_panel_limit(self):
        value, err, ok, evals = _gk21(
            lambda _o, u: 1.0 / u, np.array([0.0]), np.array([1.0]), 1e-12, 1e-9, 300
        )
        assert not ok[0]
        assert err[0] > 1e-6 * value[0]
        assert evals <= 21 * (2 * 300 - 1)

    @pytest.mark.parametrize("level,limit", [("inner", 300), ("outer", 400)])
    def test_divergent_integrand_makes_the_oracle_raise(self, monkeypatch, level, limit):
        def with_divergence(f, a, b, epsabs, epsrel, lim):
            if lim == limit:
                f = lambda owner, u: 1.0 / (u - a[owner][:, None])  # noqa: E731
            return _gk21(f, a, b, epsabs, epsrel, lim)

        monkeypatch.setattr(simulation, "_gk21", with_divergence)
        with pytest.raises(OracleFailureError, match=level):
            quadrature_esr(SystemConfig(1, 1, 1, 1, 10.0, 1.0), "OS")

    @pytest.mark.parametrize("ratio_form", [False, True], ids=["exact", "ratio"])
    def test_no_runtime_warning_at_high_snr(self, ratio_form):
        cfg = SystemConfig(2, 3, 2, 1, 1e8, 1e4 * LAMBDA_9DB)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _quadrature(cfg, "OS", ratio_form, 1e-12, 1e-9).value > 0.0


LAMBDA_9DB = 10.0 ** 0.9
_SHAPES = list(itertools.product((1, 2, 3), repeat=4))
# About forty points spread over C1's exact-form grid at λ_D = 20 dB, the
# high-SNR oracle grid's ratio form, the 40/9 dB point in both forms and
# (4,4,4,4) with its SS reduction: (K, L, M_D, M_E, λ_D, λ_E, ratio form).
_REFERENCE_POINTS = (
    [(*sh, 100.0, (1.0, LAMBDA_9DB)[i % 2], False) for i, sh in enumerate(_SHAPES[::8])]
    + [(*sh, 100.0, (1.0, LAMBDA_9DB)[i % 2], True) for i, sh in enumerate(_SHAPES[3::8])]
    + [(*sh, 1e4, LAMBDA_9DB, i % 2 == 1) for i, sh in enumerate(_SHAPES[5::8])]
    + [(k, l, 4, 4, lam_d, LAMBDA_9DB, ratio)
       for k, l in ((4, 4), (1, 16)) for lam_d in (10.0, 100.0) for ratio in (False, True)]
)
# The `validate --grid small` integrals: OS(K, L) and, for SS, OS(1, K·L).
_VALIDATE_SMALL = sorted({
    (k_eff, l_eff, m_d, m_e, lam_d, lam_e, False)
    for k, l, m_d, m_e in itertools.product((1, 2), repeat=4)
    for k_eff, l_eff in ((k, l), (1, k * l))
    for lam_d in (1.0, 10.0)
    for lam_e in (1.0, LAMBDA_9DB)
})


def _both(point):
    cfg, ratio = SystemConfig(*point[:6]), point[6]
    return (
        _quadrature(cfg, "OS", ratio, 1e-12, 1e-9),
        quadpack_quadrature(cfg, "OS", ratio, 1e-12, 1e-9),
    )


class TestAgainstQuadpackReference:
    """The batched G10/K21 oracle against the nested-QUADPACK one it
    replaced, which uses the same rule, error estimate and tolerances."""

    def test_values_match_to_rounding(self):
        worst = max(
            abs(new.value - ref.value) / ref.value
            for new, ref in map(_both, _REFERENCE_POINTS)
        )
        assert worst <= 2e-15, worst

    def test_validate_small_grid_same_values_and_evaluation_counts(self):
        for point in _VALIDATE_SMALL:
            new, ref = _both(point)
            assert abs(new.value - ref.value) <= 2e-15 * ref.value, point
            assert new.term_count == ref.term_count, point

    @pytest.mark.parametrize("shape", [(2, 3, 2, 1), (1, 3, 2, 1)])
    def test_high_snr_points_within_the_outer_tolerance(self, shape):
        # At 80/49 dB the two refinement orders stop on different panel
        # sets; both values then sit within the outer epsrel of each other.
        new, ref = _both((*shape, 1e8, 1e4 * LAMBDA_9DB, False))
        assert abs(new.value - ref.value) <= 1e-9 * ref.value


_SURVIVAL_SHAPES = (1, 2, 3, 4, 8, 40, 100, 560, 600, 1000)


def _clip_t(m):
    """The largest destination argument the oracle evaluates at shape m."""
    return float(sp.gammainccinv(m, 1e-20))


class TestDestinationSurvival:
    """Q(M_D, t) as the oracle's inner integrand evaluates it: the Erlang sum
    where e^{±t} stay normal floats, scipy's gammaincc beyond."""

    @pytest.mark.parametrize("m", _SURVIVAL_SHAPES)
    def test_matches_gammaincc_up_to_the_clip(self, m):
        # gammaincc's own error grows with the shape (about 2000 ulps at
        # M = 470 against mpmath), so the bound is 2e-14 + 2e-15·M relative.
        t_max = _clip_t(m)
        t = np.concatenate([[0.0], np.geomspace(1e-300, t_max, 4001)])
        got, want = _survival(m, t_max)(t), sp.gammaincc(m, t)
        assert np.isfinite(got).all()
        assert (np.abs(got - want) <= (2e-14 + 2e-15 * m) * want).all()
        assert got[-1] > 0.0
        if t_max > _ERLANG_T_MAX:
            assert (got == want).all()

    @pytest.mark.parametrize("m", [1, 3, 40, 100, 470])
    def test_erlang_sum_is_within_64_ulps_of_mpmath(self, m):
        t = np.linspace(0.0, min(_clip_t(m), _ERLANG_T_MAX), 41)
        got = _erlang_sf(m, t)
        with mp.workdps(40):
            want = np.array([float(mp.gammainc(m, mp.mpf(x), mp.inf, regularized=True)) for x in t])
        assert (np.abs(got - want) <= 64 * np.finfo(float).eps * want).all()

    def test_first_fallback_shape_is_471(self):
        # M_D = 471 is the first shape whose clip passes t = 700.
        assert _clip_t(470) <= _ERLANG_T_MAX < _clip_t(471)

    @pytest.mark.parametrize("m_d", [600, 1000])
    def test_large_shapes_give_finite_values(self, m_d):
        r = quadrature_esr(SystemConfig(1, 1, m_d, 1, 10.0, 1.0), "OS")
        assert math.isfinite(r.value) and r.value > 0.0

    @pytest.mark.parametrize("m_d", [3, 470])
    def test_same_counts_and_values_as_gammaincc(self, m_d, monkeypatch):
        cfg = SystemConfig(2, 2, m_d, 2, 10.0, 1.0)
        erlang = quadrature_esr(cfg, "OS")
        monkeypatch.setattr(simulation, "_ERLANG_T_MAX", -1.0)
        scipy_sf = quadrature_esr(cfg, "OS")
        assert erlang.term_count == scipy_sf.term_count
        assert abs(erlang.value - scipy_sf.value) <= 5e-16 * scipy_sf.value

    def test_validate_small_grid_never_calls_gammaincc(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("gammaincc called")

        monkeypatch.setattr(sp, "gammaincc", refuse)
        for point in _VALIDATE_SMALL:
            assert _quadrature(SystemConfig(*point[:6]), "OS", False, 1e-12, 1e-9).value > 0.0
