"""Tests for the closed-form ergodic-secrecy-rate engine.

X1/X2/X3 and the other frozen constants are adaptive-quadrature oracle
values committed before the closed forms were implemented; the naive
per-term reference evaluator below re-derives the optimal-selection sum
directly from the enumerated index set, with none of the engine's grouped
recombination, and pins the term bookkeeping end to end.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

import esrsel
from esrsel import esr_engine
from esrsel.channel_model import SystemConfig
from esrsel.errors import CancellationError, ComplexityBudgetError, DomainError
from esrsel.esr_engine import (
    _as_single_transmitter,
    _dps,
    _terms,
    _v_tables,
    _with_retry,
    asymptote_line,
    esr_asymptotic,
    esr_os_exact,
    esr_os_highsnr,
    esr_ss_exact,
    esr_ss_highsnr,
)
from esrsel.partial_fractions import _MAX_DPS, pf_selection, required_dps
from esrsel.simulation import _quadrature_esr_ratio_form, quadrature_esr
from asymptote_reference import asymptote_offset
from pole_set_reference import _exact_kernels, _pole_groups, member_terms, terms_per_pole_set, tuple_poles, xi

# Quadrature-oracle values (frozen first).
X1 = 2.1004124800191777  # (K,L,M_D,M_E,λ_D,λ_E) = (1,1,1,1,10,1), either scheme
X2 = 3.7591737775057363  # (2,2,2,2,10,1) optimal selection
X3 = 3.6288199876344542  # (2,2,2,2,10,1) destination-only selection
SD_ORACLE = 4.562481341311855  # (2,1,3,1,31.6,7.94) optimal selection
# High-SNR minus exact at two high-λ_D operating points (these gaps converge
# to a positive constant, not to zero: the ratio approximation keeps a
# log2(1 + 1/γ_E)-sized excess for any λ_D).
HS_GAP_A = 0.12455504238946968  # (3,1,3,3,1000,7.94)
HS_GAP_B = 0.11163172980765523  # (2,2,3,3,1000·7.943282347242816,7.943282347242816)

LAMBDA_9DB = 10.0 ** 0.9


def rel_err(got, want):
    return abs(got - want) / abs(want)


def naive_os_exact(cfg):
    """Reference evaluator: walk every index tuple, take its coefficient from
    first principles and its tail integral from one per-tuple kernel, each at
    its own working precision; no grouping, no shared tables."""
    lam_D, lam_E = cfg.lambda_D, cfg.lambda_E
    with mp.workdps(40):
        members = [(l, key, coef) for l in range(1, cfg.L + 1) for key, coef in member_terms(cfg, l)]
    total = []
    for k in range(1, cfg.K + 1):
        sign = (-1) ** (k + 1) * math.comb(cfg.K, k)
        for combo in itertools.product(members, repeat=k):
            poles = tuple_poles([l for l, _, _ in combo], [n for _, (n, _), _ in combo], cfg.M_E, lam_D, lam_E)
            beta = sum(l for l, _, _ in combo) / lam_D
            nu = sum(d for _, (_, d), _ in combo)  # m̃ − ũ; ν = 0 carries the origin pole
            with mp.workdps(required_dps(poles, zs=[beta * (1 + c) for c, _ in poles], nu_max=nu)):
                mp_poles = [(mp.mpf(c), T) for c, T in poles]
                j_val, _ = _exact_kernels(mp.mpf(beta), [c for c, _ in mp_poles])(mp_poles)(nu)
                total.append(float(sign * mp.fprod(coef for _, _, coef in combo) * j_val))
    return math.fsum(total) / math.log(2.0)


class TestExactValues:
    def test_baseline_point_matches_oracle(self):
        cfg = SystemConfig(1, 1, 1, 1, 10.0, 1.0)
        assert rel_err(esr_os_exact(cfg).value, X1) < 1e-6
        assert rel_err(esr_ss_exact(cfg).value, X1) < 1e-6

    def test_two_by_two_point_matches_oracle(self):
        cfg = SystemConfig(2, 2, 2, 2, 10.0, 1.0)
        os_val = esr_os_exact(cfg).value
        ss_val = esr_ss_exact(cfg).value
        assert rel_err(os_val, X2) < 1e-6
        assert rel_err(ss_val, X3) < 1e-6
        assert ss_val <= os_val

    @pytest.mark.parametrize(
        "k,L,m_d,m_e,lam_d,lam_e",
        [
            (1, 1, 1, 1, 10.0, 1.0),
            (1, 2, 2, 2, 10.0, 1.0),
            (2, 1, 2, 1, 5.0, 2.0),
            (2, 2, 2, 2, 10.0, 1.0),
            (2, 2, 1, 2, 3.0, 7.94),
        ],
    )
    def test_matches_naive_per_term_reference(self, k, L, m_d, m_e, lam_d, lam_e):
        cfg = SystemConfig(k, L, m_d, m_e, lam_d, lam_e)
        assert rel_err(esr_os_exact(cfg).value, naive_os_exact(cfg)) < 1e-11

    def test_single_destination_point_matches_oracle(self):
        cfg = SystemConfig(2, 1, 3, 1, 31.6, 7.94)
        assert rel_err(esr_os_exact(cfg).value, SD_ORACLE) < 1e-6

    def test_result_metadata(self):
        r = esr_os_exact(SystemConfig(2, 2, 2, 2, 10.0, 1.0))
        assert r.method == "exact"
        assert r.scheme == "OS"
        assert r.value >= 0.0
        assert r.term_count > 0
        assert math.isfinite(r.max_log_term)
        assert not hasattr(r, "stderr")

    def test_deterministic_across_calls(self):
        cfg = SystemConfig(3, 2, 2, 2, 12.0, 3.0)
        assert esr_os_exact(cfg).value == esr_os_exact(cfg).value
        assert esr_ss_exact(cfg).value == esr_ss_exact(cfg).value


class TestSchemeRelations:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_single_transmitter_schemes_coincide(self, L):
        cfg = SystemConfig(1, L, 2, 2, 10.0, 1.0)
        os_val = esr_os_exact(cfg).value
        ss_val = esr_ss_exact(cfg).value
        assert rel_err(os_val, ss_val) < 1e-12

    def test_destination_only_value_depends_on_product_kl(self):
        a = esr_ss_exact(SystemConfig(3, 1, 2, 2, 15.0, 2.0)).value
        b = esr_ss_exact(SystemConfig(1, 3, 2, 2, 15.0, 2.0)).value
        c = esr_ss_exact(SystemConfig(3, 2, 2, 2, 15.0, 2.0)).value
        d = esr_ss_exact(SystemConfig(2, 3, 2, 2, 15.0, 2.0)).value
        assert rel_err(a, b) < 1e-12
        assert rel_err(c, d) < 1e-12

    def test_optimal_beats_destination_only_with_real_choice(self):
        cfg_os = SystemConfig(3, 1, 3, 3, 100.0, LAMBDA_9DB)
        cfg_ss = SystemConfig(3, 1, 3, 3, 100.0, LAMBDA_9DB)
        assert esr_os_exact(cfg_os).value > esr_ss_exact(cfg_ss).value + 1e-6

    def test_monotone_in_destination_snr(self):
        vals = [
            esr_os_exact(SystemConfig(2, 2, 2, 2, lam, 1.0)).value
            for lam in (2.0, 8.0, 32.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_eavesdropper_snr(self):
        vals = [
            esr_os_exact(SystemConfig(2, 2, 2, 2, 10.0, lam)).value
            for lam in (0.5, 2.0, 8.0)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestHighSnr:
    def test_upper_bounds_exact_at_equal_snr(self):
        cfg = SystemConfig(1, 1, 1, 1, 3.0, 3.0)
        hs = esr_os_highsnr(cfg).value
        exact = esr_os_exact(cfg).value
        # With one path each and equal average SNRs the ratio approximation
        # integrates to exactly 1 bpcu.
        assert rel_err(hs, 1.0) < 1e-12
        assert hs >= exact

    def test_gap_converges_to_constant_single_destination(self):
        cfg = SystemConfig(3, 1, 3, 3, 1000.0, 7.94)
        gap = esr_os_highsnr(cfg).value - esr_os_exact(cfg).value
        assert gap > 0.0
        assert rel_err(gap, HS_GAP_A) < 1e-9

    def test_gap_converges_to_constant_general(self):
        lam_e = LAMBDA_9DB
        cfg = SystemConfig(2, 2, 3, 3, 1000.0 * lam_e, lam_e)
        gap = esr_os_highsnr(cfg).value - esr_os_exact(cfg).value
        assert gap > 0.0
        assert rel_err(gap, HS_GAP_B) < 1e-9

    @pytest.mark.parametrize(
        "k,L,m_d,m_e,lam_d,lam_e",
        [
            (2, 2, 2, 2, 10.0, 1.0),
            (3, 1, 3, 3, 100.0, LAMBDA_9DB),
            (1, 2, 1, 2, 2.0, 4.0),
        ],
    )
    def test_dominates_exact(self, k, L, m_d, m_e, lam_d, lam_e):
        cfg = SystemConfig(k, L, m_d, m_e, lam_d, lam_e)
        assert esr_os_highsnr(cfg).value >= esr_os_exact(cfg).value - 1e-9
        assert esr_ss_highsnr(cfg).value >= esr_ss_exact(cfg).value - 1e-9

    def test_numeric_slope_is_unity_at_large_ratio(self):
        for scheme, fn, shape in [
            ("OS", esr_os_highsnr, (3, 1, 2, 2)),
            ("SS", esr_ss_highsnr, (2, 2, 2, 2)),
        ]:
            k, L, m_d, m_e = shape
            lo = fn(SystemConfig(k, L, m_d, m_e, 1e6, 1.0)).value
            hi = fn(SystemConfig(k, L, m_d, m_e, 2e6, 1.0)).value
            assert abs((hi - lo) - 1.0) < 0.01, scheme


class TestAsymptotic:
    @pytest.mark.parametrize("scheme", ["OS", "SS"])
    def test_approaches_highsnr_at_large_ratio(self, scheme):
        cfg = SystemConfig(2, 1, 2, 2, 1e6, 1.0)
        hs = (esr_os_highsnr if scheme == "OS" else esr_ss_highsnr)(cfg).value
        asym = esr_asymptotic(cfg, scheme).value
        assert abs(hs - asym) < 1e-3

    def test_balanced_single_pair_equals_snr_ratio_log(self):
        cfg = SystemConfig(1, 1, 3, 3, 1e6 * 2.0, 2.0)
        got = esr_asymptotic(cfg, "OS").value
        assert abs(got - math.log2(1e6)) < 1e-6

    def test_single_pair_schemes_coincide(self):
        cfg = SystemConfig(1, 1, 2, 1, 5e4, 2.0)
        assert esr_asymptotic(cfg, "OS").value == pytest.approx(
            esr_asymptotic(cfg, "SS").value, rel=1e-12
        )

    def test_below_zero_marker_at_low_snr(self):
        r = esr_asymptotic(SystemConfig(1, 1, 1, 1, 0.01, 100.0), "OS")
        assert r.value < 0.0
        assert r.below_zero
        ok = esr_asymptotic(SystemConfig(1, 1, 1, 1, 1e4, 1.0), "OS")
        assert not ok.below_zero


class TestAsymptoteLine:
    def fit_offset(self, fn, shape, lam_e, scheme=None):
        """log2 λ_D − C(λ_D) evaluated deep in the linear regime."""
        k, L, m_d, m_e = shape
        cfg = SystemConfig(k, L, m_d, m_e, 1e6 * lam_e, lam_e)
        val = (fn(cfg) if scheme is None else fn(cfg, scheme)).value
        return math.log2(cfg.lambda_D) - val

    def test_balanced_single_transmitter_offset_zero(self):
        # At λ_E = 1 the line crosses zero at λ_D = 1, where reading the
        # asymptotic value would cancel every digit.
        for scheme, m in itertools.product(("OS", "SS"), range(1, 5)):
            line = asymptote_line(SystemConfig(1, 1, m, m, 1.0, 1.0), scheme)
            assert line.slope == 1.0
            assert abs(line.offset) < 1e-12, (scheme, m, line.offset)

    def test_rayleigh_three_transmitters_offset(self):
        line = asymptote_line(SystemConfig(3, 1, 1, 1, 100.0, 1.0), "OS")
        want = -(1.5 / math.log(2.0))  # -H_2/ln 2
        assert line.slope == 1.0
        assert abs(line.offset - want) < 1e-12
        fitted = self.fit_offset(esr_os_highsnr, (3, 1, 1, 1), 1.0)
        assert abs(fitted - want) < 1e-4

    def test_destination_only_rayleigh_offset_finite_sum(self):
        line = asymptote_line(SystemConfig(1, 3, 1, 1, 100.0, 1.0), "SS")
        want = -(3.0 * math.log(2.0) - math.log(3.0)) / math.log(2.0)
        assert abs(line.offset - want) < 1e-12
        fitted = self.fit_offset(esr_ss_highsnr, (1, 3, 1, 1), 1.0)
        assert abs(fitted - want) < 1e-4

    def test_line_matches_fit_with_offset_in_lambda_e(self):
        lam_e = LAMBDA_9DB
        line = asymptote_line(SystemConfig(1, 1, 2, 2, 100.0, lam_e), "OS")
        fitted = self.fit_offset(esr_os_highsnr, (1, 1, 2, 2), lam_e)
        assert abs(line.offset - math.log2(lam_e)) < 1e-12
        assert abs(fitted - line.offset) < 1e-4

    @pytest.mark.parametrize("scheme,L", [("OS", 1), ("SS", 1), ("SS", 2)])
    def test_pointwise_values_lie_on_the_line(self, scheme, L):
        # esr_asymptotic runs the shared assembly with the asymptotic
        # kernels, and asymptote_line reads one of its values; the
        # reference offset is exact rational arithmetic.
        for k, m_d, m_e in itertools.product(range(1, 4), repeat=3):
            for lam_d, lam_e in ((100.0, 1.0), (1e3, LAMBDA_9DB), (1e5, 100.0)):
                cfg = SystemConfig(k, L, m_d, m_e, lam_d, lam_e)
                offset = asymptote_offset(cfg, scheme)
                line = asymptote_line(cfg, scheme)
                assert line.slope == 1.0
                assert abs(line.offset - offset) <= 1e-12, (cfg, line.offset, offset)
                want = math.log2(lam_d) - offset
                got = esr_asymptotic(cfg, scheme).value
                assert rel_err(got, want) <= 1e-12, (cfg, got, want)

    @pytest.mark.parametrize(
        "shape,lam_e", [((2, 2, 1, 1), 1.0), ((1, 3, 2, 2), LAMBDA_9DB), ((2, 3, 2, 1), 100.0)]
    )
    def test_multi_destination_optimal_line_matches_quadrature(self, shape, lam_e):
        line = asymptote_line(SystemConfig(*shape, 1.0, lam_e), "OS")
        fitted = self.fit_offset(_quadrature_esr_ratio_form, shape, lam_e, "OS")
        assert line.slope == 1.0
        assert abs(line.offset - fitted) <= 1e-8, (shape, line.offset, fitted)

    def test_reference_point_past_float_range_names_lambda_e(self):
        # asymptote_line reads its offset at λ_D = 2^64·λ_E.  Past
        # 2^-64·DBL_MAX that point overflows, and the refusal must be about
        # λ_E, not about a λ_D the caller never passed.
        edge = sys.float_info.max / 2.0**64
        for lam_e in (1e290, math.nextafter(edge, math.inf)):
            for scheme in ("OS", "SS"):
                with pytest.raises(DomainError, match="lambda_E") as err:
                    asymptote_line(SystemConfig(2, 2, 2, 2, 10.0, lam_e), scheme)
                assert "2^64" in str(err.value)
                assert "lambda_D must be" not in str(err.value)
        for scheme in ("OS", "SS"):
            line = asymptote_line(SystemConfig(2, 2, 2, 2, 10.0, edge), scheme)
            want = math.log2(2.0**64 * edge) - esr_asymptotic(SystemConfig(2, 2, 2, 2, 2.0**64 * edge, edge), scheme).value
            assert line.offset == want and math.isfinite(want)


class TestXiIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m_e", [1, 2, 3])
    def test_trivial_single_term(self, k, m_e):
        assert xi(1, k, m_e) == pytest.approx(1.0, abs=1e-14)

    def test_mid_order(self):
        assert abs(xi(3, 2, 2) - 1.0) < 1e-10

    def test_high_order(self):
        assert abs(xi(6, 3, 1) - 1.0) < 1e-9

    @pytest.mark.parametrize("m_hat", range(1, 7))
    def test_sweep(self, m_hat):
        for k in (1, 2, 3):
            for m_e in (1, 2):
                assert abs(xi(m_hat, k, m_e) - 1.0) < 1e-9


class TestGuards:
    def test_budget_error_exact(self):
        with pytest.raises(ComplexityBudgetError):
            esr_os_exact(SystemConfig(3, 3, 3, 3, 10.0, 1.0), budget=1000)
        with pytest.raises(ComplexityBudgetError):
            esr_ss_exact(SystemConfig(3, 3, 3, 3, 10.0, 1.0), budget=1000)

    @pytest.mark.parametrize("budget", [math.nan, 2.5, "1", None, -1, math.inf, True, False])
    def test_budget_must_be_a_count(self, budget):
        # nan compares false with every work count, so it would turn the
        # guard off.
        cfg = SystemConfig(3, 3, 3, 3, 10.0, 1.0)
        for call in (
            lambda: esr_os_exact(cfg, budget=budget),
            lambda: esr_ss_highsnr(cfg, budget=budget),
            lambda: esr_asymptotic(cfg, "OS", budget=budget),
        ):
            with pytest.raises(DomainError, match="budget must be an integer >= 0"):
                call()

    @staticmethod
    def full_walk_work(K, L, M_D, exact):
        """The guard's work count, summed over every composition."""
        work = 0
        for _, _, active in _pole_groups(K, L):
            nus = [c * l * (M_D - 1) for l, c in active]
            work += math.prod(nu + 1 for nu in nus) * (sum(nus) + 1 if exact else 1)
        return work

    def test_budget_decisions_match_the_full_walk(self, monkeypatch):
        # Only the guard runs: an accepted configuration stops at a stub.
        monkeypatch.setattr(esr_engine, "_dps", lambda cfg, exact: 30)
        monkeypatch.setattr(esr_engine, "_with_retry", lambda evaluator, dps: (0.0, 0, -math.inf))
        for K, L, M_D in itertools.product(range(1, 7), range(1, 7), range(1, 4)):
            cfg = SystemConfig(K, L, M_D, 2, 10.0, 1.0)
            for exact, route in ((True, esr_os_exact), (False, esr_os_highsnr)):
                work = self.full_walk_work(K, L, M_D, exact)
                for budget in (10, 10**3, 10**5):
                    try:
                        route(cfg, budget=budget)
                        refused = False
                    except ComplexityBudgetError as err:
                        refused = True
                        assert err.count == work
                    assert refused == (work > budget), (K, L, M_D, exact, budget)

    # The full walks are 6.0e8 and 2.7e6 compositions long; the second
    # count is ``full_walk_work`` summed over the latter (17 s).
    REFUSED = {(16, 16, 1, 1): math.comb(32, 16) - 1, (12, 12, 2, 2): 2_421_686_769_340_604}

    @pytest.mark.parametrize("shape", list(REFUSED))
    def test_refusal_does_not_walk_every_composition(self, shape):
        start = time.perf_counter()
        with pytest.raises(ComplexityBudgetError) as exc_info:
            esr_os_exact(SystemConfig(*shape, 10.0, 1.0))
        assert time.perf_counter() - start < 0.5
        assert exc_info.value.count == self.REFUSED[shape]

    def test_cancellation_guard_trips_on_hopeless_sum(self):
        # A synthetic evaluator whose sum is 660 log10-digits below its
        # largest term can never reach 12 digits of headroom.
        evaluator = lambda: (mp.mpf("1e-200"), 5, 500.0)
        with pytest.raises(CancellationError) as exc_info:
            _with_retry(evaluator, 30)
        assert exc_info.value.max_log_term == 500.0

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (1, 1, 3, 3)])
    @pytest.mark.parametrize("scheme", ["OS", "SS"])
    def test_symmetric_ratio_is_zero(self, shape, scheme):
        # E[log2(γ_D/γ_E)] = 0 when both links follow one law.  The sum is
        # exactly 0 at (1,1,2,2); at (1,1,3,3) it is rounding noise that
        # shrinks with the working precision.
        result = esr_asymptotic(SystemConfig(*shape, 1.0, 1.0), scheme)
        assert result.value == 0.0

    def test_zero_then_value_follows_the_headroom_rule(self):
        # A zero that the next precision does not confirm decides nothing.
        healthy = iter([(mp.mpf(0), 3, 4.0), (mp.mpf("2.5"), 3, 4.0)])
        assert _with_retry(lambda: next(healthy), 30) == (2.5, 3, 4.0)
        hopeless = iter([(mp.mpf(0), 5, 500.0)] + [(mp.mpf("1e-200"), 5, 500.0)] * 2)
        with pytest.raises(CancellationError):
            _with_retry(lambda: next(hopeless), 30)

    def test_retry_passes_healthy_sum_through(self):
        evaluator = lambda: (mp.mpf("2.5"), 3, 4.0)
        value, n_terms, peak = _with_retry(evaluator, 30)
        assert value == 2.5
        assert n_terms == 3
        assert peak == 4.0


def _bits(r):
    return r.value.hex(), r.term_count, r.max_log_term.hex()


# One evaluation at a given precision, run by a fresh interpreter.  Poles
# 64/l are exact binary numbers for l = 1, 2, so a power kept from a
# lower-precision attempt would be found again by a later one.
_DIRECT_RUN = """
import sys
from esrsel.channel_model import SystemConfig
from esrsel.esr_engine import _terms, _with_retry
route, dps = sys.argv[1], int(sys.argv[2])
cfg = SystemConfig(2, 2, 3, 3, 64.0, 1.0)
value, n_terms, peak = _with_retry(lambda: _terms(cfg, route), dps)
print(value.hex(), n_terms, peak.hex())
"""


class TestKernelReuse:
    """Integer binomials, and no value reused beyond one evaluation at one
    working precision."""

    CFG = SystemConfig(2, 2, 3, 3, 100.0, LAMBDA_9DB)

    def test_no_mpmath_binomial_calls(self, monkeypatch):
        calls = []
        real = mp.binomial

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mp, "binomial", counted)
        esr_os_exact(self.CFG)
        esr_os_highsnr(self.CFG)
        assert calls == []

    @pytest.mark.parametrize("route", ["exact", "high_snr"])
    def test_retry_matches_direct_run_at_final_precision(self, route):
        cfg = SystemConfig(2, 2, 3, 3, 64.0, 1.0)
        seen = []

        def evaluator():
            seen.append(mp.mp.dps)
            return _terms(cfg, route)

        # 15 digits leave too little headroom here, so one retry follows.
        value, n_terms, peak = _with_retry(evaluator, 15)
        assert len(seen) == 2
        env = dict(os.environ)
        src = str(Path(esrsel.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DIRECT_RUN, route, str(seen[-1])],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        assert proc.stdout.split() == [value.hex(), str(n_terms), peak.hex()]

    @pytest.mark.parametrize(
        "fn,oracle",
        [(esr_os_exact, quadrature_esr), (esr_os_highsnr, _quadrature_esr_ratio_form)],
        ids=["exact", "high_snr"],
    )
    def test_no_value_carries_across_lambdas(self, fn, oracle):
        other = SystemConfig(2, 2, 3, 3, 10.0, 1.0)
        first = fn(self.CFG)
        between = fn(other)
        again = fn(self.CFG)
        assert _bits(again) == _bits(first)
        want = oracle(other, "OS").value
        assert abs(between.value - want) <= max(1e-6 * abs(want), 1e-8)


_REFERENCE_LAMBDAS = [(100.0, LAMBDA_9DB), (1.0, 1.0), (1e4, LAMBDA_9DB)]
_REFERENCE_CACHE = {}


class TestFactorisedAssembly:
    """One decomposition per evaluation against the per-pole-set assembly,
    beyond C1's shapes against quadrature, and an honest peak."""

    @pytest.mark.parametrize(
        "fn,scheme,route",
        [
            (esr_os_exact, "OS", "exact"),
            (esr_ss_exact, "SS", "exact"),
            (esr_os_highsnr, "OS", "high_snr"),
            (esr_ss_highsnr, "SS", "high_snr"),
        ],
        ids=["os_exact", "ss_exact", "os_high_snr", "ss_high_snr"],
    )
    def test_matches_per_pole_set_reference(self, fn, scheme, route):
        # K, L, M_D, M_E in 1..3 at three (λ_D, λ_E): 243 points per
        # function, 972 in all.  Both sides round to the same float.
        exact = route == "exact"
        mismatches = []
        for (k, l, m_d, m_e), lams in itertools.product(
            itertools.product((1, 2, 3), repeat=4), _REFERENCE_LAMBDAS
        ):
            cfg = SystemConfig(k, l, m_d, m_e, *lams)
            os_cfg = cfg if scheme == "OS" else _as_single_transmitter(cfg)
            key = (os_cfg, route)
            if key not in _REFERENCE_CACHE:
                _REFERENCE_CACHE[key] = _with_retry(
                    lambda: terms_per_pole_set(os_cfg, route), _dps(os_cfg, exact)
                )[0]
            got = fn(cfg).value
            if got != _REFERENCE_CACHE[key]:
                mismatches.append((cfg, got, _REFERENCE_CACHE[key]))
        assert not mismatches, mismatches[:5]

    @pytest.mark.parametrize("lam_d", [10.0, 100.0])
    @pytest.mark.parametrize(
        "fn,oracle,scheme",
        [
            (esr_os_exact, quadrature_esr, "OS"),
            (esr_os_highsnr, _quadrature_esr_ratio_form, "OS"),
            (esr_ss_exact, quadrature_esr, "SS"),
            (esr_ss_highsnr, _quadrature_esr_ratio_form, "SS"),
        ],
        ids=["exact", "high_snr", "ss_exact", "ss_high_snr"],
    )
    def test_four_by_four_matches_oracle(self, fn, oracle, scheme, lam_d):
        cfg = SystemConfig(4, 4, 4, 4, lam_d, LAMBDA_9DB)
        want = oracle(cfg, scheme).value
        assert abs(fn(cfg).value - want) <= max(1e-6 * abs(want), 1e-8)  # C1's tolerance

    @pytest.mark.parametrize(
        "fn,oracle,scheme,shape",
        [
            pytest.param(esr_os_highsnr, _quadrature_esr_ratio_form, "OS", (5, 5, 5, 5), id="shape0"),
            pytest.param(esr_os_highsnr, _quadrature_esr_ratio_form, "OS", (6, 6, 4, 4), id="shape1"),
        ]
        + [
            pytest.param(fn, oracle, "SS", shape, id=f"{name}-{'-'.join(map(str, shape))}")
            for fn, oracle, name in (
                (esr_ss_exact, quadrature_esr, "ss_exact"),
                (esr_ss_highsnr, _quadrature_esr_ratio_form, "ss_high_snr"),
            )
            for shape in ((4, 4, 6, 6), (6, 6, 4, 4), (8, 8, 3, 3))
        ],
    )
    def test_large_high_snr_matches_oracle(self, fn, oracle, scheme, shape):
        # Beyond the four-by-four shapes, under the default budget: OS
        # high-SNR, and SS, which runs as OS(1, K·L) with K·L up to 64.
        cfg = SystemConfig(*shape, 100.0, LAMBDA_9DB)
        want = oracle(cfg, scheme).value
        assert abs(fn(cfg).value - want) <= max(1e-6 * abs(want), 1e-8)  # C1's tolerance

    @pytest.mark.parametrize(
        "shape",
        [
            (3, 3, 3, 3, 100.0, LAMBDA_9DB),
            (3, 3, 4, 4, 100.0, LAMBDA_9DB),
            (3, 3, 3, 3, 1.0, 1.0),
            (2, 2, 3, 3, 0.1, 1.0),
            (1, 9, 3, 3, 100.0, LAMBDA_9DB),
            (1, 16, 4, 4, 1.0, 1.0),
            (1, 4, 3, 3, 0.1, 1.0),
        ],
    )
    @pytest.mark.parametrize("route", ["exact", "high_snr"])
    def test_peak_covers_the_digits_lost(self, shape, route):
        # The digits a run at the starting precision loses, measured against
        # a run 40 digits finer, must not exceed what its peak reports.
        cfg = SystemConfig(*shape)
        dps = _dps(cfg, route == "exact")
        with mp.workdps(dps):
            total, _, peak = _terms(cfg, route)
            claimed = (peak - float(mp.log(abs(total)))) / math.log(10)
        with mp.workdps(dps + 40):
            fine, _, _ = _terms(cfg, route)
            correct = float(-mp.log10(abs(total - fine) / abs(fine)))
        assert dps - correct <= claimed


class TestOneTransmitter:
    """K = 1 (OS(1, L), and SS at any K·L) closes in one dimension."""

    def test_builds_no_table_and_no_partial_fraction(self, monkeypatch):
        calls = []
        for name in ("_v_tables", "pf_selection"):
            real = getattr(esr_engine, name)
            monkeypatch.setattr(
                esr_engine, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            )
        many, one = SystemConfig(2, 3, 2, 2, 10.0, 1.0), SystemConfig(1, 3, 2, 2, 10.0, 1.0)
        for fn in (esr_ss_exact, esr_ss_highsnr, lambda c: esr_asymptotic(c, "SS")):
            fn(many)
            fn(one)
        for fn in (esr_os_exact, esr_os_highsnr, lambda c: esr_asymptotic(c, "OS")):
            fn(one)
        assert calls == []
        for fn in (esr_os_exact, esr_os_highsnr, lambda c: esr_asymptotic(c, "OS")):
            fn(many)
        assert calls == ["_v_tables", "pf_selection"] * 3

    @pytest.mark.parametrize("lams", [(1e-30, 1.0), (1.0, 1e30), (1e30, 1.0), (1e40, 1.0)])
    @pytest.mark.parametrize(
        "fn,route",
        [
            (esr_os_exact, "exact"),
            (esr_os_highsnr, "high_snr"),
            (lambda cfg: esr_asymptotic(cfg, "OS"), "asymptotic"),
        ],
        ids=["exact", "high_snr", "asymptotic"],
    )
    def test_extreme_ratios_match_per_pole_set_reference(self, fn, route, lams):
        # λ_D/λ_E = 1e-30, 1e30 and 1e40.  Where λ_D ≪ λ_E the ESR falls like
        # (λ_D/λ_E)^{M_E}, so the signed sums cancel about 90 digits (and the
        # exact form's Γ fill at β = 1e30 about 240 more); the reference runs
        # from the finest precision.
        cfg = SystemConfig(1, 3, 3, 3, *lams)
        want = _with_retry(lambda: terms_per_pole_set(cfg, route), _MAX_DPS)[0]
        assert fn(cfg).value == want


class TestMoments:
    """``_moments`` fills J_k on libmp values; it must give the mpf-object
    fill bit for bit, values and envelopes."""

    @staticmethod
    def mpf_fill(beta, n, exact):
        # J_0 = e^β E1(β), J_k = (β^{-k} − J_{k-1})/k; ratio form β^{-k}/k.
        x = 1 / beta
        inv = [mp.mpf(1)]
        for _ in range(n - 1):
            inv.append(inv[-1] * x)
        ln2 = math.log(2.0)
        mag = lambda j: float(mp.mag(j)) * ln2 if j else -math.inf
        if not exact:
            js = [mp.mpf(0)] + [inv[k] / k for k in range(1, n)]
            return js, [mag(j) for j in js]
        js = [mp.exp(beta) * mp.e1(beta)]
        envs = [mag(js[0])]
        ln_inv = -math.log(float(beta))
        for k in range(1, n):
            js.append((inv[k] - js[-1]) / k)
            hi, lo = max(k * ln_inv, envs[-1]), min(k * ln_inv, envs[-1])
            envs.append(hi + math.log1p(math.exp(lo - hi)) - math.log(k))
        return js, envs

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "ratio"])
    @pytest.mark.parametrize("dps", [15, 53, 120])
    def test_matches_the_mpf_fill(self, dps, exact):
        with mp.workdps(dps):
            for b, n in itertools.product((1e-8, 1e-3, 0.37, 1.0, 20.0, 1e4), (1, 2, 9, 40)):
                beta = mp.mpf(b)
                js, envs = esr_engine._moments(beta._mpf_, n, exact)
                want, want_envs = self.mpf_fill(beta, n, exact)
                assert js == [j._mpf_ for j in want], (b, n)
                assert envs == want_envs, (b, n)


class TestWeightTables:
    """The row structure of the member tables, which ``_work`` and the
    K ≥ 2 ``_dps`` assume and README states, at OS and SS shapes."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "ratio"])
    def test_rows_hold_their_orders_and_powers(self, exact):
        shapes = itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2))
        cfgs = {
            cfg if scheme == "OS" else _as_single_transmitter(cfg)
            for cfg in (SystemConfig(*shape, 10.0, LAMBDA_9DB) for shape in shapes)
            for scheme in ("OS", "SS")
        }
        for cfg in cfgs:
            with mp.workdps(30):
                tables = _v_tables(cfg, exact, mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E))
            assert len(tables) == cfg.L, cfg
            for l, rows in enumerate(tables, 1):
                top = l * (cfg.M_D - 1)
                # Row n̂ is the pole order M_E + n̂: T_l = M_E + l·(M_D − 1).
                assert len(rows) == top + 1, (cfg, l)
                for n, row in enumerate(rows):
                    # The ratio form stays on the diagonal; the exact form's
                    # powers of x run from n̂ up to the last row's n̂.
                    allowed = set(range(n, top + 1)) if exact else {n}
                    assert set(row) <= allowed, (cfg, l, n, sorted(row))


class TestSelectionDecomposition:
    """``pf_selection``'s pieces add back up to the integrand they split."""

    @pytest.mark.parametrize("shape", [(1, 3, 2, 3), (3, 1, 3, 2), (2, 2, 3, 3), (3, 3, 3, 3)])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "ratio"])
    def test_recombines_to_the_integrand(self, shape, exact):
        cfg = SystemConfig(*shape, 10.0, LAMBDA_9DB)
        dps = _dps(cfg, exact)
        with mp.workdps(dps):
            lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
            factors = _v_tables(cfg, exact, lam_D, lam_E)
            poles = [(lam_D / (l * lam_E), cfg.M_E + len(rows) - 1) for l, rows in enumerate(factors, 1)]
            pfs = pf_selection(factors, poles, cfg.K, exact)
            for x in map(mp.mpf, ("1.5", "4", "17", "50")):
                z = mp.exp(-x / lam_D) if exact else 1
                q = sum(
                    z**l * v * x**d / (x + c) ** (cfg.M_E + n)
                    for l, (rows, (c, _)) in enumerate(zip(factors, poles), 1)
                    for n, row in enumerate(rows) for d, v in row.items()
                )
                want = (1 - (1 - q) ** cfg.K) / x
                pieces = []
                for grade, pf in pfs.items():
                    # The ratio form's origin coefficient is minus its
                    # first-order residues: its integrand decays like x^-2.
                    origin = pf.origin if exact else -sum(b[0] for b in pf.poles if b)
                    pieces += [z**grade * origin / x] + [z**grade * p * x**j for j, p in enumerate(pf.poly)]
                    pieces += [
                        z**grade * b / (x + c) ** t
                        for (c, _), bs in zip(poles, pf.poles) for t, b in enumerate(bs, 1)
                    ]
                # Relative to the largest term, as in C8, with 12 of the
                # working digits to spare: the pieces cancel by design.
                scale = max(abs(p) for p in pieces)
                assert abs(mp.fsum(pieces) - want) <= mp.mpf(10) ** (12 - dps) * max(abs(want), scale), x
