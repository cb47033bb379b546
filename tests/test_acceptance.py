"""Release acceptance gate.

One test per acceptance criterion, each printing a single summary line and
asserting its pinned tolerance.  The oracle is the adaptive-quadrature
integrator (an independent evaluation route sharing no code with the closed
forms beyond the distribution definitions); Monte Carlo supplies a second,
model-level route.

Two published claims are contradicted by the i.i.d. Gamma(M, lambda) model, so
criteria 6 and 7 assert the behaviour the quadrature oracle confirms instead:

* ``test_criterion_6_highsnr_bound``: the ratio approximation gamma_D/gamma_E
  drops both ``+1`` terms, so it is tight only when *both* links are strong.
  At lambda_D = 40 dB, lambda_E = 9 dB the eavesdropper's ``+1`` is not
  negligible and the excess tends to E[log2(1 + 1/gamma_E_selected)] for every
  lambda_D (0.0852..0.9638 bpcu across the grid shapes).  The 1e-3 bound is
  therefore asserted at the same 31 dB destination-to-eavesdropper ratio with
  both SNRs raised by 40 dB, where the ratio-form value is unchanged and the
  gap is 9.0e-6..5.75e-4 bpcu.  Both closed forms are checked against their
  quadrature oracles at both points, so the clause also fails if the high-SNR
  route is wrong.
* ``test_criterion_7_multipath_trends``: at 20 dB / 0 dB the OS-SS gap is
  *smaller* with one eavesdropper path than with three for every M_D (the
  difference runs from -6.3e-4 to -2.3e-3 bpcu, reproduced by the quadrature
  oracle to about 1e-15); at lambda_E = 9 dB the published ordering holds.
  The clause asserts the closed-form difference against the oracle's at both
  eavesdropper SNRs, with the sign each one gives.
"""

import functools
import itertools
import math
import random
import time

import mpmath as mp
import numpy as np
import pytest

from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel.esr_engine import (
    _v_tables,
    asymptote_line,
    esr_os_exact,
    esr_os_highsnr,
    esr_ss_exact,
    esr_ss_highsnr,
)
from esrsel.partial_fractions import _DPS_BASE, _GammaTable, _descent_digits, pf_coefficients, required_dps
from esrsel.simulation import (
    _chunk_rates,
    _mc_mean,
    _quadrature_esr_ratio_form,
    estimate_esr,
    paired_esr_difference,
    quadrature_esr,
)
from pole_set_reference import _conv2, flat, literal_power, member_terms, tuple_poles, xi

LAMBDA_9DB = 10.0 ** 0.9  # 9 dB in linear units

SHAPES = list(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)))
SNRS = list(itertools.product((1.0, 10.0, 100.0), (1.0, LAMBDA_9DB)))
SCHEMES = ("OS", "SS")


def exact_value(scheme, cfg):
    fn = esr_os_exact if scheme == "OS" else esr_ss_exact
    return fn(cfg).value


def highsnr_value(scheme, cfg):
    fn = esr_os_highsnr if scheme == "OS" else esr_ss_highsnr
    return fn(cfg).value


def quadrature_value(scheme, cfg):
    return quadrature_esr(cfg, scheme).value


def oracle_tol(oracle):
    """Criterion 1's agreement tolerance between a closed form and its oracle."""
    return max(1e-6 * abs(oracle), 1e-8)


class _GridData:
    def __init__(self):
        t0 = time.monotonic()
        self.exact = {}
        quad_cache = {}
        self.quad = {}
        for (k, l, m_d, m_e), (lam_d, lam_e) in itertools.product(SHAPES, SNRS):
            cfg = SystemConfig(k, l, m_d, m_e, lam_d, lam_e)
            for scheme in SCHEMES:
                key = (scheme, k, l, m_d, m_e, lam_d, lam_e)
                self.exact[key] = exact_value(scheme, cfg)
                # Destination-only selection depends on (K, L) only through
                # the product, so the oracle is cached on the reduced key.
                qkey = (1, k * l, m_d, m_e, lam_d, lam_e) if scheme == "SS" else (
                    k, l, m_d, m_e, lam_d, lam_e,
                )
                if qkey not in quad_cache:
                    qcfg = SystemConfig(*qkey)
                    quad_cache[qkey] = quadrature_esr(qcfg, "OS").value
                self.quad[key] = quad_cache[qkey]
        self.elapsed = time.monotonic() - t0


@pytest.fixture(scope="module")
def grid():
    return _GridData()


def test_criterion_1_oracle_grid(grid):
    failures = []
    for key, closed in grid.exact.items():
        oracle = grid.quad[key]
        if abs(closed - oracle) > oracle_tol(oracle):
            failures.append((key, closed, oracle))
    print(
        f"C1 oracle grid: {len(grid.exact) - len(failures)}/{len(grid.exact)} "
        f"points within max(1e-6·value, 1e-8) in {grid.elapsed:.0f}s"
    )
    assert not failures, f"closed form vs quadrature mismatches: {failures[:5]}"
    assert grid.elapsed < 600.0, f"grid comparison took {grid.elapsed:.0f}s (budget 600s)"


def test_highsnr_oracle_grid():
    # The high-SNR closed forms against quadrature of the gamma_D/gamma_E ratio
    # model, over C1's shapes at lambda_D = 20 dB.  SS runs through the
    # multi-group kernels at L = K·L, which C6 checks at only a few points.
    quad_cache = {}
    failures = []
    worst = 0.0
    points = 0
    for (k, l, m_d, m_e), lam_e in itertools.product(SHAPES, (1.0, LAMBDA_9DB)):
        cfg = SystemConfig(k, l, m_d, m_e, 100.0, lam_e)
        for scheme in SCHEMES:
            qkey = (1, k * l, m_d, m_e, 100.0, lam_e) if scheme == "SS" else (
                k, l, m_d, m_e, 100.0, lam_e,
            )
            if qkey not in quad_cache:
                qcfg = SystemConfig(*qkey)
                quad_cache[qkey] = _quadrature_esr_ratio_form(qcfg, "OS").value
            oracle = quad_cache[qkey]
            closed = highsnr_value(scheme, cfg)
            err = abs(closed - oracle) / oracle_tol(oracle)
            worst = max(worst, err)
            points += 1
            if err > 1.0:
                failures.append((scheme, cfg, closed, oracle))
    print(
        f"High-SNR oracle grid: {points - len(failures)}/{points} points within "
        f"max(1e-6·value, 1e-8) of the ratio-model quadrature; worst error "
        f"{worst:.1e} of the tolerance"
    )
    assert not failures, f"high-SNR closed form vs quadrature mismatches: {failures[:5]}"


MC_POINTS = [
    ("OS", 1, 1, 1, 1, 10.0, 1.0),
    ("SS", 2, 2, 2, 2, 10.0, 1.0),
    ("OS", 3, 3, 3, 3, 10.0, LAMBDA_9DB),
    ("SS", 3, 3, 3, 3, 10.0, LAMBDA_9DB),
    ("OS", 3, 1, 2, 3, 100.0, LAMBDA_9DB),
    ("SS", 1, 3, 3, 2, 100.0, 1.0),
    ("OS", 2, 3, 1, 2, 1.0, LAMBDA_9DB),
    ("SS", 3, 2, 2, 1, 1.0, 1.0),
]


def test_criterion_2_monte_carlo_concordance():
    t0 = time.monotonic()
    iid = CorrelationConfig()
    worst = 0.0
    for i, (scheme, k, l, m_d, m_e, lam_d, lam_e) in enumerate(MC_POINTS):
        cfg = SystemConfig(k, l, m_d, m_e, lam_d, lam_e)
        closed = exact_value(scheme, cfg)
        est = estimate_esr(cfg, iid, scheme, 10**7, 20240815 + i)
        z = abs(closed - est.mean) / est.stderr
        worst = max(worst, z)
        assert z <= 4.0, (
            f"{scheme} {cfg}: closed {closed:.6f} vs mc {est.mean:.6f} "
            f"± {est.stderr:.2e} (z={z:.2f})"
        )
        assert est.stderr < 1e-3
    elapsed = time.monotonic() - t0
    print(f"C2 Monte Carlo concordance: 8/8 points within 4·stderr "
          f"(worst z={worst:.2f}) in {elapsed:.0f}s")
    assert elapsed < 300.0, f"Monte Carlo concordance took {elapsed:.0f}s (budget 300s)"


def test_criterion_3_slope_unity():
    cases = [
        ("OS", 1, 1), ("OS", 3, 1),  # optimal selection, single destination
        ("SS", 1, 1), ("SS", 2, 2),  # destination-only, K·L in {1, 4}
    ]
    slopes = {}
    for scheme, k, l in cases:
        lo = highsnr_value(scheme, SystemConfig(k, l, 2, 2, 1e6, 1.0))
        hi = highsnr_value(scheme, SystemConfig(k, l, 2, 2, 2e6, 1.0))
        slopes[(scheme, k, l)] = hi - lo
    print("C3 slope unity: " + ", ".join(
        f"{s}({k},{l})={v:.4f}" for (s, k, l), v in slopes.items()))
    for case, slope in slopes.items():
        assert abs(slope - 1.0) <= 0.01, f"{case}: slope {slope}"


def fitted_offset(scheme, k, l, m_d, m_e, lam_e):
    """log2(lambda_D) - C_highsnr(lambda_D) deep in the linear regime."""
    cfg = SystemConfig(k, l, m_d, m_e, 1e6 * lam_e, lam_e)
    return math.log2(cfg.lambda_D) - highsnr_value(scheme, cfg)


def test_criterion_4_offset_special_cases():
    lam_e = LAMBDA_9DB
    checks = []
    # Balanced multipath orders collapse onto the single-pair narrowband line.
    for m in (2, 4):
        fit = fitted_offset("OS", 1, 1, m, m, lam_e)
        checks.append((f"OS K=1 M={m}", fit, math.log2(lam_e)))
    # Three-transmitter Rayleigh: offset log2(λ_E) - H_2/ln 2.
    fit = fitted_offset("OS", 3, 1, 1, 1, lam_e)
    want = math.log2(lam_e) - 1.5 / math.log(2.0)
    line = asymptote_line(SystemConfig(3, 1, 1, 1, 100.0, lam_e), "OS")
    assert abs(line.offset - want) < 1e-12
    checks.append(("OS K=3 Rayleigh", fit, want))
    # Destination-only Rayleigh: finite alternating-sum offset.
    line_ss = asymptote_line(SystemConfig(2, 2, 1, 1, 100.0, lam_e), "SS")
    fit_ss = fitted_offset("SS", 2, 2, 1, 1, lam_e)
    checks.append(("SS KL=4 Rayleigh", fit_ss, line_ss.offset))
    print("C4 offsets: " + ", ".join(
        f"{name}: fit={fit:.6f} target={want:.6f}" for name, fit, want in checks))
    for name, fit, want in checks:
        assert abs(fit - want) <= 0.01, f"{name}: fitted {fit} vs {want}"


def test_criterion_5_scheme_ordering_and_equivalences(grid):
    for key in grid.exact:
        if key[0] == "OS":
            ss_key = ("SS",) + key[1:]
            assert grid.exact[key] >= grid.exact[ss_key] - 1e-9, key
    # One transmitter: both schemes reduce to destination selection.
    for (l, m_d, m_e), (lam_d, lam_e) in itertools.product(
        itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3)), SNRS
    ):
        os_v = grid.exact[("OS", 1, l, m_d, m_e, lam_d, lam_e)]
        ss_v = grid.exact[("SS", 1, l, m_d, m_e, lam_d, lam_e)]
        assert abs(os_v - ss_v) <= 1e-12 * abs(ss_v)
    # Destination-only selection is symmetric in (K, L).
    for (k, l, m_d, m_e), (lam_d, lam_e) in itertools.product(SHAPES, SNRS):
        a = grid.exact[("SS", k, l, m_d, m_e, lam_d, lam_e)]
        b = grid.exact[("SS", l, k, m_d, m_e, lam_d, lam_e)]
        assert abs(a - b) <= 1e-12 * abs(a)
    # Named comparison at 20 dB / 9 dB, M=3.
    point = (3, 3, 100.0, LAMBDA_9DB)
    os_13 = grid.exact[("OS", 1, 3) + point]
    ss_13 = grid.exact[("SS", 1, 3) + point]
    ss_31 = grid.exact[("SS", 3, 1) + point]
    os_31 = grid.exact[("OS", 3, 1) + point]
    assert abs(os_13 - ss_13) <= 1e-12 * abs(ss_13)
    assert abs(ss_31 - ss_13) <= 1e-12 * abs(ss_13)
    assert os_31 > ss_31 + 1e-9
    print(
        f"C5 ordering: OS≥SS on all {len(SHAPES) * len(SNRS)} configs; "
        f"OS(3,1)={os_31:.6f} > SS(3,1)={ss_31:.6f} = SS(1,3) = OS(1,3)"
    )


# The high-SNR operating points: 40 dB / 9 dB, and the same 31 dB
# destination-to-eavesdropper ratio with both links raised by 40 dB, where the
# ratio approximation's premise (both +1 terms negligible) holds.
POINT_40_9 = (1e4, LAMBDA_9DB)
POINT_RAISED = (1e8, 1e4 * LAMBDA_9DB)


def test_criterion_6_highsnr_bound(grid):
    # Clause 1: the ratio approximation never undercuts the exact value.
    for (k, l, m_d, m_e), (lam_d, lam_e) in itertools.product(SHAPES, SNRS):
        cfg = SystemConfig(k, l, m_d, m_e, lam_d, lam_e)
        for scheme in SCHEMES:
            hs = highsnr_value(scheme, cfg)
            assert hs >= grid.exact[(scheme, k, l, m_d, m_e, lam_d, lam_e)] - 1e-9
    # Clause 2: gap below 1e-3 bpcu at a 31 dB ratio with both links strong.
    closed = {}
    for k, l, m_d, m_e in SHAPES:
        cfg = SystemConfig(k, l, m_d, m_e, *POINT_RAISED)
        for scheme in SCHEMES:
            closed[(scheme, k, l, m_d, m_e)] = (
                highsnr_value(scheme, cfg),
                exact_value(scheme, cfg),
            )
    gaps = {key: hs - ex for key, (hs, ex) in closed.items()}
    worst = max(gaps, key=gaps.get)
    best = min(gaps, key=gaps.get)
    # Both closed forms against their quadrature oracles, for the widest and
    # narrowest gap shape of each scheme, at 40/9 dB and at the raised point.
    checked = set()
    for scheme in SCHEMES:
        own = {key: gap for key, gap in gaps.items() if key[0] == scheme}
        checked |= {max(own, key=own.get), min(own, key=own.get)}
    gaps_40_9 = {}
    for key in sorted(checked):
        scheme, shape = key[0], key[1:]
        cfg = SystemConfig(*shape, *POINT_40_9)
        closed_40_9 = (highsnr_value(scheme, cfg), exact_value(scheme, cfg))
        gaps_40_9[key] = closed_40_9[0] - closed_40_9[1]
        for point, (hs, ex) in ((POINT_40_9, closed_40_9), (POINT_RAISED, closed[key])):
            cfg = SystemConfig(*shape, *point)
            hs_oracle = _quadrature_esr_ratio_form(cfg, scheme).value
            ex_oracle = quadrature_value(scheme, cfg)
            assert abs(hs - hs_oracle) <= oracle_tol(hs_oracle), (scheme, cfg, hs, hs_oracle)
            assert abs(ex - ex_oracle) <= oracle_tol(ex_oracle), (scheme, cfg, ex, ex_oracle)
    print(
        f"C6 high-SNR bound: ordering holds on all {len(SHAPES) * len(SNRS)} "
        "configs, both schemes; "
        f"high-SNR and exact forms match quadrature for {len(checked)} shapes "
        f"at 40/9 and 80/49 dB; gap at 80/49 dB in [{gaps[best]:.2e}, "
        f"{gaps[worst]:.2e}] bpcu (target < 1e-3); at 40/9 dB the same shapes "
        f"give [{min(gaps_40_9.values()):.4f}, {max(gaps_40_9.values()):.4f}]"
    )
    assert gaps[worst] < 1e-3, (
        f"the ratio approximation's excess at 80/49 dB reaches {gaps[worst]:.2e} "
        f"bpcu at {worst} (range [{gaps[best]:.2e}, {gaps[worst]:.2e}]); with "
        "both links 40 dB above the 40/9 dB point, quadrature of the exact and "
        "ratio models puts it at 5.75e-4 or less"
    )


def test_criterion_7_multipath_trends():
    values = {}
    for scheme in SCHEMES:
        for m_e in (1, 2, 3):
            for m_d in range(1, 7):
                cfg = SystemConfig(2, 2, m_d, m_e, 100.0, 1.0)
                values[(scheme, m_d, m_e)] = exact_value(scheme, cfg)
    # Strictly increasing in the destination multipath order.
    for scheme in SCHEMES:
        for m_e in (1, 2, 3):
            seq = [values[(scheme, m_d, m_e)] for m_d in range(1, 7)]
            assert all(a < b for a, b in zip(seq, seq[1:])), (scheme, m_e, seq)
    # Strictly decreasing in the eavesdropper multipath order.
    for scheme in SCHEMES:
        for m_d in range(1, 7):
            seq = [values[(scheme, m_d, m_e)] for m_e in (1, 2, 3)]
            assert all(a > b for a, b in zip(seq, seq[1:])), (scheme, m_d, seq)

    # Gap ordering in M_E: delta = (OS-SS gap at M_E=1) - (gap at M_E=3), by
    # the closed forms and by the quadrature oracle.
    def delta(evaluate, m_d, lam_e):
        gap = {}
        for m_e in (1, 3):
            cfg = SystemConfig(2, 2, m_d, m_e, 100.0, lam_e)
            gap[m_e] = evaluate("OS", cfg) - evaluate("SS", cfg)
        return gap[1] - gap[3]

    deltas = {
        (lam_e, m_d): (delta(exact_value, m_d, lam_e), delta(quadrature_value, m_d, lam_e))
        for lam_e in (1.0, LAMBDA_9DB)
        for m_d in range(1, 7)
    }
    tables = {
        lam_e: ", ".join(f"{deltas[(lam_e, m_d)][0]:+.6f}" for m_d in range(1, 7))
        for lam_e in (1.0, LAMBDA_9DB)
    }
    print(
        "C7 multipath trends: monotonicity OK; gap(M_E=1) - gap(M_E=3) for "
        f"M_D=1..6 at 20/0 dB: {tables[1.0]}; at 20/9 dB: {tables[LAMBDA_9DB]}"
    )
    for (lam_e, m_d), (closed, oracle) in deltas.items():
        assert abs(closed - oracle) <= oracle_tol(oracle), (
            f"closed-form scheme-gap difference {closed:+.9f} vs quadrature "
            f"{oracle:+.9f} at M_D={m_d}, lambda_E={lam_e:.4f}"
        )
    # At 20/0 dB the model reverses the published ordering for every M_D: one
    # eavesdropper path leaves a smaller OS-SS gap than three.
    assert all(
        deltas[(1.0, m_d)][0] < 0 and deltas[(1.0, m_d)][1] < 0 for m_d in range(1, 7)
    ), f"expected the quadrature-confirmed reversal at 20/0 dB: {deltas}"
    # At lambda_E = 9 dB (the eavesdropper SNR of C4, C6 and C9) the published
    # ordering holds: the gap is larger with a single eavesdropper path.
    assert all(deltas[(LAMBDA_9DB, m_d)][0] > 0 for m_d in range(1, 7)), (
        f"expected gap(M_E=1) > gap(M_E=3) at 20/9 dB: {deltas}"
    )


def test_criterion_8_identity_suites():
    # Incomplete-gamma tables across the support actually used, at the
    # precision the library gives their downward fill.
    for x in (0.1, 1.0, 5.0, 50.0):
        with mp.workdps(_DPS_BASE + math.ceil(_descent_digits(x, 20))):
            table = _GammaTable(mp.mpf(x))
            for a in range(-20, 21):
                want = mp.gammainc(a, x)
                assert abs(table.get(a) - want) <= 1e-11 * want, (a, x)
    # Normalization sum collapses to one.
    for m_hat in range(1, 7):
        for k in (1, 2, 3):
            for m_e in (1, 2, 3):
                assert abs(xi(m_hat, k, m_e) - 1.0) <= 1e-9
    # Power-of-sums re-summation, as the test references run it: their
    # ``_conv2`` powers of random tables over (i, j, v) triples, in row j,
    # entry i − v, as the weight tables place (n, m − u), entry by entry
    # against a literal walk over the key tuples.
    rng = random.Random(20240820)
    with mp.workdps(30):
        for mu in (0, 1, 2, 3):
            for zeta in (1, 2, 3):
                items = [
                    ((j, i - v), mp.mpf(rng.uniform(-2.0, 2.0)))
                    for i in range(mu + 1)
                    for j in range(i + 1)
                    for v in range(i - j + 1)
                ]
                table = [{} for _ in range(mu + 1)]
                for (n, d), value in items:
                    table[n][d] = table[n].get(d, 0) + value
                got = flat(functools.reduce(_conv2, [table] * zeta))
                want = literal_power(items, zeta)
                lhs = mp.fsum(value for _, value in items) ** zeta
                assert set(got) == set(want)
                for key in want:
                    assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, abs(lhs))
                assert abs(mp.fsum(got.values()) - lhs) <= 1e-12 * max(1.0, abs(lhs))
        # The member tables the closed forms run on, one integer power
        # shifted to rows, against the literal (m, n, u)-tuple sums of their
        # coefficients.
        for L, m_d in itertools.product((1, 2, 3), repeat=2):
            cfg = SystemConfig(1, L, m_d, 2, 10.0, LAMBDA_9DB)
            tables = _v_tables(cfg, True, mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E))
            for l in range(1, L + 1):
                got = flat(tables[l - 1])
                terms = list(member_terms(cfg, l))
                want = literal_power(terms, 1)
                assert set(got) == set(want)
                for key, value in want.items():
                    scale = mp.fsum(abs(c) for k, c in terms if k == key)
                    assert abs(got[key] - value) <= 1e-12 * scale, (L, m_d, l, key)
    # Partial-fraction recombination on random pole structures.
    for seed in range(6):
        sr = random.Random(900 + seed)
        k = sr.randint(1, 3)
        l_vec = [sr.randint(1, 4) for _ in range(k)]
        n_hat = [sr.randint(0, 2) for _ in range(k)]
        poles = tuple_poles(l_vec, n_hat, sr.randint(1, 2), sr.uniform(0.5, 50.0), sr.uniform(0.5, 5.0))
        with_origin = sr.random() < 0.5
        with mp.workdps(required_dps(poles)):
            pf = pf_coefficients(None, with_origin, [(mp.mpf(c), T) for c, T in poles])
            origin = float(pf.origin) if with_origin else 0.0
            terms = [(c, t, float(b)) for (c, _), bs in zip(poles, pf.poles) for t, b in enumerate(bs, 1)]
        for x in np.linspace(1.5, 50.0, 32):
            want = (1.0 / x) if with_origin else 1.0
            for c, T in poles:
                want /= (x + c) ** T
            got = origin / x + sum(b / (x + c) ** t for c, t, b in terms)
            # Error budget is relative to the largest term: partial fractions
            # cancel by design at large x, so the sum can be orders of
            # magnitude below its own summands.
            term_scale = max([abs(origin) / x] + [abs(b) / (x + c) ** t for c, t, b in terms])
            assert abs(got - want) <= 1e-12 * max(abs(want), term_scale)
    print("C8 identity suites: recurrence, normalization, re-summation, "
          "recombination all within pinned tolerances")


def test_criterion_9_correlation_trends():
    cfg = SystemConfig(4, 4, 4, 4, 10.0, LAMBDA_9DB)
    iid = CorrelationConfig()
    trials = 10**6
    runs = {
        "tx OS": paired_esr_difference(cfg, iid, CorrelationConfig(rho_S=0.9), "OS", trials, 20240915),
        "path OS": paired_esr_difference(cfg, iid, CorrelationConfig(rho_D=0.9), "OS", trials, 20240916),
        "eave OS": paired_esr_difference(cfg, iid, CorrelationConfig(rho_E=0.9), "OS", trials, 20240917),
        "tx SS": paired_esr_difference(cfg, iid, CorrelationConfig(rho_S=0.9), "SS", trials, 20240915),
    }
    # mean = ESR(iid) - ESR(correlated): positive means correlation hurts.
    assert runs["tx OS"].mean > 5.0 * runs["tx OS"].stderr, runs["tx OS"]
    assert runs["path OS"].mean < -5.0 * runs["path OS"].stderr, runs["path OS"]
    assert runs["eave OS"].mean < -5.0 * runs["eave OS"].stderr, runs["eave OS"]
    assert runs["tx SS"].mean > 5.0 * runs["tx SS"].stderr, runs["tx SS"]
    # Transmitter correlation costs the ratio-optimal scheme more.  "tx OS"
    # and "tx SS" select from the same draws, so their difference is
    # estimated per draw: (iid OS − tx OS) − (iid SS − tx SS).

    def penalty_excess(snrs):
        penalty = {s: _chunk_rates(*snrs[0], s) - _chunk_rates(*snrs[1], s) for s in SCHEMES}
        return penalty["OS"] - penalty["SS"]

    # Both sides read the same unit draws: the transmitter recursion's
    # innovations, each link's paths collapsed into one group.
    paired = _mc_mean(cfg, trials, 20240915, [iid, CorrelationConfig(rho_S=0.9)], penalty_excess)
    excess, noise = paired.mean, paired.stderr
    assert excess > 5.0 * noise, (excess, noise)
    print(
        "C9 correlation trends: "
        + "; ".join(
            f"{name}: Δ={r.mean:+.4f}±{r.stderr:.4f}" for name, r in runs.items()
        )
        + f"; OS-vs-SS transmitter penalty excess {excess:+.4f} (> 5·{noise:.4f})"
    )
