"""Ergodic secrecy rate closed forms for both selection schemes.

The ESR of the selected pair is C = (1/ln 2) ∫_1^∞ (1 - F(x))/x dx with F
the CDF of the post-selection SNR ratio.  Expanding 1 - F binomially turns
the integral into a signed combination of the kernels

    ∫_1^∞ x^{ν-1} e^{-βx} dx / Π_g (x + χ_g)^{T_g},    χ_g = λ_D/(g λ_E),

whose closed forms live in ``partial_fractions``.  This module assembles the
combinatorial weight attached to each kernel.  Instead of enumerating every
index tuple, the per-branch atom tables are raised to convolution powers:
every weight factor depends only on per-member index sums, so the collapsed
sum equals the enumerated one term by term (Vandermonde identities), at
polynomial instead of exponential cost.

There is one exact assembly and one ratio-form assembly (shared by the
high-SNR and asymptotic routes), both for optimal selection (OS).  SS(K, L)
is evaluated as OS(1, K·L), and L = 1 is the general case with one pole
group.

All assembly runs in mpmath at an adaptively chosen precision — the signed
sums cancel catastrophically in float64 for the larger configurations.  The
estimate is checked a posteriori against the recorded peak summand, and the
evaluation reruns at higher precision when the headroom is too small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import mpmath as mp

from .channel_model import SystemConfig
from .errors import CancellationError, ComplexityBudgetError, ContractError, DomainError
from .partial_fractions import (
    Powers,
    _GammaTable,
    _mag_ln,
    j0_exact_mp,
    j0_highsnr_mp,
    j1_highsnr_mp,
    pf_coefficients,
    required_dps,
    single_pole_integral_mp,
)

__all__ = [
    "EsrResult",
    "AsymptoticLine",
    "esr_os_exact",
    "esr_ss_exact",
    "esr_os_highsnr",
    "esr_ss_highsnr",
    "esr_asymptotic",
    "asymptote_line",
    "DEFAULT_BUDGET",
]

# Largest work estimate (``_os_exact_work``, ``_os_highsnr_work``) that a
# closed-form evaluation may start with.
DEFAULT_BUDGET = 10**8
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class EsrResult:
    """One ESR evaluation.

    ``max_log_term`` is the natural log of the largest absolute summand that
    entered the final sum — comparing it against log(value) measures how many
    digits the signed summation cancelled.  ``stderr`` is populated only by
    the Monte Carlo estimator.  ``below_zero`` marks high-SNR/asymptotic
    formula values that dip below zero at low SNR (the exact ESR cannot).
    """

    value: float
    scheme: str
    method: str
    term_count: int
    max_log_term: float
    stderr: Optional[float] = None
    below_zero: bool = False


@dataclass(frozen=True)
class AsymptoticLine:
    """C ≈ slope · (log2 λ_D − offset) as λ_D → ∞, offset in log2-λ units."""

    slope: float
    offset: float


def _norm_scheme(scheme: str) -> str:
    s = str(scheme).upper()
    if s not in ("OS", "SS"):
        raise DomainError(f"unknown scheme {scheme!r}; expected 'OS' or 'SS'")
    return s


# ---------------------------------------------------------------------------
# integer / rational helpers


def _poch(a: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= a + i
    return out


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(k: int, counts: Tuple[int, ...]) -> int:
    out = math.factorial(k)
    for c in counts:
        out //= math.factorial(c)
    return out


def _conv1(a: Dict[int, mp.mpf], b: Dict[int, mp.mpf]) -> Dict[int, mp.mpf]:
    out: Dict[int, mp.mpf] = {}
    for i, va in sorted(a.items()):
        for j, vb in sorted(b.items()):
            key = i + j
            out[key] = out.get(key, mp.mpf(0)) + va * vb
    return out


def _conv2(
    a: Dict[Tuple[int, int], mp.mpf], b: Dict[Tuple[int, int], mp.mpf]
) -> Dict[Tuple[int, int], mp.mpf]:
    out: Dict[Tuple[int, int], mp.mpf] = {}
    for (i1, j1), va in sorted(a.items()):
        for (i2, j2), vb in sorted(b.items()):
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, mp.mpf(0)) + va * vb
    return out


def _conv1_frac(a: Dict[int, Fraction], b: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for i, va in sorted(a.items()):
        for j, vb in sorted(b.items()):
            out[i + j] = out.get(i + j, Fraction(0)) + va * vb
    return out


# ---------------------------------------------------------------------------
# weight tables (all built inside an mp working-precision context)


def _w1_table(M_D: int, lam_D: mp.mpf) -> Dict[Tuple[int, int], mp.mpf]:
    """Per-branch atoms keyed (n, d): coefficient of y^n x^d after expanding
    (x(1+y)-1)^m / (λ_D^m m!) over 0 ≤ m < M_D."""
    out: Dict[Tuple[int, int], mp.mpf] = {}
    for n in range(M_D):
        for d in range(n, M_D):
            acc = mp.mpf(0)
            for m in range(d, M_D):
                acc += (
                    (-1) ** (m - d)
                    * math.comb(m, n)
                    * math.comb(m - n, m - d)
                    * mp.power(lam_D, n - m)
                    / math.factorial(m)
                )
            out[(n, d)] = acc
    return out


def _v_tables_exact(cfg: SystemConfig, lam_D: mp.mpf, lam_E: mp.mpf):
    """Member tables V_l keyed (n̂, d̂) for subset sizes l = 1..L."""
    L, M_E = cfg.L, cfg.M_E
    w1 = _w1_table(cfg.M_D, lam_D)
    lamd_me = mp.power(lam_D, M_E)
    lame_me = mp.power(lam_E, M_E)
    out: Dict[int, Dict[Tuple[int, int], mp.mpf]] = {}
    wl = None
    for l in range(1, L + 1):
        wl = w1 if wl is None else _conv2(wl, w1)
        sign_binom = (-1) ** (l + 1) * math.comb(L, l)
        e_l = mp.exp(mp.mpf(l) / lam_D)
        tab: Dict[Tuple[int, int], mp.mpf] = {}
        for (n, d), v in sorted(wl.items()):
            s = (
                sign_binom
                * lamd_me
                * _poch(M_E, n)
                * e_l
                / (lame_me * mp.power(mp.mpf(l), M_E + n))
            )
            tab[(n, d)] = s * v
        out[l] = tab
    return out


def _v_tables_highsnr(cfg: SystemConfig, lam_D: mp.mpf, lam_E: mp.mpf):
    """High-SNR member tables V_l keyed by m̂ only (ratio-form kernels)."""
    L, M_E = cfg.L, cfg.M_E
    w1 = {m: mp.mpf(1) / math.factorial(m) for m in range(cfg.M_D)}
    lamd_me = mp.power(lam_D, M_E)
    lame_me = mp.power(lam_E, M_E)
    out: Dict[int, Dict[int, mp.mpf]] = {}
    wl = None
    for l in range(1, L + 1):
        wl = w1 if wl is None else _conv1(wl, w1)
        sign_binom = (-1) ** (l + 1) * math.comb(L, l)
        tab: Dict[int, mp.mpf] = {}
        for m, v in sorted(wl.items()):
            tab[m] = (
                sign_binom
                * lamd_me
                * _poch(M_E, m)
                / (lame_me * mp.power(mp.mpf(l), M_E + m))
                * v
            )
        out[l] = tab
    return out


def _rows_by_first(table: Dict[Tuple[int, int], mp.mpf]) -> Dict[int, Dict[int, mp.mpf]]:
    rows: Dict[int, Dict[int, mp.mpf]] = {}
    for (n, d), v in sorted(table.items()):
        rows.setdefault(n, {})[d] = v
    return rows


# ---------------------------------------------------------------------------
# evaluation drivers


def _with_retry(
    evaluator: Callable[[], Tuple[mp.mpf, int, float]], dps0: int
) -> Tuple[float, int, float]:
    """Run ``evaluator`` under increasing precision until the cancellation
    headroom is at least 12 digits; raise CancellationError when the 300-digit
    cap cannot provide it."""
    dps = min(300, dps0)
    ln_total = -math.inf
    peak = -math.inf
    for _ in range(3):
        with mp.workdps(dps):
            total, n_terms, peak = evaluator()
            ln_total = float(mp.log(abs(total))) if total != 0 else -math.inf
            value = float(total)
        if peak == -math.inf:
            return 0.0, n_terms, peak
        lost = (peak - ln_total) / _LN10
        if lost < dps - 12:
            return value, n_terms, peak
        if dps >= 300:
            break
        dps = min(300, int(dps * 1.5) + 10)
    raise CancellationError(peak, ln_total)


def _cfg_extra_digits(cfg: SystemConfig) -> float:
    """Config-level additions to the kernel precision estimate: weight-table
    growth for λ_D < 1 and the e^{l̃/λ_D} prefactors."""
    extra = (cfg.K * cfg.L) / cfg.lambda_D / _LN10
    if cfg.lambda_D < 1.0:
        extra += cfg.K * cfg.L * (cfg.M_D - 1) * (-math.log10(cfg.lambda_D))
    return extra


def _pole_groups(K: int, L: int) -> Iterator[Tuple[int, int, List[Tuple[int, int]]]]:
    """Walk the OS sum's compositions.

    For every power k ≤ K and every split ``comp`` of the k selected factors
    over the subset sizes l = 1..L, yield (k, signed integer weight
    (-1)^{k+1} C(K, k) multinomial(k; comp), active groups (l, c) with
    c > 0).  Each active group contributes one pole χ = λ_D/(l λ_E).
    """
    for k in range(1, K + 1):
        outer = (-1) ** (k + 1) * math.comb(K, k)
        for comp in _compositions(k, L):
            active = [(l, c) for l, c in zip(range(1, L + 1), comp) if c > 0]
            yield k, outer * _multinomial(k, comp), active


def _max_poles(
    cfg: SystemConfig, active: List[Tuple[int, int]]
) -> Tuple[List[Tuple[float, int]], int]:
    """Float pole locations with their largest multiplicities, and the
    largest kernel power ν, for one composition."""
    M_D, M_E = cfg.M_D, cfg.M_E
    poles = [
        (cfg.lambda_D / (l * cfg.lambda_E), c * (M_E + l * (M_D - 1)))
        for l, c in active
    ]
    return poles, sum(c * l * (M_D - 1) for l, c in active)


def _dps_os_exact(cfg: SystemConfig) -> int:
    worst = 25.0
    for k, _, active in _pole_groups(cfg.K, cfg.L):
        beta = sum(range(1, cfg.L + 1)) * k / cfg.lambda_D  # upper bound on l̃/λ_D
        poles, nu_max = _max_poles(cfg, active)
        zs = [beta * (1 + c) for c, _ in poles]
        worst = max(worst, required_dps(poles, zs=zs, nu_max=nu_max, cap=10**9))
    return int(math.ceil(worst + _cfg_extra_digits(cfg)))


def _os_exact_terms(cfg: SystemConfig) -> Tuple[mp.mpf, int, float]:
    M_E = cfg.M_E
    lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
    v_tabs = _v_tables_exact(cfg, lam_D, lam_E)
    u_cache: Dict[Tuple[int, int], Dict[Tuple[int, int], mp.mpf]] = {}

    def u_rows(l: int, c: int) -> Dict[int, Dict[int, mp.mpf]]:
        key = (l, c)
        if key not in u_cache:
            u_cache[key] = (
                v_tabs[l] if c == 1 else _conv2(u_cache[(l, c - 1)], v_tabs[l])
            )
        return _rows_by_first(u_cache[key])

    total = mp.mpf(0)
    n_terms = 0
    peak = -math.inf
    for _, weight0, active in _pole_groups(cfg.K, cfg.L):
        l_tilde = sum(l * c for l, c in active)
        beta = l_tilde / lam_D
        log_w0 = math.log(abs(weight0))
        chis = [lam_D / (l * lam_E) for l, _ in active]
        # Keyed by the argument z = β(1+χ), as j0_exact_mp looks tables up.
        zs = [beta * (1 + c) for c in chis]
        tables = {z: _GammaTable(z) for z in zs}
        # Reused within this composition only; see "Kernel reuse" in README.
        powers: Powers = {}
        phi_cache: Dict[Tuple[int, int, int], Tuple[mp.mpf, float]] = {}

        def phi(g: int, t: int, nu: int) -> Tuple[mp.mpf, float]:
            key = (g, t, nu)
            if key not in phi_cache:
                phi_cache[key] = single_pole_integral_mp(
                    nu, t, beta, chis[g], tables[zs[g]], powers
                )
            return phi_cache[key]

        rows_per_group = [u_rows(l, c) for l, c in active]
        for n_vec in product(*[sorted(r) for r in rows_per_group]):
            g_table = rows_per_group[0][n_vec[0]]
            for g in range(1, len(active)):
                g_table = _conv1(g_table, rows_per_group[g][n_vec[g]])
            poles = [
                (chis[g], c * M_E + n_vec[g]) for g, (_, c) in enumerate(active)
            ]
            bs = None
            if len(poles) > 1:
                _, bs = pf_coefficients(0, False, poles, powers)
            for nu in sorted(g_table):
                gv = g_table[nu]
                if gv == 0:
                    continue
                if nu == 0:
                    j_val, j_peak = j0_exact_mp(poles, beta, tables, powers)
                elif bs is None:
                    j_val, j_peak = phi(0, poles[0][1], nu)
                else:
                    j_val = mp.mpf(0)
                    j_peak = -math.inf
                    for g, (_, t_g) in enumerate(poles):
                        for t in range(1, t_g + 1):
                            b = bs[g][t - 1]
                            if b == 0:
                                continue
                            pv, pp = phi(g, t, nu)
                            j_val += b * pv
                            j_peak = max(j_peak, _mag_ln(b) + pp)
                total += weight0 * gv * j_val
                n_terms += 1
                peak = max(peak, log_w0 + _mag_ln(gv) + j_peak)
    ln2 = mp.log(2)
    return total / ln2, n_terms, peak - float(mp.log(ln2))


def _os_exact_work(cfg: SystemConfig) -> int:
    work = 0
    for _, _, active in _pole_groups(cfg.K, cfg.L):
        n_count = 1
        for l, c in active:
            n_count *= c * l * (cfg.M_D - 1) + 1
        work += n_count * (sum(c * l * (cfg.M_D - 1) for l, c in active) + 1)
    return work


def _os_highsnr_terms(cfg: SystemConfig, asymptotic: bool) -> Tuple[mp.mpf, int, float]:
    M_E = cfg.M_E
    lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
    v_tabs = _v_tables_highsnr(cfg, lam_D, lam_E)
    u_cache: Dict[Tuple[int, int], Dict[int, mp.mpf]] = {}

    def u_tab(l: int, c: int) -> Dict[int, mp.mpf]:
        key = (l, c)
        if key not in u_cache:
            u_cache[key] = (
                v_tabs[l] if c == 1 else _conv1(u_cache[(l, c - 1)], v_tabs[l])
            )
        return u_cache[key]

    total = mp.mpf(0)
    n_terms = 0
    peak = -math.inf
    for _, weight0, active in _pole_groups(cfg.K, cfg.L):
        log_w0 = math.log(abs(weight0))
        chis = [lam_D / (l * lam_E) for l, _ in active]
        tabs = [u_tab(l, c) for l, c in active]
        powers: Powers = {}  # reused within this composition only
        for m_vec in product(*[sorted(t) for t in tabs]):
            gv = mp.mpf(1)
            for g, m in enumerate(m_vec):
                gv *= tabs[g][m]
            nu = sum(m_vec)
            poles = [
                (chis[g], c * M_E + m_vec[g]) for g, (_, c) in enumerate(active)
            ]
            if nu == 0:
                j_val, j_peak = j0_highsnr_mp(poles, asymptotic, powers)
            else:
                j_val, j_peak = j1_highsnr_mp(poles, nu, asymptotic, powers)
            total += weight0 * gv * j_val
            n_terms += 1
            peak = max(peak, log_w0 + _mag_ln(gv) + j_peak)
    ln2 = mp.log(2)
    return total / ln2, n_terms, peak - float(mp.log(ln2))


def _os_highsnr_work(cfg: SystemConfig) -> int:
    work = 0
    for _, _, active in _pole_groups(cfg.K, cfg.L):
        m_count = 1
        for l, c in active:
            m_count *= c * l * (cfg.M_D - 1) + 1
        work += m_count
    return work


def _dps_os_highsnr(cfg: SystemConfig) -> int:
    # Compositions with k < K are dominated by k = K ones (same poles, lower
    # multiplicities), so walking every k gives the same maximum.
    worst = 25.0
    for _, _, active in _pole_groups(cfg.K, cfg.L):
        poles, nu_max = _max_poles(cfg, active)
        worst = max(worst, required_dps(poles, nu_max=nu_max, cap=10**9))
    return int(math.ceil(worst))


# ---------------------------------------------------------------------------
# public evaluation surface


def _budget_check(cfg: SystemConfig, work: int, budget: int) -> None:
    if work > budget:
        raise ComplexityBudgetError(cfg.K, cfg.L, cfg.M_D, work, budget)


def _as_single_transmitter(cfg: SystemConfig) -> SystemConfig:
    """SS(K, L) ≡ OS(1, K·L).

    Destination-only selection picks the best of K·L i.i.d. destination
    links, and the selected transmitter's eavesdropper SNR is an independent
    Gamma(M_E, λ_E) draw; with one transmitter, optimal selection does
    exactly that over its K·L destinations.
    """
    return replace(cfg, K=1, L=cfg.K * cfg.L)


def _exact(cfg: SystemConfig, budget: int) -> Tuple[float, int, float]:
    _budget_check(cfg, _os_exact_work(cfg), budget)
    return _with_retry(lambda: _os_exact_terms(cfg), _dps_os_exact(cfg))


def _ratio_form(cfg: SystemConfig, asymptotic: bool, budget: int) -> Tuple[float, int, float]:
    _budget_check(cfg, _os_highsnr_work(cfg), budget)
    return _with_retry(lambda: _os_highsnr_terms(cfg, asymptotic), _dps_os_highsnr(cfg))


def esr_os_exact(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """Exact ESR under ratio-optimal pair selection (general K, L)."""
    value, n_terms, peak = _exact(cfg, budget)
    return EsrResult(value, "OS", "exact", n_terms, peak)


def esr_ss_exact(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """Exact ESR under destination-SNR-only pair selection, as OS(1, K·L)."""
    value, n_terms, peak = _exact(_as_single_transmitter(cfg), budget)
    return EsrResult(value, "SS", "exact", n_terms, peak)


def esr_os_highsnr(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """High-SNR OS ESR (ratio-form kernels; upper bound on the exact ESR)."""
    value, n_terms, peak = _ratio_form(cfg, False, budget)
    return EsrResult(value, "OS", "high_snr", n_terms, peak, below_zero=value < 0)


def esr_ss_highsnr(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """High-SNR SS ESR, as OS(1, K·L) (upper bound on the exact ESR)."""
    value, n_terms, peak = _ratio_form(_as_single_transmitter(cfg), False, budget)
    return EsrResult(value, "SS", "high_snr", n_terms, peak, below_zero=value < 0)


def esr_asymptotic(cfg: SystemConfig, scheme: str, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """λ_D → ∞ asymptotic ESR value at the given configuration."""
    s = _norm_scheme(scheme)
    os_cfg = cfg if s == "OS" else _as_single_transmitter(cfg)
    value, n_terms, peak = _ratio_form(os_cfg, True, budget)
    return EsrResult(value, s, "asymptotic", n_terms, peak, below_zero=value < 0)


# ---------------------------------------------------------------------------
# asymptote lines (exact rational arithmetic, converted to float at the end)


def _harmonic_frac(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def _beta_frac(a: int, b: int) -> Fraction:
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


def asymptote_line(cfg: SystemConfig, scheme: str) -> AsymptoticLine:
    """Slope/offset of C ≈ slope·(log2 λ_D − offset) as λ_D → ∞.

    The OS line is available for L = 1 only; the general-L asymptote exists
    as pointwise values through ``esr_asymptotic``.
    """
    s = _norm_scheme(scheme)
    ln2 = math.log(2.0)
    if s == "OS":
        if cfg.L != 1:
            raise ContractError(
                "no closed-form OS asymptote line for L > 1; "
                "use esr_asymptotic for pointwise values"
            )
        K, M_D, M_E = cfg.K, cfg.M_D, cfg.M_E
        base = {m: Fraction(_poch(M_E, m), math.factorial(m)) for m in range(M_D)}
        acc = Fraction(0)
        w_tab = None
        for k in range(1, K + 1):
            w_tab = base if w_tab is None else _conv1_frac(w_tab, base)
            i1 = sum(
                (w_tab[m] * _beta_frac(k * M_E, m) for m in sorted(w_tab) if m >= 1),
                Fraction(0),
            )
            psi = _harmonic_frac(k * M_E - 1) - i1
            acc += (-1) ** (k + 1) * math.comb(K, k) * psi
        offset = math.log2(cfg.lambda_E) + float(acc) / ln2
        return AsymptoticLine(1.0, offset)
    KL = cfg.K * cfg.L
    M_D, M_E = cfg.M_D, cfg.M_E
    base = {m: Fraction(1, math.factorial(m)) for m in range(M_D)}
    offset = 0.0
    w_tab = None
    h_me = _harmonic_frac(M_E - 1)
    for k in range(1, KL + 1):
        w_tab = base if w_tab is None else _conv1_frac(w_tab, base)
        i1 = sum(
            (
                w_tab[m] * Fraction(math.factorial(m - 1), k**m)
                for m in sorted(w_tab)
                if m >= 1
            ),
            Fraction(0),
        )
        offset += (
            (-1) ** (k + 1)
            * math.comb(KL, k)
            * (math.log2(k * cfg.lambda_E) + float(h_me - i1) / ln2)
        )
    return AsymptoticLine(1.0, offset)

