"""Ergodic secrecy rate closed forms for both selection schemes.

The ESR of the selected pair is C = (1/ln 2) ∫_1^∞ (1 - F(x))/x dx with F
the CDF of the post-selection SNR ratio.  For optimal selection (OS),
1 - F = 1 - (1 - Q)^K with Q = Σ_l z^l V_l(x): V_l is the member table of
subset size l, with one pole at -χ_l = -λ_D/(l λ_E), and z = e^{-x/λ_D}.
The tables collapse the enumerated index sums into convolution powers of
per-branch atoms (Vandermonde identities), at polynomial cost.  Each is
built directly in the format ``pf_selection`` reads, a list of rows
(``partial_fractions.Factor``): row n̂, of pole order M_E + n̂, maps d̂ to
the coefficient of x^d̂.

There is one assembly, ``_terms``.  One ``pf_selection`` call decomposes
the whole integrand, one truncated expansion per pole, grade by grade in z,
and each grade l̃ closes at β = l̃/λ_D.  The ratio form (high-SNR and
asymptotic) is the exact form at β = 0, whose atoms lie on the diagonal of
the exact ones; it has one grade and closes with logs.  SS(K, L) is
evaluated as OS(1, K·L).  ``asymptote_line`` reads its offset off one
asymptotic value.

All assembly runs in mpmath at an adaptively chosen precision — the signed
sums cancel catastrophically in float64 for the larger configurations.  The
estimate is checked a posteriori against the peak, an envelope of every
signed sum, and the evaluation reruns at higher precision when the headroom
is too small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import mpmath as mp

from .channel_model import SystemConfig, _index
from .errors import CancellationError, ComplexityBudgetError, DomainError
from .partial_fractions import _MAX_DPS, Factor, _close_exact, _GammaTable, _log_rational_assembly, pf_selection, required_dps

# Not called here; imported only so that bench/tracer.py's BOUNDARIES resolve.
from .partial_fractions import j0_exact_mp, j0_highsnr_mp, j1_highsnr_mp, pf_coefficients, single_pole_integral_mp  # noqa: F401

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

# Largest work estimate (``_work``) that a closed-form evaluation may start
# with.
DEFAULT_BUDGET = 10**8
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class EsrResult:
    """One ESR evaluation.

    ``max_log_term`` is the natural log of a bound on the absolute values
    summed on the way to the value — comparing it against log(value) bounds
    how many digits the signed sums cancelled.  ``below_zero`` marks
    high-SNR/asymptotic formula values that dip below zero at low SNR (the
    exact ESR cannot).
    """

    value: float
    scheme: str
    method: str
    term_count: int
    max_log_term: float
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
# weight tables (all built inside an mp working-precision context)


def _conv2(a: Factor, b: Factor) -> Factor:
    """The product of two tables of rows (row n̂ maps d̂ to the coefficient
    of y^n̂ x^d̂): rows add their n̂, entries add their d̂."""
    out: List[Dict[int, mp.mpf]] = [{} for _ in range(len(a) + len(b) - 1)]
    for n1, row1 in enumerate(a):
        for d1, va in sorted(row1.items()):
            for n2, row2 in enumerate(b):
                row = out[n1 + n2]
                for d2, vb in sorted(row2.items()):
                    row[d1 + d2] = row.get(d1 + d2, 0) + va * vb
    return out


def _w1_table(M_D: int, lam_D: mp.mpf) -> Factor:
    """Per-branch atoms as rows: row n maps d to the coefficient of y^n x^d
    after expanding (x(1+y)-1)^m / (λ_D^m m!) over 0 ≤ m < M_D."""
    out: List[Dict[int, mp.mpf]] = []
    for n in range(M_D):
        row = {}
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
            row[d] = acc
        out.append(row)
    return out


def _v_tables(cfg: SystemConfig, exact: bool, lam_D: mp.mpf, lam_E: mp.mpf) -> List[Factor]:
    """Member tables [V_1, …, V_L], V_l the rows ``pf_selection`` reads over
    the pole −λ_D/(l λ_E): row n̂, of pole order M_E + n̂, maps d̂ to the
    coefficient of x^d̂.  V_l is the l-th ``_conv2`` power of the atoms, so
    it has l·(M_D − 1) + 1 rows, and each row is scaled once.

    The ratio form is the exact form at β = 0: its argument x·y is
    x(1+y) − 1 without the x − 1 part, so its atoms y^m x^m / m! sit on the
    diagonal d̂ = n̂.  The x − 1 part is also what gives e^{-βx} and the
    e^{l/λ_D} factor, so both drop out.
    """
    L, M_E = cfg.L, cfg.M_E
    if exact:
        w1 = _w1_table(cfg.M_D, lam_D)
    else:
        w1 = [{m: mp.mpf(1) / math.factorial(m)} for m in range(cfg.M_D)]
    lamd_me = mp.power(lam_D, M_E)
    lame_me = mp.power(lam_E, M_E)
    out = []
    wl = None
    for l in range(1, L + 1):
        wl = w1 if wl is None else _conv2(wl, w1)
        sign_binom = (-1) ** (l + 1) * math.comb(L, l)
        e_l = mp.exp(mp.mpf(l) / lam_D) if exact else None
        tab = []
        for n, row in enumerate(wl):
            s = sign_binom * lamd_me * math.perm(M_E + n - 1, n)
            if exact:
                s *= e_l
            scale = s / (lame_me * mp.power(mp.mpf(l), M_E + n))
            tab.append({d: scale * v for d, v in sorted(row.items())})
        out.append(tab)
    return out


# ---------------------------------------------------------------------------
# evaluation drivers


def _with_retry(
    evaluator: Callable[[], Tuple[mp.mpf, int, float]], dps0: int
) -> Tuple[float, int, float]:
    """Run ``evaluator`` under increasing precision until the cancellation
    headroom is at least 12 digits; raise CancellationError when ``_MAX_DPS``
    digits cannot provide it.

    A sum that keeps no digit above its rounding error at two successive
    precisions, and is exactly 0 at both or smaller at the finer one
    (rounding noise shrinks with the precision, a value does not), is 0, as
    the symmetric asymptotic ratio (K = L = 1, M_D = M_E, λ_D = λ_E) is.
    """
    dps = min(_MAX_DPS, dps0)
    ln_total = -math.inf
    peak = -math.inf
    noise = None  # the previous sum, when it kept no digit above its rounding error
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
        if lost < dps:
            noise = None
        elif noise is not None and (abs(total) < abs(noise) or total == noise == 0):
            return 0.0, n_terms, peak
        else:
            noise = total
        if dps >= _MAX_DPS:
            break
        dps = min(_MAX_DPS, int(dps * 1.5) + 10)
    raise CancellationError(peak, ln_total)


def _dps(cfg: SystemConfig, exact: bool) -> int:
    """Starting working precision: ``required_dps`` over the poles at the
    orders ``pf_selection`` expands them to, K·T_l.  With K = 1 no grade
    holds two poles, so each pole stands alone."""
    K, L, M_D = cfg.K, cfg.L, cfg.M_D
    poles = [(cfg.lambda_D / (l * cfg.lambda_E), K * (cfg.M_E + l * (M_D - 1))) for l in range(1, L + 1)]
    sets = [([p], l * (M_D - 1)) for l, p in enumerate(poles, 1)] if K == 1 else [(poles, K * L * (M_D - 1))]
    beta = sum(range(1, L + 1)) * K / cfg.lambda_D if exact else 0.0  # upper bound on l̃/λ_D
    worst = max(required_dps(p, zs=[beta * (1 + c) for c, _ in p], nu_max=nu) for p, nu in sets)
    if not exact:
        return worst
    # Weight-table growth for λ_D < 1 and the e^{l̃/λ_D} prefactors.
    extra = (K * L) / cfg.lambda_D / _LN10
    if cfg.lambda_D < 1.0:
        extra += K * L * (M_D - 1) * (-math.log10(cfg.lambda_D))
    return int(math.ceil(worst + extra))


def _work(cfg: SystemConfig, exact: bool) -> int:
    """Size proxy the budget guard compares against ``budget``: the kernel
    terms of the per-pole-set assembly, Σ over the compositions c of k ≤ K
    factors into the subset sizes of Π_l (c_l·a_l + 1), times 1 + Σ_l c_l·a_l
    in the exact form, a_l = l(M_D − 1).  Two running sums per k take in one
    subset size at a time, so no composition is enumerated.  It
    over-estimates one decomposition's cost and is not calibrated to seconds."""
    K = cfg.K
    prods, weighted = [1] + [0] * K, [0] * (K + 1)
    for l in range(1, cfg.L + 1):
        a = l * (cfg.M_D - 1)
        new_prods, new_weighted = [0] * (K + 1), [0] * (K + 1)
        for k in range(K + 1):
            for c in range(k + 1):
                new_prods[k] += prods[k - c] * (c * a + 1)
                new_weighted[k] += (weighted[k - c] + prods[k - c] * c * a) * (c * a + 1)
        prods, weighted = new_prods, new_weighted
    return sum(prods[1:]) + (sum(weighted[1:]) if exact else 0)


def _terms(cfg: SystemConfig, form: str) -> Tuple[mp.mpf, int, float]:
    """The OS sum for ``form`` ∈ {"exact", "high_snr", "asymptotic"}:
    (total, nonzero partial-fraction coefficient count, log of the envelope
    of every signed sum).

    One ``pf_selection`` call decomposes x⁻¹[1 − (1 − Σ_l z^l V_l(x))^K],
    V_l over its pole −χ_l; in the exact form grade l̃ of z = e^{−x/λ_D}
    closes at β = l̃/λ_D, and the ratio forms' one grade closes with logs.
    """
    exact = form == "exact"
    lam_D, lam_E = mp.mpf(cfg.lambda_D), mp.mpf(cfg.lambda_E)
    factors = _v_tables(cfg, exact, lam_D, lam_E)
    poles = [(lam_D / (l * lam_E), cfg.M_E + len(rows) - 1) for l, rows in enumerate(factors, 1)]
    cs = [c for c, _ in poles]
    pfs = pf_selection(factors, poles, cfg.K, exact)
    tables: Dict[object, _GammaTable] = {}
    closed = [
        _close_exact(cs, z / lam_D, pf, tables) if exact else _log_rational_assembly(cs, pf, form == "asymptotic")
        for z, pf in pfs.items()
    ]
    n_terms = sum(1 for pf in pfs.values() for b in (pf.poly, [pf.origin], *pf.poles) for v in b if v)
    ln2 = mp.log(2)
    peak = max(p for _, p in closed) + math.log(len(closed))
    return mp.fsum(v for v, _ in closed) / ln2, n_terms, peak - float(mp.log(ln2))


# ---------------------------------------------------------------------------
# public evaluation surface


def _as_single_transmitter(cfg: SystemConfig) -> SystemConfig:
    """SS(K, L) ≡ OS(1, K·L).

    Destination-only selection picks the best of K·L i.i.d. destination
    links, and the selected transmitter's eavesdropper SNR is an independent
    Gamma(M_E, λ_E) draw; with one transmitter, optimal selection does
    exactly that over its K·L destinations.
    """
    return replace(cfg, K=1, L=cfg.K * cfg.L)


def _evaluate(cfg: SystemConfig, scheme: str, form: str, budget: int) -> EsrResult:
    """One closed-form ESR, with SS evaluated as OS(1, K·L)."""
    try:
        ok = _index(budget) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"budget must be an integer >= 0, got {budget!r}")
    os_cfg = cfg if scheme == "OS" else _as_single_transmitter(cfg)
    exact = form == "exact"
    work = _work(os_cfg, exact)
    if work > budget:
        raise ComplexityBudgetError(os_cfg.K, os_cfg.L, os_cfg.M_D, work, budget)
    value, n_terms, peak = _with_retry(lambda: _terms(os_cfg, form), _dps(os_cfg, exact))
    below_zero = not exact and value < 0
    return EsrResult(value, scheme, form, n_terms, peak, below_zero=below_zero)


def esr_os_exact(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """Exact ESR under ratio-optimal pair selection (general K, L)."""
    return _evaluate(cfg, "OS", "exact", budget)


def esr_ss_exact(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """Exact ESR under destination-SNR-only pair selection, as OS(1, K·L)."""
    return _evaluate(cfg, "SS", "exact", budget)


def esr_os_highsnr(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """High-SNR OS ESR (ratio-form kernels; upper bound on the exact ESR)."""
    return _evaluate(cfg, "OS", "high_snr", budget)


def esr_ss_highsnr(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """High-SNR SS ESR, as OS(1, K·L) (upper bound on the exact ESR)."""
    return _evaluate(cfg, "SS", "high_snr", budget)


def esr_asymptotic(cfg: SystemConfig, scheme: str, budget: int = DEFAULT_BUDGET) -> EsrResult:
    """λ_D → ∞ asymptotic ESR value at the given configuration."""
    return _evaluate(cfg, _norm_scheme(scheme), "asymptotic", budget)


# ---------------------------------------------------------------------------
# asymptote lines


# λ_D/λ_E at which ``asymptote_line`` reads the asymptotic route: far above
# the line's zero crossing, so the value it reads off cancels nothing.
_LINE_REF = 2.0**64


def asymptote_line(cfg: SystemConfig, scheme: str) -> AsymptoticLine:
    """Slope/offset of C ≈ slope·(log2 λ_D − offset) as λ_D → ∞, for every
    K and L under both schemes.

    The asymptotic route is exactly affine in log2 λ_D with slope 1, so one
    evaluation of ``esr_asymptotic`` at λ_D = 2^64·λ_E fixes the offset.
    ``cfg.lambda_D`` is ignored.  Raises ComplexityBudgetError when that
    evaluation is over ``DEFAULT_BUDGET``.
    """
    lam_ref = _LINE_REF * cfg.lambda_E
    value = esr_asymptotic(replace(cfg, lambda_D=lam_ref), scheme).value
    return AsymptoticLine(1.0, math.log2(lam_ref) - value)
