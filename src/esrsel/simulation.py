"""Monte Carlo ground truth and the adaptive-quadrature ESR oracle.

The Monte Carlo path draws every link SNR from its law, applies the
selection rule per draw, and averages the clipped secrecy rate.  A link SNR
is γ = Σ_i μ_i·P_i, where μ are the eigenvalues of the path covariance
λ·Toeplitz(ρ) and P are unit path powers: Σ_i |h_{k,i}|² is
[R_S^½ W R_path W^H R_S^½]_kk for white W, and W·U has the law of W for the
real orthogonal U that diagonalises R_path.  Without transmitter correlation
(ρ_S = 0, which includes i.i.d.) the P are independent Exp(1) draws.  With
it, the real and imaginary tap parts are drawn as normals, coloured across
transmitters by the Cholesky factor of R_S, and P = ½|h|².  No complex tap
and no Kronecker factor is formed; ``draw_channels`` keeps the tap-level
synthesis for callers that need single realizations.  Substreams are counter-based:
chunk i uses a Philox generator keyed by the two-word key (seed, i) with a
fixed chunk size, so estimates are bit-reproducible and independent of any
parallel scheduling, and no two (seed, chunk) pairs share a stream (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).

The quadrature path evaluates C = (1/ln 2) ∫_1^∞ (1 - F(x))/x dx directly
from the model CDFs with nested adaptive Gauss–Kronrod integration — no
binomial expansions, no partial fractions — which makes it an independent
cross-check of the closed forms.  One batched integrator, ``_gk21``, serves
both levels: QUADPACK's G10/K21 rule and error estimate (Piessens et al.,
1983) applied to many intervals at once, each round evaluating every live
panel's nodes in one vectorized integrand call.  Each outer round runs the
inner integrals of all its new nodes as one batch, so no scalar integrand
call and no ``scipy.integrate`` routine remains.  All probability quantities
are assembled from survival functions (gammaincc / expm1 / log1p) so that
1 - F keeps full relative accuracy even when F is within 1e-15 of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import special as sp

from .channel_model import CorrelationConfig, SystemConfig
from .errors import DomainError, OracleFailureError
from .esr_engine import EsrResult, _norm_scheme

__all__ = [
    "ChannelRealization",
    "ToeplitzCorrelation",
    "McEstimate",
    "draw_channels",
    "select_os",
    "select_ss",
    "estimate_esr",
    "paired_esr_difference",
    "quadrature_esr",
]

CHUNK_SIZE = 1 << 14  # draws per RNG substream; fixed so results never depend
# on how chunks are scheduled


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: h_D[l, k, i] over paths i, h_E[k, i]."""

    h_D: np.ndarray
    h_E: np.ndarray


@dataclass(frozen=True)
class ToeplitzCorrelation:
    """Exponential-decay correlation: entry (i, j) = scale · rho^|i-j|."""

    size: int
    rho: float
    scale: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise DomainError("correlation matrix size must be >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise DomainError("correlation coefficient must lie in [0, 1)")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError("correlation scale must be positive and finite")

    def matrix(self) -> np.ndarray:
        idx = np.arange(self.size)
        return self.scale * self.rho ** np.abs(idx[:, None] - idx[None, :])

    def sqrt_factor(self) -> np.ndarray:
        """Principal (symmetric PSD) square root via eigendecomposition."""
        w, v = np.linalg.eigh(self.matrix())
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# channel synthesis


def _substream(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _corr_factors(
    cfg: SystemConfig, corr: CorrelationConfig
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Kronecker square-root factors (destination, eavesdropper), or None
    when the configuration is i.i.d. (plain √λ scaling applies)."""
    if corr.is_iid:
        return None, None
    r_s = ToeplitzCorrelation(cfg.K, corr.rho_S, 1.0).sqrt_factor()
    r_d = ToeplitzCorrelation(cfg.M_D, corr.rho_D, cfg.lambda_D).sqrt_factor()
    r_e = ToeplitzCorrelation(cfg.M_E, corr.rho_E, cfg.lambda_E).sqrt_factor()
    return np.kron(r_d, r_s), np.kron(r_e, r_s)


def draw_channels(cfg: SystemConfig, corr: CorrelationConfig, rng_state) -> ChannelRealization:
    """One channel realization; ``rng_state`` is a seed in [0, 2**64), a
    numpy Generator or a BitGenerator.

    White circularly symmetric taps, column i·K + k, are scaled by √λ or,
    with any correlation, multiplied by the Kronecker factor."""
    gen = _as_generator(rng_state)
    shape_d, shape_e = (cfg.L, cfg.K * cfg.M_D), (cfg.K * cfg.M_E,)
    w_d = gen.standard_normal(shape_d) + 1j * gen.standard_normal(shape_d)
    w_e = gen.standard_normal(shape_e) + 1j * gen.standard_normal(shape_e)
    w_d, w_e = w_d * math.sqrt(0.5), w_e * math.sqrt(0.5)
    b_d, b_e = _corr_factors(cfg, corr)
    if b_d is None:
        h_d, h_e = w_d * math.sqrt(cfg.lambda_D), w_e * math.sqrt(cfg.lambda_E)
    else:
        h_d, h_e = w_d @ b_d, w_e @ b_e
    h_d = h_d.reshape(cfg.L, cfg.M_D, cfg.K).transpose(0, 2, 1)
    h_e = h_e.reshape(cfg.M_E, cfg.K).T
    return ChannelRealization(h_D=h_d, h_E=h_e)


def _as_generator(rng_state) -> np.random.Generator:
    if isinstance(rng_state, np.random.Generator):
        return rng_state
    if isinstance(rng_state, np.random.BitGenerator):
        return np.random.Generator(rng_state)
    return _substream(_checked_seed(rng_state), 0)


def _checked_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64), the range of a Philox key word."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got seed={seed!r}") from None
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


# ---------------------------------------------------------------------------
# link-SNR draws


@dataclass(frozen=True)
class _LinkLaw:
    """Link SNRs of one correlation configuration.  Each link SNR is
    γ = Σ_i μ_i·P_i, with μ the eigenvalues of the path covariance
    λ·Toeplitz(ρ) and P unit path powers, whose taps are correlated across
    transmitters by ``rho_S``."""

    rho_S: float
    mu_d: np.ndarray
    mu_e: np.ndarray


def _link_law(cfg: SystemConfig, corr: CorrelationConfig) -> _LinkLaw:
    mu_d = np.linalg.eigvalsh(ToeplitzCorrelation(cfg.M_D, corr.rho_D, cfg.lambda_D).matrix())
    mu_e = np.linalg.eigvalsh(ToeplitzCorrelation(cfg.M_E, corr.rho_E, cfg.lambda_E).matrix())
    return _LinkLaw(corr.rho_S, mu_d, mu_e)


def _draw_units(
    gen: np.random.Generator, cfg: SystemConfig, n: int, normals: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit draws for the destination and eavesdropper links, shaped
    (K, n, L, M_D) and (K, n, M_E): Exp(1) path powers, or, when
    ``normals``, the real and imaginary tap parts on a leading axis of 2."""
    lead = (2, cfg.K, n) if normals else (cfg.K, n)
    draw = gen.standard_normal if normals else gen.standard_exponential
    return draw(lead + (cfg.L, cfg.M_D)), draw(lead + (cfg.M_E,))


def _colour(x: np.ndarray, rho: float) -> np.ndarray:
    """Unit normals with the transmitter axis at 1, correlated to ρ^|k−k'|
    by the recursion y_k = ρ·y_{k−1} + √(1−ρ²)·x_k, the Cholesky factor of
    the Toeplitz matrix.  Elementwise, so no BLAS threads start."""
    y = x * math.sqrt(1.0 - rho * rho)
    y[:, 0] = x[:, 0]
    for k in range(1, x.shape[1]):
        y[:, k] += rho * y[:, k - 1]
    return y


def _snrs(law: _LinkLaw, u_d: np.ndarray, u_e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(γ_D[n, k, l], γ_E[n, k]) from one chunk of unit draws."""
    if u_e.ndim == 4:  # tap parts: colour across transmitters, then ½|h|²
        u_d, u_e = (_colour(u, law.rho_S) for u in (u_d, u_e))
        u_d, u_e = (0.5 * (u[0] ** 2 + u[1] ** 2) for u in (u_d, u_e))
    return np.einsum("knlm,m->nkl", u_d, law.mu_d), np.einsum("knm,m->nk", u_e, law.mu_e)


# ---------------------------------------------------------------------------
# selection rules


def _snr_matrices(r: ChannelRealization) -> Tuple[np.ndarray, np.ndarray]:
    gamma_d = (r.h_D.real**2 + r.h_D.imag**2).sum(axis=2)  # (L, K)
    gamma_e = (r.h_E.real**2 + r.h_E.imag**2).sum(axis=1)  # (K,)
    return gamma_d.T, gamma_e  # (K, L), (K,)


def select_os(r: ChannelRealization, cfg: SystemConfig) -> Tuple[int, int, float]:
    """Pair maximizing (1+γ_D)/(1+γ_E); ties to the smallest (k, l), 1-based."""
    gamma_d, gamma_e = _snr_matrices(r)
    ratio = (1.0 + gamma_d) / (1.0 + gamma_e[:, None])
    flat = int(np.argmax(ratio))
    k, l = divmod(flat, cfg.L)
    return k + 1, l + 1, float(ratio[k, l])


def select_ss(r: ChannelRealization, cfg: SystemConfig) -> Tuple[int, int, float]:
    """Pair maximizing γ_D alone; the ratio still prices in that pair's γ_E."""
    gamma_d, gamma_e = _snr_matrices(r)
    flat = int(np.argmax(gamma_d))
    k, l = divmod(flat, cfg.L)
    return k + 1, l + 1, float((1.0 + gamma_d[k, l]) / (1.0 + gamma_e[k]))


def _chunk_rates(gd: np.ndarray, ge: np.ndarray, scheme: str) -> np.ndarray:
    n, _, l_count = gd.shape
    rows = np.arange(n)
    if scheme == "OS":
        ratio = (1.0 + gd) / (1.0 + ge[:, :, None])
        flat = ratio.reshape(n, -1)
        gamma = flat[rows, flat.argmax(axis=1)]
    else:
        flat = gd.reshape(n, -1)
        idx = flat.argmax(axis=1)
        gamma = (1.0 + flat[rows, idx]) / (1.0 + ge[rows, idx // l_count])
    rates = np.log2(gamma)
    return np.maximum(rates, 0.0, out=rates)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def _mc_mean(
    cfg: SystemConfig,
    trials: int,
    seed: int,
    normals: bool,
    chunk_values: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> McEstimate:
    """Mean and standard error of ``chunk_values(u_d, u_e)``, the per-draw
    values of each chunk of unit draws (see ``_draw_units``), over
    ``trials`` draws."""
    try:
        trials = operator.index(trials)
    except TypeError:
        raise DomainError(f"trials must be an integer, got trials={trials!r}") from None
    if trials < 1000:
        raise DomainError("need at least 1000 trials for a usable estimate")
    seed = _checked_seed(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < trials:
        n = min(CHUNK_SIZE, trials - done)
        u_d, u_e = _draw_units(_substream(seed, chunk_index), cfg, n, normals)
        values = chunk_values(u_d, u_e)
        total += float(values.sum())
        total_sq += float((values * values).sum())
        done += n
        chunk_index += 1
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return McEstimate(mean=mean, stderr=math.sqrt(var / trials), trials=trials, seed=seed)


def estimate_esr(
    cfg: SystemConfig,
    corr: CorrelationConfig,
    scheme: str,
    trials: int,
    seed: int,
) -> McEstimate:
    """ESR estimate: mean of [log2 Γ_S]^+ over ``trials`` channel draws."""
    s = _norm_scheme(scheme)
    law = _link_law(cfg, corr)
    return _mc_mean(
        cfg, trials, seed, law.rho_S > 0.0,
        lambda u_d, u_e: _chunk_rates(*_snrs(law, u_d, u_e), s),
    )


def paired_esr_difference(
    cfg: SystemConfig,
    corr_a: CorrelationConfig,
    corr_b: CorrelationConfig,
    scheme: str,
    trials: int,
    seed: int,
) -> McEstimate:
    """ESR(corr_a) − ESR(corr_b) with common random numbers per draw.

    Both sides compute their link SNRs from the same unit draws: complex
    normal taps when either side has transmitter correlation, unit path
    powers otherwise.  So the correlation-induced gap resolves at far fewer
    trials than two independent estimates would need.
    """
    s = _norm_scheme(scheme)
    law_a, law_b = _link_law(cfg, corr_a), _link_law(cfg, corr_b)

    def diff(u_d: np.ndarray, u_e: np.ndarray) -> np.ndarray:
        rates_a = _chunk_rates(*_snrs(law_a, u_d, u_e), s)
        return rates_a - _chunk_rates(*_snrs(law_b, u_d, u_e), s)

    normals = law_a.rho_S > 0.0 or law_b.rho_S > 0.0
    return _mc_mean(cfg, trials, seed, normals, diff)


# ---------------------------------------------------------------------------
# quadrature oracle

# QUADPACK's qk21 rule (Piessens et al., 1983): the Kronrod abscissae on
# [-1, 1], centre last, their weights, and the 10-point Gauss weights of the
# even-numbered abscissae.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980627580, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# The 21 nodes as offsets from a panel's centre in half-widths, left to right.
_X21 = np.concatenate([-_XGK[:10], _XGK[::-1]])
_W21 = np.concatenate([_WGK[:10], _WGK[::-1]])
_G21 = np.zeros(21)
_G21[1:10:2] = _WG
_G21[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps


def _gk21(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """∫_{a_i}^{b_i} f for every i at once by adaptive G10/K21.

    ``f(owner, u)`` gets each panel's owner index i, shaped (n,), and its 21
    nodes, shaped (n, 21), and returns the integrand there.  Each round
    evaluates every live panel in one call.  An owner stops once its error
    sum is at most max(epsabs, epsrel·|value|); otherwise its panels whose
    error is within that target's share of their width are kept and the rest
    are bisected.  Per-owner sums run over that owner's panels in its own
    order, so batching never changes a value.  Returns (value, error, ok,
    evaluations); ``ok`` is False where bisecting would exceed ``limit``
    panels before the target was met.
    """
    n = len(a)
    owner = np.arange(n)
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    width = hi - lo
    kept_val, kept_err = np.zeros(n), np.zeros(n)
    value, error = np.zeros(n), np.zeros(n)
    panels = np.ones(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    evals = 0
    while owner.size:
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(owner, centre[:, None] + half[:, None] * _X21)
        evals += fx.size
        resk = (fx * _W21).sum(axis=1)
        resg = (fx * _G21).sum(axis=1)
        res = resk * half
        resabs = (np.abs(fx) * _W21).sum(axis=1) * half
        resasc = (np.abs(fx - 0.5 * resk[:, None]) * _W21).sum(axis=1) * half
        err = np.abs((resk - resg) * half)
        scaled = (err > 0.0) & (resasc > 0.0)
        err[scaled] = resasc[scaled] * np.minimum(
            1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5
        )
        err = np.maximum(err, 50.0 * _EPS * resabs)

        total = kept_val + np.bincount(owner, res, n)
        total_err = kept_err + np.bincount(owner, err, n)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        split = err > tol[owner] * (hi - lo) / width[owner]
        splits = np.bincount(owner[split], minlength=n)
        panels += splits
        over = panels > limit
        ok[owner] &= ~(over & (total_err > tol))[owner]
        value[owner], error[owner] = total[owner], total_err[owner]

        on = ((total_err > tol) & (splits > 0) & ~over)[owner]
        keep = on & ~split
        kept_val += np.bincount(owner[keep], res[keep], n)
        kept_err += np.bincount(owner[keep], err[keep], n)
        split &= on
        mid = centre[split]
        owner = np.repeat(owner[split], 2)
        lo = np.column_stack([lo[split], mid]).ravel()
        hi = np.column_stack([mid, hi[split]]).ravel()
    return value, error, ok, evals


def _quadrature(
    cfg: SystemConfig,
    scheme: str,
    ratio_form: bool,
    epsabs: float,
    epsrel: float,
) -> EsrResult:
    """(1/ln 2) ∫_1^∞ (1 - F(x))/x dx for F(x) = E_y[F_D(arg(x,y))^{l_eff}]^{k_eff},
    where arg = x(1+y)-1 exactly or x·y in ratio form.

    OS has (k_eff, l_eff) = (K, L).  SS reduces to the single-transmitter
    form with K·L destinations because the selected eavesdropper SNR is
    independent of the destination maximum.

    The outer integral runs over t = (x-1)/x ∈ [0, 1].  Each outer round
    maps the nodes of its new t-panels to x and integrates all of their
    inner expectations as one ``_gk21`` batch.  The inner expectation
    integrates over u = arg at fixed x (the destination survival then varies
    on its own λ_D scale regardless of x), clipped where either the
    destination survival or the eavesdropper density tail drops below 1e-18
    relative mass.
    """
    scheme = _norm_scheme(scheme)
    k_eff, l_eff = (cfg.K, cfg.L) if scheme == "OS" else (1, cfg.K * cfg.L)
    lam_d, lam_e = cfg.lambda_D, cfg.lambda_E
    m_d, m_e = cfg.M_D, cfg.M_E
    y_max = lam_e * float(sp.gammainccinv(m_e, 1e-18))
    u_dest = lam_d * float(sp.gammainccinv(m_d, 1e-20))
    lg_me = math.lgamma(m_e)
    ln_lam_e = math.log(lam_e)
    f_e0 = 1.0 / lam_e if m_e == 1 else 0.0
    eps_in_abs = max(epsabs / 20.0, 1e-15)
    eps_in_rel = max(epsrel / 30.0, 1e-13)
    evals = 0
    peak = -math.inf

    def one_minus_f(x: np.ndarray) -> np.ndarray:
        nonlocal evals
        lo = np.zeros_like(x) if ratio_form else x - 1.0
        hi = np.minimum(u_dest, x * y_max if ratio_form else x * (1.0 + y_max) - 1.0)
        live = hi > lo
        xs = x[live]

        def inner(owner: np.ndarray, u: np.ndarray) -> np.ndarray:
            xo = xs[owner][:, None]
            q = sp.gammaincc(m_d, u / lam_d)
            s = np.where(q >= 1.0, 1.0, -np.expm1(l_eff * np.log1p(-q)))
            y = u / xo if ratio_form else (u + 1.0) / xo - 1.0
            dens = np.exp((m_e - 1) * np.log(y) - y / lam_e - lg_me - m_e * ln_lam_e)
            return s * np.where(y <= 0.0, f_e0, dens) / xo

        val, err, ok, n = _gk21(inner, lo[live], hi[live], eps_in_abs, eps_in_rel, 300)
        evals += n
        stalled = ~ok & (err > np.maximum(1e-6 * np.abs(val), 1e-12))
        if stalled.any():
            i = int(np.argmax(stalled))
            raise OracleFailureError(
                f"inner quadrature stalled at x={xs[i]:.6g}: value {val[i]:.3e}, "
                f"error {err[i]:.3e}"
            )
        q_total = np.zeros_like(x)
        q_total[live] = np.clip(val, 0.0, 1.0)
        if k_eff == 1:
            return q_total
        return np.where(q_total >= 1.0, 1.0, -np.expm1(k_eff * np.log1p(-q_total)))

    def outer(_owner: np.ndarray, t: np.ndarray) -> np.ndarray:
        nonlocal peak
        inside = t < 1.0
        s = 1.0 - t[inside]
        x = 1.0 + t[inside] / s
        v = np.zeros_like(t)
        v[inside] = one_minus_f(x) / (x * s**2)
        pos = v[v > 0.0]
        if pos.size:
            peak = max(peak, float(np.log(pos).max()))
        return v

    with np.errstate(divide="ignore", invalid="ignore"):
        val, err, ok, _ = _gk21(outer, np.zeros(1), np.ones(1), epsabs, epsrel, 400)
    val, err = float(val[0]), float(err[0])
    if not ok[0] and err > max(1e-8 * abs(val), 1e-11):
        raise OracleFailureError(
            f"outer quadrature failed to converge: value {val:.6e}, "
            f"error estimate {err:.3e}: panel limit reached"
        )
    return EsrResult(val / math.log(2.0), scheme, "quadrature", evals, peak)


def quadrature_esr(
    cfg: SystemConfig,
    scheme: str,
    epsabs: float = 1e-12,
    epsrel: float = 1e-9,
) -> EsrResult:
    """ESR by nested adaptive quadrature of the i.i.d.-model CDFs.

    Independent of the closed forms: no series expansion is used anywhere.
    """
    return _quadrature(cfg, scheme, False, epsabs, epsrel)


def _quadrature_esr_ratio_form(
    cfg: SystemConfig,
    scheme: str,
    epsabs: float = 1e-12,
    epsrel: float = 1e-9,
) -> EsrResult:
    """Quadrature for the γ_D/γ_E ratio model (the high-SNR approximation's
    exact distribution); used to cross-check the high-SNR closed forms."""
    return _quadrature(cfg, scheme, True, epsabs, epsrel)
