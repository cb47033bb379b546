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
cross-check of the closed forms.  All probability quantities are assembled
from survival functions (gammaincc / expm1 / log1p) so that 1 - F keeps full
relative accuracy even when F is within 1e-15 of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import special as sp
from scipy.integrate import quad

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
    """One channel realization; ``rng_state`` is a seed or numpy Generator.

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
    return _substream(int(rng_state), 0)


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
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise DomainError(
            f"trials and seed must be integers, got trials={trials!r}, seed={seed!r}"
        ) from None
    if trials < 1000:
        raise DomainError("need at least 1000 trials for a usable estimate")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
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

    The inner expectation integrates over u = arg at fixed x (the destination
    survival then varies on its own λ_D scale regardless of x), clipped where
    either the destination survival or the eavesdropper density tail drops
    below 1e-18 relative mass.
    """
    scheme = _norm_scheme(scheme)
    k_eff, l_eff = (cfg.K, cfg.L) if scheme == "OS" else (1, cfg.K * cfg.L)
    lam_d, lam_e = cfg.lambda_D, cfg.lambda_E
    m_d, m_e = cfg.M_D, cfg.M_E
    y_max = lam_e * float(sp.gammainccinv(m_e, 1e-18))
    u_dest = lam_d * float(sp.gammainccinv(m_d, 1e-20))
    lg_me = math.lgamma(m_e)
    eps_in_abs = max(epsabs / 20.0, 1e-15)
    eps_in_rel = max(epsrel / 30.0, 1e-13)
    evals = 0
    peak = -math.inf

    def f_e(y: float) -> float:
        if y <= 0.0:
            return 1.0 / lam_e if m_e == 1 else 0.0
        return math.exp(
            (m_e - 1) * math.log(y) - y / lam_e - lg_me - m_e * math.log(lam_e)
        )

    def one_minus_f(x: float) -> float:
        nonlocal evals
        lo = 0.0 if ratio_form else x - 1.0
        hi = min(u_dest, x * y_max if ratio_form else x * (1.0 + y_max) - 1.0)
        if hi <= lo:
            return 0.0

        def inner(u: float) -> float:
            nonlocal evals
            evals += 1
            q = float(sp.gammaincc(m_d, u / lam_d))
            s = 1.0 if q >= 1.0 else -math.expm1(l_eff * math.log1p(-q))
            y = u / x if ratio_form else (u + 1.0) / x - 1.0
            return s * f_e(y) / x

        res = quad(
            inner, lo, hi, epsabs=eps_in_abs, epsrel=eps_in_rel, limit=300,
            full_output=1,
        )
        val, err = res[0], res[1]
        if len(res) > 3 and err > max(1e-6 * abs(val), 1e-12):
            raise OracleFailureError(
                f"inner quadrature stalled at x={x:.6g}: value {val:.3e}, "
                f"error {err:.3e}"
            )
        q_total = min(max(val, 0.0), 1.0)
        if q_total >= 1.0:
            return 1.0
        if k_eff == 1:
            return q_total
        return -math.expm1(k_eff * math.log1p(-q_total))

    def outer(t: float) -> float:
        nonlocal peak
        if t >= 1.0:
            return 0.0
        x = 1.0 + t / (1.0 - t)
        v = one_minus_f(x) / (x * (1.0 - t) ** 2)
        if v > 0.0:
            peak = max(peak, math.log(v))
        return v

    res = quad(outer, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=400, full_output=1)
    val, err = res[0], res[1]
    if len(res) > 3 and err > max(1e-8 * abs(val), 1e-11):
        raise OracleFailureError(
            f"outer quadrature failed to converge: value {val:.6e}, "
            f"error estimate {err:.3e}: {res[3]}"
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
