"""Tap-level channel synthesis and pair selection, reference only.

This is the Kronecker channel model that the Monte Carlo sampler's link-SNR
laws are derived from, written out tap by tap.  The taps of n draws are
white circularly symmetric complex normals W, column i·K + k for path i and
transmitter k, times the factor R_path^½ ⊗ R_S^½, so that
Cov(h_{k,i}, h_{k',j}) = λ·ρ_path^|i−j|·ρ_S^|k−k'|.  The selection rules
read the link SNRs Σ_i |h|² of each draw.  Nothing here shares code with
``esrsel.simulation``'s eigenvalue sampler, so the two check each other.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel.errors import DomainError


@dataclass(frozen=True)
class ChannelRealization:
    """n channel draws: h_D[n, l, k, i] over paths i, h_E[n, k, i]."""

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


def _corr_factors(cfg: SystemConfig, corr: CorrelationConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Kronecker square-root factors (destination, eavesdropper)."""
    r_s = ToeplitzCorrelation(cfg.K, corr.rho_S, 1.0).sqrt_factor()
    r_d = ToeplitzCorrelation(cfg.M_D, corr.rho_D, cfg.lambda_D).sqrt_factor()
    r_e = ToeplitzCorrelation(cfg.M_E, corr.rho_E, cfg.lambda_E).sqrt_factor()
    return np.kron(r_d, r_s), np.kron(r_e, r_s)


def draw_channels(
    cfg: SystemConfig, corr: CorrelationConfig, n: int, gen: np.random.Generator
) -> ChannelRealization:
    """``n`` channel realizations from ``gen`` in one call."""
    shape_d, shape_e = (n, cfg.L, cfg.K * cfg.M_D), (n, cfg.K * cfg.M_E)
    w_d = gen.standard_normal(shape_d) + 1j * gen.standard_normal(shape_d)
    w_e = gen.standard_normal(shape_e) + 1j * gen.standard_normal(shape_e)
    b_d, b_e = _corr_factors(cfg, corr)
    h_d = (w_d @ b_d) * math.sqrt(0.5)
    h_e = (w_e @ b_e) * math.sqrt(0.5)
    h_d = h_d.reshape(n, cfg.L, cfg.M_D, cfg.K).transpose(0, 1, 3, 2)
    h_e = h_e.reshape(n, cfg.M_E, cfg.K).transpose(0, 2, 1)
    return ChannelRealization(h_D=h_d, h_E=h_e)


def _snr_matrices(r: ChannelRealization) -> Tuple[np.ndarray, np.ndarray]:
    gamma_d = (r.h_D.real**2 + r.h_D.imag**2).sum(axis=3)  # (n, L, K)
    gamma_e = (r.h_E.real**2 + r.h_E.imag**2).sum(axis=2)  # (n, K)
    return gamma_d.transpose(0, 2, 1), gamma_e  # (n, K, L), (n, K)


def _pick(
    metric: np.ndarray, gamma_d: np.ndarray, gamma_e: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per draw, the pair maximizing ``metric[n, k, l]``, ties to the
    smallest (k, l): 1-based k and l and the pair's (1+γ_D)/(1+γ_E)."""
    n, _, l_count = metric.shape
    k, l = np.divmod(metric.reshape(n, -1).argmax(axis=1), l_count)
    rows = np.arange(n)
    ratio = (1.0 + gamma_d[rows, k, l]) / (1.0 + gamma_e[rows, k])
    return k + 1, l + 1, ratio


def select_os(r: ChannelRealization) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per draw, the pair maximizing (1+γ_D)/(1+γ_E)."""
    gamma_d, gamma_e = _snr_matrices(r)
    return _pick((1.0 + gamma_d) / (1.0 + gamma_e[:, :, None]), gamma_d, gamma_e)


def select_ss(r: ChannelRealization) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per draw, the pair maximizing γ_D alone; the ratio still prices in
    that pair's γ_E."""
    gamma_d, gamma_e = _snr_matrices(r)
    return _pick(gamma_d, gamma_d, gamma_e)
