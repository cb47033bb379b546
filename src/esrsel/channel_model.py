"""System model: configuration, per-link SNR distributions, secrecy rate.

A network of K transmitters, L legitimate destinations and one eavesdropper
communicates over frequency-selective block fading. Single-carrier cyclic-
prefix processing turns each link's post-combining SNR into a sum of
per-path SNRs, so

    γ_D^{(k,l)} ~ Gamma(shape=M_D, scale=λ_D),
    γ_E^{(k)}   ~ Gamma(shape=M_E, scale=λ_E),

with integer shapes (the multipath counts) and linear-scale average per-path
SNRs λ.  All formulas downstream consume exactly these two distributions plus
the counts (K, L), which is why :class:`SystemConfig` is the complete
parameterization.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "SystemConfig",
    "GammaSnrDist",
    "CorrelationConfig",
    "snr_pdf",
    "snr_cdf",
    "secrecy_rate",
]


def _check_count(name: str, v) -> None:
    """A multipath or node count: an integer (``operator.index``) >= 1."""
    try:
        ok = operator.index(v) >= 1
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be an integer >= 1, got {v!r}")


def _check_scale(name: str, v) -> None:
    if not (isinstance(v, numbers.Real) and v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of the selection network.

    lambda_D and lambda_E are linear (not dB) average per-path SNRs; the CLI
    converts from dB at the boundary.
    """

    K: int
    L: int
    M_D: int
    M_E: int
    lambda_D: float
    lambda_E: float

    def __post_init__(self) -> None:
        for name in ("K", "L", "M_D", "M_E"):
            _check_count(name, getattr(self, name))
        for name in ("lambda_D", "lambda_E"):
            _check_scale(name, getattr(self, name))


@dataclass(frozen=True)
class GammaSnrDist:
    """Gamma SNR law with integer shape (multipath count) and linear scale."""

    shape: int
    scale: float

    def __post_init__(self) -> None:
        _check_count("shape", self.shape)
        _check_scale("scale", self.scale)

    @property
    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class CorrelationConfig:
    """Exponential correlation coefficients: transmitters, destination paths,
    eavesdropper paths.  0 means i.i.d. in that dimension."""

    rho_S: float = 0.0
    rho_D: float = 0.0
    rho_E: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rho_S", "rho_D", "rho_E"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and 0.0 <= v < 1.0):
                raise DomainError(f"{name} must lie in [0, 1), got {v!r}")


def snr_pdf(dist: GammaSnrDist, x: float) -> float:
    """Density x^{M-1} e^{-x/λ} / (λ^M (M-1)!) at x ≥ 0."""
    if x < 0.0:
        raise DomainError(f"SNR density needs x >= 0, got {x}")
    m, lam = dist.shape, dist.scale
    if x == 0.0:
        return 1.0 / lam if m == 1 else 0.0
    log_pdf = (m - 1) * math.log(x) - x / lam - m * math.log(lam) - math.lgamma(m)
    return math.exp(log_pdf)


def snr_cdf(dist: GammaSnrDist, x: float) -> float:
    """CDF 1 - e^{-x/λ} Σ_{m=0}^{M-1} (x/λ)^m / m!  (finite-sum form)."""
    if x < 0.0:
        raise DomainError(f"SNR CDF needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    z = x / dist.scale
    log_z = math.log(z)
    logs = [m * log_z - math.lgamma(m + 1) for m in range(dist.shape)]
    peak = max(logs)
    acc = sum(math.exp(v - peak) for v in logs)
    return -math.expm1(-z + peak + math.log(acc))


def secrecy_rate(gamma_D: float, gamma_E: float) -> float:
    """Instantaneous secrecy rate [log2((1+γ_D)/(1+γ_E))]^+ in bpcu."""
    if gamma_D < 0.0 or gamma_E < 0.0:
        raise DomainError("SNRs must be nonnegative")
    if gamma_D <= gamma_E:
        return 0.0
    return math.log2((1.0 + gamma_D) / (1.0 + gamma_E))
