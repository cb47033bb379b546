"""System model: the network configuration and its correlation settings.

A network of K transmitters, L legitimate destinations and one eavesdropper
communicates over frequency-selective block fading. Single-carrier cyclic-
prefix processing turns each link's post-combining SNR into a sum of
per-path SNRs, so

    γ_D^{(k,l)} ~ Gamma(shape=M_D, scale=λ_D),
    γ_E^{(k)}   ~ Gamma(shape=M_E, scale=λ_E),

with integer shapes (the multipath counts) and linear-scale average per-path
SNRs λ.  All formulas downstream consume exactly these two laws plus the
counts (K, L), which is why :class:`SystemConfig` is the complete
parameterization.  ``simulation`` states the laws and the secrecy rate
[log2((1+γ_D)/(1+γ_E))]^+ in vectorised form, where they run.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["SystemConfig", "CorrelationConfig"]


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
