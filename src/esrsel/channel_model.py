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


def _index(v) -> int:
    """``operator.index(v)``, refusing a bool with the same TypeError as any
    other non-integer: ``True`` is not a count, a seed or a budget."""
    if isinstance(v, bool):
        raise TypeError(f"a bool is not an integer: {v!r}")
    return operator.index(v)


def _is_real(v) -> bool:
    """Whether ``v`` is a real number (``numbers.Real``) other than a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _count(name: str, v) -> int:
    """A multipath or node count: an integer (``_index``) >= 1, as an int."""
    try:
        n = _index(v)
    except TypeError:
        n = 0
    if n < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {v!r}")
    return n


def _scale(name: str, v) -> float:
    """A real (``_is_real``) that is positive and finite as a float, as that
    float."""
    try:
        f = float(v) if _is_real(v) else math.nan
    except OverflowError:
        f = math.inf
    if not (f > 0.0 and math.isfinite(f)):
        raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return f


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of the selection network.

    lambda_D and lambda_E are linear (not dB) average per-path SNRs; the CLI
    converts from dB at the boundary.  The fields hold Python types whatever
    was passed: each count as an int, each λ as a float, so no numpy integer
    wraps and no ``Fraction`` or numpy float reaches mpmath or numpy.
    """

    K: int
    L: int
    M_D: int
    M_E: int
    lambda_D: float
    lambda_E: float

    def __post_init__(self) -> None:
        for name in ("K", "L", "M_D", "M_E"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("lambda_D", "lambda_E"):
            object.__setattr__(self, name, _scale(name, getattr(self, name)))


@dataclass(frozen=True)
class CorrelationConfig:
    """Exponential correlation coefficients: transmitters, destination paths,
    eavesdropper paths.  0 means i.i.d. in that dimension.  Each ρ is
    stored as a float, whatever real number type built it, so no
    ``Fraction`` reaches numpy; one that lies below 1 but rounds to 1.0 is
    refused with the rest."""

    rho_S: float = 0.0
    rho_D: float = 0.0
    rho_E: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rho_S", "rho_D", "rho_E"):
            v = getattr(self, name)
            if not (_is_real(v) and 0.0 <= v < 1.0 and float(v) < 1.0):
                raise DomainError(f"{name} must lie in [0, 1), got {v!r}")
            object.__setattr__(self, name, float(v))
