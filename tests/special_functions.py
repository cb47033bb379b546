"""Float special functions: an independent reference for the tests.

No library route uses this module; the closed forms run on the mpmath
incomplete-gamma tables of ``esrsel.partial_fractions``.  Everything here is
plain float arithmetic. The quantities the closed forms
need are: the upper incomplete gamma Γ(a, x) at *integer* order a (including
a ≤ 0, where Γ(0, x) = E1(x)), harmonic numbers, log-binomials, and an
exponentially scaled gamma so products like e^{big}·Γ(a, big) never leave the
representable range.

Conventions
-----------
Γ(a, x) = ∫_x^∞ t^{a-1} e^{-t} dt, x > 0.  For integer a this satisfies
Γ(a+1, x) = a Γ(a, x) + x^a e^{-x}.  Negative orders use the Legendre
continued fraction when x ≥ 1 (it converges for any a ≤ 0 there) and the
downward recurrence from Γ(0, x) when x < 1.  The recurrence subtracts
x^{a-1}e^{-x} - Γ(a, x), which is benign only while that ratio stays away
from 1 — true for x < 1, badly false for x ≫ |a|, so the split is load
bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from esrsel.errors import DomainError

__all__ = [
    "UnsupportedOrderError",
    "ScaledGamma",
    "upper_incomplete_gamma",
    "scaled_upper_incomplete_gamma",
    "exp_integral_e1",
    "harmonic",
    "log_binomial",
    "MAX_ORDER",
]

_EULER_GAMMA = 0.5772156649015328606
MAX_ORDER = 512


class UnsupportedOrderError(DomainError):
    """Integer order magnitude beyond the supported bound (|order| > 512)."""


@dataclass(frozen=True)
class ScaledGamma:
    """A real number stored as mantissa · exp(log_scale).

    ``mantissa`` may be negative; a represented value of exactly zero is
    stored as (log_scale=0.0, mantissa=0.0).
    """

    log_scale: float
    mantissa: float

    @classmethod
    def from_float(cls, value: float) -> "ScaledGamma":
        return cls(0.0, float(value))

    def to_float(self) -> float:
        if self.mantissa == 0.0:
            return 0.0
        return self.mantissa * math.exp(self.log_scale)

    def __float__(self) -> float:  # pragma: no cover - convenience alias
        return self.to_float()


def _e1_series(x: float) -> float:
    """E1 via the ascending series; accurate for 0 < x < 1."""
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0
    for n in range(1, 40):
        term *= -x / n
        delta = -term / n
        total += delta
        if abs(delta) < 1e-18 * abs(total):
            break
    return total

def _gamma_cf(order: int, x: float) -> float:
    """Modified Lentz evaluation of the continued fraction for e^x·x^{-a}·Γ(a, x).

    Γ(a, x) = e^{-x} x^a / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...)));
    this returns the fraction part only, so callers can attach the exponential
    and power at whatever scale they need.  Reliable for x ≥ 1 when a ≤ 1;
    order 0 gives e^x·E1(x).
    """
    tiny = 1e-300
    b = x + 1.0 - order
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 5000):
        a = -i * (i - order)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    return h


def exp_integral_e1(x: float) -> float:
    """E1(x) = Γ(0, x) for x > 0."""
    if x <= 0.0 or math.isnan(x):
        raise DomainError(f"E1 needs x > 0, got {x}")
    if x < 1.0:
        return _e1_series(x)
    return math.exp(-x) * _gamma_cf(0, x)


def _log_e1(x: float) -> float:
    """ln E1(x), stable for any x > 0 (no exp underflow on the large side)."""
    if x < 1.0:
        return math.log(_e1_series(x))
    return -x + math.log(_gamma_cf(0, x))


def _log_gamma_positive(order: int, x: float) -> float:
    """ln Γ(n, x) for integer n ≥ 1 via Γ(n,x) = (n-1)! e^{-x} Σ_{j<n} x^j/j!.

    The inner sum is done as a log-sum-exp so no intermediate over/underflows.
    """
    log_x = math.log(x)
    logs = [j * log_x - math.lgamma(j + 1) for j in range(order)]
    peak = max(logs)
    acc = sum(math.exp(v - peak) for v in logs)
    return math.lgamma(order) - x + peak + math.log(acc)


def _log_gamma_integer(order: int, x: float) -> float:
    """ln Γ(order, x) for any integer order with |order| ≤ MAX_ORDER."""
    if order >= 1:
        return _log_gamma_positive(order, x)
    if x >= 1.0:
        # Direct continued fraction; the downward recurrence is unusable here
        # because Γ(a,x)/x^{a-1}e^{-x} → 1 as x grows and the subtraction
        # below would amplify rounding error without bound.
        return -x + order * math.log(x) + math.log(_gamma_cf(order, x))
    log_val = math.log(_e1_series(x))   # a = 0
    a = 0
    while a > order:
        # Γ(a-1, x) = (x^{a-1} e^{-x} - Γ(a, x)) / (1 - a), both sides > 0;
        # for x < 1 the ratio Γ(a,x)/x^{a-1}e^{-x} stays well below 1, so the
        # cancellation is mild and each step divides by a growing factor.
        log_b = (a - 1) * math.log(x) - x
        diff = log_val - log_b      # Γ(a,x) < x^{a-1}e^{-x}, so diff < 0
        log_val = log_b + math.log1p(-math.exp(diff)) - math.log(1 - a)
        a -= 1
    return log_val


def _check_gamma_args(order: int, x: float) -> None:
    if not float(x) > 0.0:
        raise DomainError(f"upper incomplete gamma needs x > 0, got {x}")
    if order != int(order):
        raise DomainError(f"order must be an integer, got {order}")
    if abs(order) > MAX_ORDER:
        raise UnsupportedOrderError(
            f"|order| = {abs(order)} exceeds the supported bound {MAX_ORDER}"
        )


def upper_incomplete_gamma(order: int, x: float) -> float:
    """Γ(order, x) for integer order, |order| ≤ 512, x > 0."""
    _check_gamma_args(order, x)
    order = int(order)
    if order == 0:
        return exp_integral_e1(x)
    if order == 1:
        return math.exp(-x)
    log_val = _log_gamma_integer(order, x)
    if log_val > 709.0:
        return math.inf
    return math.exp(log_val)


def scaled_upper_incomplete_gamma(
    order: int, x: float, log_prefactor: float = 0.0
) -> ScaledGamma:
    """e^{log_prefactor} · Γ(order, x) without intermediate over/underflow."""
    _check_gamma_args(order, x)
    log_val = _log_gamma_integer(int(order), x) + log_prefactor
    return ScaledGamma(log_val, 1.0)


def harmonic(n: int) -> float:
    """H_n = Σ_{i=1}^{n} 1/i, with H_0 = 0."""
    if n < 0 or n != int(n):
        raise DomainError(f"harmonic number needs integer n >= 0, got {n}")
    return sum(1.0 / i for i in range(int(n), 0, -1))


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k).  Exact-integer path, so full float precision for any n."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"log_binomial needs 0 <= k <= n, got n={n}, k={k}")
    return math.log(math.comb(int(n), int(k)))
