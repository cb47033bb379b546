"""Exception hierarchy shared across the library.

Every error raised deliberately by this package derives from
:class:`SelectionModelError`, so callers can catch the whole family with one
``except`` clause while the CLI maps them onto exit code 1.
"""

from __future__ import annotations

__all__ = [
    "SelectionModelError",
    "DomainError",
    "ContractError",
    "ComplexityBudgetError",
    "CancellationError",
    "OracleFailureError",
]


class SelectionModelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SelectionModelError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ContractError(SelectionModelError, ValueError):
    """A caller violated an operation precondition (e.g. wrong scheme/shape)."""


class ComplexityBudgetError(SelectionModelError):
    """The work estimate of an evaluation exceeds the configured budget;
    ``count`` is that estimate."""

    def __init__(self, k: int, L: int, M_D: int, count: int, budget: int):
        self.k, self.L, self.M_D = k, L, M_D
        self.count, self.budget = count, budget
        super().__init__(
            f"work estimate for (k={k}, L={L}, M_D={M_D}) is {count:.3e}, "
            f"over the budget of {budget:.3e}; reduce K/L/M_D or use "
            "method='quadrature' for this config"
        )


class CancellationError(SelectionModelError, FloatingPointError):
    """Alternating-sum cancellation exhausted the working precision.

    The closed-form value cannot be trusted; the quadrature method evaluates
    the same quantity without cancellation and should be used instead.
    """

    def __init__(self, max_log_term: float, log_value: float):
        self.max_log_term = max_log_term
        self.log_value = log_value
        super().__init__(
            f"cancellation guard tripped: max |ln term| = {max_log_term:.1f} vs "
            f"ln |sum| = {log_value:.1f}; use method='quadrature' for this config"
        )


class OracleFailureError(SelectionModelError):
    """Adaptive quadrature failed to reach its error targets."""
