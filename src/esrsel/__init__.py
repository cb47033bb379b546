"""Ergodic secrecy rate of source–destination pair selection over
frequency-selective fading: exact/high-SNR/asymptotic closed forms, an
independent quadrature oracle, and a Monte Carlo simulator with optional
transmitter/path correlation."""

from .channel_model import CorrelationConfig, SystemConfig
from .errors import (
    CancellationError,
    ComplexityBudgetError,
    ContractError,
    DomainError,
    OracleFailureError,
    SelectionModelError,
)
from .esr_engine import (
    DEFAULT_BUDGET,
    AsymptoticLine,
    EsrResult,
    asymptote_line,
    esr_asymptotic,
    esr_os_exact,
    esr_os_highsnr,
    esr_ss_exact,
    esr_ss_highsnr,
)
from .simulation import McEstimate, estimate_esr, paired_esr_difference, quadrature_esr

__version__ = "0.1.0"
